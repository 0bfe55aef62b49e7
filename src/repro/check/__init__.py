"""Differential correctness harness for the dominator-chain computation.

Three independent implementations of Definition 1 live in this package's
neighbours — DOMINATORCHAIN (:mod:`repro.core.algorithm`), the baseline
algorithm [11] (:mod:`repro.core.baseline`) and the brute-force
enumeration (:mod:`repro.core.bruteforce`).  :mod:`repro.check` turns
that redundancy into an oracle, in the tradition of the cross-checking
harnesses used to validate dynamic dominator algorithms:

* :mod:`repro.check.oracle` runs all three on the same cone and diffs
  the results pair-for-pair and vector-for-vector, including the O(1)
  ``(flag, index, min, max)`` look-up structure at its interval
  boundaries, and certifies the shared single-dominator tree with a
  low-high order (:func:`~repro.check.oracle.check_low_high`) — the
  fourth, non-differential oracle;
* :func:`~repro.check.oracle.check_sequential` compares every
  combinational-core cone of a :class:`~repro.graph.sequential
  .SequentialCircuit` against the frame-0 cone of its time-frame
  unrolling (kind ``sequential``);
* :mod:`repro.check.fuzzer` draws seeded random circuits from
  :mod:`repro.circuits.generators`, applies structured mutations
  (:func:`repro.graph.rewrite.expand_xors`, random incremental edit
  scripts) and feeds every case through the oracle;
* :mod:`repro.check.shrink` minimizes any mismatching circuit to a
  small repro and dumps it as a ``.bench`` fixture that round-trips
  through the parsers.

CLI: ``python -m repro check NETLIST`` and
``python -m repro fuzz --seed N --cases K`` (nonzero exit on mismatch).
"""

from .oracle import (
    Mismatch,
    OracleReport,
    check_circuit,
    check_cone,
    check_incremental,
    check_low_high,
    check_sequential,
    check_sweep,
    diff_chains,
    other_backend,
)
from .fuzzer import FuzzFailure, FuzzResult, generate_case, run_fuzz
from .shrink import dump_repro, shrink_circuit

__all__ = [
    "FuzzFailure",
    "FuzzResult",
    "Mismatch",
    "OracleReport",
    "check_circuit",
    "check_cone",
    "check_incremental",
    "check_low_high",
    "check_sequential",
    "check_sweep",
    "diff_chains",
    "dump_repro",
    "generate_case",
    "other_backend",
    "run_fuzz",
    "shrink_circuit",
]
