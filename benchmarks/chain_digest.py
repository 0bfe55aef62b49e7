"""One SHA-256 over the chain JSON of every Table-1 suite cone.

The digest pins chain identity across changes that must not move a
single chain byte.  Its definition::

    h = sha256()
    for seed in 0, 1, 2, 3:               # set_seed_offset(seed)
        suite = table1_suite()
        for scale in 0.05, 0.2, 0.5:
            for name, entry in suite.items():   # suite order
                circuit = entry.circuit(scale)
                for result in ParallelExecutor(ExecutorConfig(jobs=1))
                              .sweep_circuit(circuit):  # output order
                    h.update(json.dumps(result.chains).encode("utf-8"))

``result.chains`` maps each primary input of the cone to its serialized
dominator chain (``DominatorChain.to_dict()``); ``json.dumps`` runs with
its default separators and key order.  That is 6,112 cones and 131,018
chains.  ``chain_digest(jobs=2)`` sweeps through the worker pool
instead and must return the same digest.

Usage::

    PYTHONPATH=src python benchmarks/chain_digest.py

prints ``<digest> <cones> cones <chains> chains``.
"""

import hashlib
import json

from repro.circuits.suite import set_seed_offset, table1_suite
from repro.service import ExecutorConfig, ParallelExecutor

SEEDS = (0, 1, 2, 3)
SCALES = (0.05, 0.2, 0.5)


def chain_digest(jobs: int = 1):
    """``(hexdigest, cones, chains)`` under the definition above."""
    hasher = hashlib.sha256()
    cones = chains = 0
    with ParallelExecutor(ExecutorConfig(jobs=jobs)) as executor:
        try:
            for seed in SEEDS:
                set_seed_offset(seed)
                suite = table1_suite()
                for scale in SCALES:
                    for entry in suite.values():
                        circuit = entry.circuit(scale)
                        for result in executor.sweep_circuit(circuit):
                            hasher.update(
                                json.dumps(result.chains).encode("utf-8")
                            )
                            cones += 1
                            chains += len(result.chains)
        finally:
            set_seed_offset(0)
    return hasher.hexdigest(), cones, chains


if __name__ == "__main__":
    digest, cones, chains = chain_digest()
    print(f"{digest} {cones} cones {chains} chains")
