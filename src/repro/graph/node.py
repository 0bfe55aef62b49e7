"""Node (gate) types for circuit graphs.

The dominator algorithms in :mod:`repro.core` only care about the *topology*
of the circuit DAG, but the motivating applications from the paper's
introduction (signal probability, switching activity) need to evaluate gate
functions.  This module defines the gate vocabulary shared by the netlist
representation, the parsers and the logic simulator.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence


class NodeType(enum.Enum):
    """Kind of a circuit node.

    ``INPUT`` nodes are primary inputs (no fanin).  ``CONST0``/``CONST1``
    are constant drivers.  All other members are combinational gates with
    one or more fanins.
    """

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX = "mux"  # fanins: (select, a, b) -> a if select == 0 else b

    @property
    def is_input(self) -> bool:
        return self is NodeType.INPUT

    @property
    def is_constant(self) -> bool:
        return self in (NodeType.CONST0, NodeType.CONST1)

    @property
    def is_gate(self) -> bool:
        return not (self.is_input or self.is_constant)


def _eval_mux(bits: Sequence[int]) -> int:
    if len(bits) != 3:
        raise ValueError("MUX gate requires exactly 3 fanins (sel, a, b)")
    sel, a, b = bits
    return b if sel else a


_EVALUATORS: dict[NodeType, Callable[[Sequence[int]], int]] = {
    NodeType.CONST0: lambda bits: 0,
    NodeType.CONST1: lambda bits: 1,
    NodeType.BUF: lambda bits: bits[0],
    NodeType.NOT: lambda bits: 1 - bits[0],
    NodeType.AND: lambda bits: int(all(bits)),
    NodeType.NAND: lambda bits: int(not all(bits)),
    NodeType.OR: lambda bits: int(any(bits)),
    NodeType.NOR: lambda bits: int(not any(bits)),
    NodeType.XOR: lambda bits: sum(bits) & 1,
    NodeType.XNOR: lambda bits: 1 - (sum(bits) & 1),
    NodeType.MUX: _eval_mux,
}

#: Minimum number of fanins each gate type accepts.
MIN_FANIN: dict[NodeType, int] = {
    NodeType.INPUT: 0,
    NodeType.CONST0: 0,
    NodeType.CONST1: 0,
    NodeType.BUF: 1,
    NodeType.NOT: 1,
    NodeType.AND: 1,
    NodeType.NAND: 1,
    NodeType.OR: 1,
    NodeType.NOR: 1,
    NodeType.XOR: 1,
    NodeType.XNOR: 1,
    NodeType.MUX: 3,
}

#: Maximum number of fanins each gate type accepts (None = unbounded).
MAX_FANIN: dict[NodeType, int | None] = {
    NodeType.INPUT: 0,
    NodeType.CONST0: 0,
    NodeType.CONST1: 0,
    NodeType.BUF: 1,
    NodeType.NOT: 1,
    NodeType.AND: None,
    NodeType.NAND: None,
    NodeType.OR: None,
    NodeType.NOR: None,
    NodeType.XOR: None,
    NodeType.XNOR: None,
    NodeType.MUX: 3,
}


def evaluate_gate(node_type: NodeType, fanin_bits: Sequence[int]) -> int:
    """Evaluate a single gate over 0/1 fanin values.

    Parameters
    ----------
    node_type:
        Gate kind; must not be :data:`NodeType.INPUT` (inputs have no
        function to evaluate).
    fanin_bits:
        Values of the gate's fanins, in fanin order.

    Returns
    -------
    int
        0 or 1.
    """
    if node_type is NodeType.INPUT:
        raise ValueError("primary inputs have no gate function")
    lo = MIN_FANIN[node_type]
    hi = MAX_FANIN[node_type]
    if len(fanin_bits) < lo or (hi is not None and len(fanin_bits) > hi):
        raise ValueError(
            f"{node_type.value} gate got {len(fanin_bits)} fanins, "
            f"expected between {lo} and {hi if hi is not None else 'inf'}"
        )
    return _EVALUATORS[node_type](fanin_bits)


#: Every accepted textual gate name, lower-cased: the enum values plus the
#: aliases found in .bench files.  The netlist loaders look tokens up here.
GATE_TOKENS: dict[str, NodeType] = {
    **{node_type.value: node_type for node_type in NodeType},
    "inv": NodeType.NOT,
    "buff": NodeType.BUF,
    "buffer": NodeType.BUF,
    "vdd": NodeType.CONST1,
    "gnd": NodeType.CONST0,
    "one": NodeType.CONST1,
    "zero": NodeType.CONST0,
}


def parse_node_type(token: str) -> NodeType:
    """Map a textual gate name (as found in .bench/BLIF files) to a type."""
    try:
        return GATE_TOKENS[token.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown gate type {token!r}") from None
