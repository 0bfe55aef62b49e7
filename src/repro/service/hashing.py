"""Canonical circuit hashing — the key space of the serving layer.

Two circuits that describe the same netlist must map to the same key no
matter how their nodes were inserted, so the fingerprint is computed
over a *canonical form*: nodes sorted by name, fanins in declared order
(fanin order is semantic — MUX — so it is part of the identity), plus
the input and output lists.  The hash deliberately ignores the
circuit's display ``name``: renaming a benchmark does not invalidate
its artifacts.

``cone_fingerprint`` narrows the identity to one output cone, so edits
confined to another cone of the same netlist do not invalidate this
cone's artifacts.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional

from ..graph.circuit import Circuit, CircuitArrays


def _digest(parts: List[str]) -> str:
    """SHA-256 of the parts, each UTF-8 encoded and NUL-terminated."""
    text = "\x00".join(parts) + "\x00"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _node_parts(arrays: CircuitArrays, ids: Iterable[int]) -> List[str]:
    """``node, name, type, *fanins`` of each id, ids sorted by name."""
    order, types, pred = arrays.order, arrays.types, arrays.pred
    parts: List[str] = []
    for i in sorted(ids, key=order.__getitem__):
        parts += ("node", order[i], types[i].value)
        parts += [order[d] for d in pred[i]]
    return parts


def circuit_fingerprint(circuit: Circuit) -> str:
    """Hex digest identifying the full netlist (structure, not name)."""
    arrays = circuit.arrays()
    return _digest(
        ["inputs", *circuit.inputs, "outputs", *circuit.outputs]
        + _node_parts(arrays, range(len(arrays.order)))
    )


def cone_fingerprint(circuit: Circuit, output: str) -> str:
    """Hex digest of one output cone: the transitive fanin of ``output``.

    Only the nodes that can reach ``output`` contribute, so the digest
    is stable under edits elsewhere in the netlist.
    """
    arrays = circuit.arrays()
    return _digest(
        ["cone", output] + _node_parts(arrays, arrays.cone_members(output))
    )


def safe_key(text: str, keep: int = 24) -> str:
    """Filesystem-safe token for an arbitrary signal/output name.

    A readable sanitized prefix plus a short digest suffix: collisions
    between distinct names are practically impossible while the file
    name stays greppable.
    """
    cleaned = "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in text
    )[:keep]
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    return f"{cleaned}-{digest}" if cleaned else digest


def fingerprint_version(fingerprint: str, version: int) -> str:
    """Composite cache tag ``<fingerprint>@v<version>`` used in metadata."""
    return f"{fingerprint}@v{version}"


def short(fingerprint: str, length: int = 12) -> str:
    """Abbreviated fingerprint for logs and reports."""
    return fingerprint[:length]


def stable_request_key(
    circuit_key: str, output: str, target: Optional[str]
) -> str:
    """Deduplication key of one chain request (None target = all PIs)."""
    return f"{circuit_key}/{output}/{target if target is not None else '*'}"
