"""Dynamic dominator maintenance for the incremental engine.

:class:`DynamicDominators` keeps the dominator tree of a live cone
correct across streamed edits with depth-based-search insertions and
affected-region sweeps (see :mod:`.maintainer`), falling back to one
static rebuild only when the affected region is too large.
:mod:`.lowhigh` provides the low-high-order certificate that *proves*
the maintained tree correct in O(n + m) — wired into
:mod:`repro.check` as the fourth oracle and run by the daemon after
every served edit.
"""

from __future__ import annotations

from .lowhigh import (
    LowHighError,
    certify_tree,
    compute_low_high,
    verify_low_high,
)
from .maintainer import (
    EDGE_ADD,
    EDGE_REMOVE,
    VERTEX_ADD,
    VERTEX_REMOVE,
    DynamicDominators,
    DynamicStats,
    DynamicTree,
)

__all__ = [
    "DynamicDominators",
    "DynamicStats",
    "DynamicTree",
    "EDGE_ADD",
    "EDGE_REMOVE",
    "VERTEX_ADD",
    "VERTEX_REMOVE",
    "LowHighError",
    "certify_tree",
    "compute_low_high",
    "verify_low_high",
]
