"""Incremental dominator engine: stateful sessions with edit-driven
invalidation.

The serving layer the paper's conclusion calls for: open an
:class:`IncrementalEngine` on a cone, stream typed edits
(:class:`AddGate`, :class:`RemoveGate`, :class:`Rewire`,
:class:`ReplaceSubgraph`) and query dominator chains between them —
only the search regions an edit's dirty cone touches are recomputed,
everything else is served from the persistent region cache.
"""

from .edits import (
    AddGate,
    Edit,
    RemoveGate,
    ReplaceSubgraph,
    Rewire,
    dump_script,
    dumps_script,
    edit_from_dict,
    edit_to_dict,
    load_script,
    loads_script,
    xor_to_nand_edit,
)
from .engine import EngineStats, IncrementalEngine
from .invalidate import affected_cone, downstream_of, invalidate_dirty

__all__ = [
    "AddGate",
    "Edit",
    "EngineStats",
    "IncrementalEngine",
    "RemoveGate",
    "ReplaceSubgraph",
    "Rewire",
    "affected_cone",
    "downstream_of",
    "dump_script",
    "dumps_script",
    "edit_from_dict",
    "edit_to_dict",
    "invalidate_dirty",
    "load_script",
    "loads_script",
    "xor_to_nand_edit",
]
