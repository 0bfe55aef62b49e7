"""Single-vertex dominator algorithms and the dominator tree."""

from . import dsu, iterative, lengauer_tarjan, naive, shared
from .lengauer_tarjan import UNREACHABLE
from .shared import (
    BACKENDS,
    DEFAULT_BACKEND,
    SharedConeIndex,
    validate_backend,
)
from .single import (
    circuit_dominator_tree,
    circuit_idoms,
    count_single_pi_dominators,
    idom_chain,
    pi_dominator_vertices,
    single_dominators_of,
)
from .tree import DominatorTree

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DominatorTree",
    "SharedConeIndex",
    "UNREACHABLE",
    "circuit_dominator_tree",
    "circuit_idoms",
    "count_single_pi_dominators",
    "dsu",
    "idom_chain",
    "iterative",
    "lengauer_tarjan",
    "naive",
    "pi_dominator_vertices",
    "shared",
    "single_dominators_of",
    "validate_backend",
]
