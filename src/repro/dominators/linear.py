"""Linear-time double-dominator construction (``backend="linear"``).

The paper's original algorithm (and both existing backends) pays, per
search region, one max-flow run per chain *pair* (DOUBLEIDOM) plus one
restricted-graph ``C − v`` dominator computation per chain *element*
(FINDMATCHINGVECTOR) — ``O(chain size × region size)`` in the worst
case.  The authors' follow-up paper ("A Linear-Time Algorithm for
Finding All Double-Vertex Dominators of a Given Vertex", PAPERS.md,
arXiv:1503.04994) shows both are unnecessary: all double-vertex
dominators of the region entry can be read off **one** linear pass over
the region.  This module implements that construction as one fused pass
over the cone's own ``succ``/``pred`` arrays — no region copy, no
explicit flow network, no id remapping:

0. **Region = forward reach from the entry, pruned at the sink.**  The
   sink is ``idom(entry)``, so every path from a reached vertex to the
   root — hence every vertex reached without crossing the sink —
   continues to the sink: the reach *is* the region, with no coreach
   walk and no sort.  (Only a vertex that cannot reach the root at all,
   which the dynamic engine's edited graphs may hold, breaks this; the
   walk notices the dead end and then keeps just the vertices that
   reach the sink.)
1. **Two internally vertex-disjoint entry→sink paths** ``P1``/``P2``
   are found with exactly two augmentations over an *implicit* vertex
   split: node ``2v`` is ``v``'s in-node, ``2v + 1`` its out-node, and
   the flow is stored as one successor per vertex (``flow[v]``, the arc
   carrying ``v``'s unit) plus the entry's two outgoing units.  The
   first unit follows any entry→sink path (every member reaches the
   sink, so a greedy walk never dead-ends); the second is one BFS over
   the residual graph, whose arcs are derived from ``flow`` on the fly
   — ``O(E)``, never more augmentations regardless of region
   connectivity.  Every double dominator ``{a, b}`` is a size-two
   vertex cut, each disjoint path must cross it, and a single vertex
   cannot lie on both paths, so ``a`` and ``b`` sit one on each path:
   the chain's two *sides* are subsequences of ``P1`` and ``P2``.
2. **Picard–Queyranne closure analysis** of the residual graph: with a
   flow of two, the size-two cuts are exactly the residual closures
   whose boundary is one saturated split arc per path.  Behind the
   ``k``-th saturated arc of ``P1`` sits the residual strongly
   connected component ``Z_k`` (``Z_0`` holds the entry), and a closure
   can cut ``P1`` at arc ``i`` only if no ``Z_k`` with ``k < i``
   residually reaches ``Z_i`` or beyond.  The needed "highest chain
   index reachable" labels ``z(x)``/``w(x)`` are computed *without*
   condensing components: one multi-source reverse-residual traversal
   per path, seeded from the chain anchors in descending index order,
   labels every node with the highest anchor it reaches — each node is
   visited once, ``O(V + E)`` total.
3. **Prefix maxima + a two-pointer sweep** over the two chains then
   yield, for every cut vertex, the exact *interval* of its partners on
   the opposite path — the matching intervals of Definition 3 — and the
   chain-pair grouping falls out of the interval staircase (a new
   ``{V_1k, V_2k}`` pair starts exactly where consecutive intervals
   stop overlapping).

Everything after the two augmentations is plain linear scans, so
one region costs ``O(V + E)`` total — no per-pair flow restarts, no
per-element dominator recomputation.  The output is *bit-identical* to
the other backends (same pair vectors, same intervals, same chain-pair
grouping and side orientation): the pair set determines the chain
layout — sides are ordered along the paths, pairs are the connected
components of the matching relation, and each pair's side 1 is the side
holding the smaller cone id of its immediate pair.  The other backends
compare region-local ids, which they assign in ascending cone-id order,
so that is the same ascending-id tie-break of DOUBLEIDOM — which is what
lets the differential oracle compare all three backends
vector-for-vector.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ChainConstructionError, CircuitError

#: ``(side1, side2, intervals)`` in cone ids with pair-local 1-based
#: matching intervals — one entry of ``RegionCache`` pairs.
RegionPair = Tuple[List[int], List[int], Dict[int, Tuple[int, int]]]


class ConeScratch:
    """Epoch-stamped work arrays of one cone, reused by every region.

    ``mark``/``flow`` are indexed by cone vertex id, ``stamp``/``value``
    by split-node id (``2v`` in-node, ``2v + 1`` out-node).  An entry
    counts only while its stamp equals the epoch of the walk that wrote
    it, and every walk takes a fresh epoch from the one monotone
    counter, so nothing is ever cleared between regions — or between
    graphs: the arrays grow to the largest graph seen and a scratch may
    serve several cones.  :class:`~repro.dominators.shared.SharedConeIndex`
    holds one per cone version (its ``extract_region`` uses the same
    arrays); a :class:`~repro.core.algorithm.ChainComputer` built
    without the index holds its own.

    ``floor`` confines every walk to one cone of a larger graph: a
    vertex whose ``mark`` is below it lies outside.  A
    :class:`~repro.dominators.shared.ConeView` stamps its members with a
    fresh epoch and makes that epoch the floor; every later region walk
    stamps only members, with higher epochs, so ``mark[v] >= floor``
    stays the membership test until the next cone.  With the default
    floor of 0 the whole graph is the cone.
    """

    __slots__ = ("mark", "flow", "stamp", "value", "epoch", "floor")

    def __init__(self) -> None:
        self.mark: List[int] = []  # cone, then region membership stamp
        self.flow: List[int] = []  # successor carrying v's unit, -1 if none
        self.stamp: List[int] = []  # split-node visit stamp
        self.value: List[int] = []  # BFS parent node, then reach label
        self.epoch = 0
        self.floor = 0  # marks below it lie outside the walked cone

    def ensure(self, n: int) -> None:
        """Grow every array to cover a graph of ``n`` vertices."""
        grow = n - len(self.mark)
        if grow > 0:
            self.mark.extend([0] * grow)
            self.flow.extend([0] * grow)
            self.stamp.extend([0] * (2 * grow))
            self.value.extend([0] * (2 * grow))

    def region(self, graph, start: int, sink: int, dominated: bool = True):
        """Vertices on ``start``→``sink`` paths, stamped in ``mark``.

        Returns ``(members, epoch)``: ``mark[v] == epoch`` exactly for
        the members, listed in discovery order, and ``flow[v]`` is reset
        to ``-1`` for each of them.  With ``dominated`` (the chain-region
        case, ``sink = idom(start)``) reaching the root past the sink is
        an error; without it the region is the plain reach ∩ coreach.
        """
        if start == sink:
            raise CircuitError("region start and sink are the same vertex")
        self.ensure(graph.n)
        self.epoch += 1
        epoch = self.epoch
        floor = self.floor
        mark, flow, succ = self.mark, self.flow, graph.succ
        mark[start] = epoch
        flow[start] = -1
        members = [start]
        stack = [start]
        closed = True
        # Forward walk pruned at the sink: nothing past it can return.
        # Vertices outside the cone (below the floor) are never entered.
        while stack:
            sv = succ[stack.pop()]
            if not sv:
                closed = False  # a dead end (or the root): see below
            for w in sv:
                if floor <= mark[w] != epoch:
                    mark[w] = epoch
                    flow[w] = -1
                    members.append(w)
                    if w != sink:
                        stack.append(w)
        if mark[sink] != epoch:
            raise CircuitError("sink is not reachable from start")
        root = graph.root
        if root != sink and mark[root] == epoch:
            if dominated:
                raise CircuitError(
                    f"sink {sink} does not dominate start {start}: "
                    "the root is reachable around it"
                )
            closed = False
        if closed:
            return members, epoch
        # Some reached vertex cannot reach the sink: keep exactly the
        # reached vertices that do (every suffix of a start→sink path is
        # reached, so walking back over reached vertices loses nothing).
        self.epoch += 1
        keep = self.epoch
        pred = graph.pred
        mark[sink] = keep
        members = [sink]
        stack = [sink]
        while stack:
            for u in pred[stack.pop()]:
                if mark[u] == epoch:
                    mark[u] = keep
                    members.append(u)
                    stack.append(u)
        return members, keep


def _first_path(graph, start, sink, scratch, me, sslots) -> None:
    """Route the first unit along any start→sink path, greedily.

    Every member other than the sink reaches the sink, so it has a
    member successor that does too: taking the first member successor
    at each step never dead-ends (the walk needs no search).
    """
    succ, mark, flow = graph.succ, scratch.mark, scratch.flow
    v = start
    while v != sink:
        for w in succ[v]:
            if mark[w] == me:
                break
        if v == start:
            sslots.append(w)
        else:
            flow[v] = w
        v = w


def _augment(graph, start, sink, scratch, me, sslots) -> bool:
    """One BFS augmentation over the implicit split residual graph.

    Residual arcs, read off ``flow`` (``me`` is the region epoch):

    * out(v) → in(w) for every successor ``w`` (graph arcs have
      capacity two, more than any flow they can carry);
    * out(v) → in(v) when ``v`` carries a unit (the split arc's reverse);
    * in(v) → out(v) when ``v`` carries none (the split arc itself);
    * in(v) → out(u) for the member ``u`` whose unit enters ``v``.

    Successors outside the region (fanouts leaving the cone) carry no
    arc.  A vertex carrying no unit has the split arc as its in-node's
    only residual arc, so the search steps from out(v) straight to
    out(w) and never visits such an in-node.  The entry's units live in
    ``sslots`` instead of ``flow[start]``; the BFS never re-enters
    out(start) nor expands in(sink), so those units only ever grow.  On
    success the path is applied by walking the parents back: an
    out-node's next hop sets its vertex's unit.
    """
    succ, pred = graph.succ, graph.pred
    mark, flow = scratch.mark, scratch.flow
    stamp, value = scratch.stamp, scratch.value
    scratch.epoch += 1
    epoch = scratch.epoch
    source = 2 * start + 1
    target = 2 * sink
    stamp[source] = epoch
    queue = [source]
    for x in queue:
        v = x >> 1
        if x & 1:
            for w in succ[v]:
                if w == sink:
                    value[target] = x
                    break
                if mark[w] != me:
                    continue
                y = 2 * w + 1 if flow[w] < 0 else 2 * w
                if stamp[y] != epoch:
                    stamp[y] = epoch
                    value[y] = x
                    queue.append(y)
            else:
                if flow[v] >= 0:
                    y = x - 1
                    if stamp[y] != epoch:
                        stamp[y] = epoch
                        value[y] = x
                        queue.append(y)
                continue
            break
        for u in pred[v]:
            if mark[u] == me and (
                flow[u] == v or (u == start and v in sslots)
            ):
                y = 2 * u + 1
                if stamp[y] != epoch:
                    stamp[y] = epoch
                    value[y] = x
                    queue.append(y)
                break
    else:
        return False
    y = target
    while y != source:
        x = value[y]
        if x & 1:
            if y == x - 1:
                flow[x >> 1] = -1
            elif x == source:
                sslots.append(y >> 1)
            else:
                flow[x >> 1] = y >> 1
        y = x
    return True


def _reach_labels(graph, source, sslots, seeds, scratch, me, reads):
    """Label nodes with the highest ``k`` s.t. ``x ⇝ seeds[k]`` residually.

    Seeds are processed in descending index order with one *reverse*
    residual traversal each (the reverse of the arcs listed in
    :func:`_augment`); already-labeled nodes stop the walk — they, and
    everything behind them, were claimed by a higher seed — so every
    node is expanded at most once and the whole labeling is
    ``O(V + E)``.  As in the augmentation, a vertex carrying no unit is
    visited through its out-node only.  Seed 0 (the entry) claims
    nothing any other seed needs, so its traversal is skipped.

    Returns one label list per node list in ``reads`` (``-1`` for
    "reaches no seed"); the arrays are then free for the next pass.
    """
    pred = graph.pred
    mark, flow = scratch.mark, scratch.flow
    stamp, label = scratch.stamp, scratch.value
    scratch.epoch += 1
    epoch = scratch.epoch
    for k in range(len(seeds) - 1, 0, -1):
        s = seeds[k]
        if stamp[s] == epoch:
            continue
        stamp[s] = epoch
        label[s] = k
        stack = [s]
        while stack:
            x = stack.pop()
            v = x >> 1
            if x & 1:
                if x == source:
                    for w in sslots:
                        y = 2 * w
                        if stamp[y] != epoch:
                            stamp[y] = epoch
                            label[y] = k
                            stack.append(y)
                    continue
                f = flow[v]
                if f >= 0:
                    y = 2 * f
                    if stamp[y] != epoch:
                        stamp[y] = epoch
                        label[y] = k
                        stack.append(y)
                    continue
            elif flow[v] >= 0:
                y = x + 1
                if stamp[y] != epoch:
                    stamp[y] = epoch
                    label[y] = k
                    stack.append(y)
            for u in pred[v]:
                if mark[u] == me:
                    y = 2 * u + 1
                    if stamp[y] != epoch:
                        stamp[y] = epoch
                        label[y] = k
                        stack.append(y)
    return [
        [label[x] if stamp[x] == epoch else -1 for x in nodes]
        for nodes in reads
    ]


def _valid(own, opp, interior):
    """Cut candidates of one path: ``(chain index, vertex, floor)``.

    ``a_i`` can appear in a cut iff no component before its split arc
    reaches back to ``Z_i`` or beyond (the closure could not exclude
    it); the floor is the highest opposite-chain index the prefix drags
    into any closure cut at ``a_i`` — its partners lie strictly above.
    """
    out = []
    mown, mopp = own[0], opp[0]
    for i in range(1, len(own)):
        if mown < i:
            out.append((i, interior[i - 1], mopp))
        if own[i] > mown:
            mown = own[i]
        if opp[i] > mopp:
            mopp = opp[i]
    return out


def region_chain_pairs(
    graph, start: int, sink: int, scratch: Optional[ConeScratch] = None
) -> Tuple[List[int], List[RegionPair]]:
    """All chain pairs of the search region ``start`` → ``sink``.

    Parameters
    ----------
    graph:
        The cone in signal orientation (``succ``/``pred``/``n``/``root``
        — an :class:`~repro.graph.indexed.IndexedGraph` or anything
        duck-compatible, such as a
        :class:`~repro.dominators.shared.ConeView` over a whole
        circuit's arrays, whose ``scratch`` floor marks the cone).  Ids
        need not be topological.
    start:
        The region entry vertex.
    sink:
        ``idom(start)`` in the cone's dominator tree.
    scratch:
        The cone's :class:`ConeScratch` (a fresh one is created when
        omitted).  Reuse never changes results — only the allocation
        count.

    Returns
    -------
    ``(members, pairs)``
        ``members`` lists every vertex of the region (start and sink
        included; the member set ``RegionCache`` stores), ``pairs`` one
        ``(side1, side2, intervals)`` entry per ``{V_1k, V_2k}`` chain
        pair in chain order — cone ids with pair-local 1-based matching
        intervals, exactly what the legacy/shared expansion produces.

    Raises
    ------
    CircuitError
        ``start == sink``, ``sink`` unreachable from ``start``, or the
        root reachable from ``start`` around ``sink`` (``sink`` does not
        dominate ``start``).
    """
    if scratch is None:
        scratch = ConeScratch()
    members, me = scratch.region(graph, start, sink)
    if len(members) < 4 or sink in graph.succ[start]:
        # Fewer than two interior vertices, or an arc bypassing every
        # interior vertex: no pair can cover all start→sink paths.
        return members, []

    sslots: List[int] = []
    _first_path(graph, start, sink, scratch, me, sslots)
    if not _augment(graph, start, sink, scratch, me, sslots):
        # A single interior vertex already separates entry from sink:
        # no pair can be minimal.
        return members, []

    # The two disjoint paths, read off the units: interior vertices in
    # path order (no unit crosses a direct start→sink arc — excluded
    # above — so neither interior is empty).
    flow = scratch.flow
    paths: List[List[int]] = []
    for v in sslots:
        interior: List[int] = []
        while v != sink:
            interior.append(v)
            v = flow[v]
        paths.append(interior)
    p1, p2 = paths

    # ------------------------------------------------------------------
    # closure reachability labels over the residual graph.  Anchor node
    # of Z_k (the component behind P1's k-th saturated split arc) is
    # out(a_k), with Z_0 anchored at out(start); reaching any node of a
    # component is equivalent to reaching its anchor.  Labels are only
    # ever read at anchors, so each pass returns just those and the two
    # passes share one pair of arrays.
    # ------------------------------------------------------------------
    source = 2 * start + 1
    zseeds = [source] + [2 * a + 1 for a in p1]
    wseeds = [source] + [2 * b + 1 for b in p2]
    z1, z2 = _reach_labels(
        graph, source, sslots, zseeds, scratch, me, (zseeds, wseeds)
    )
    w1, w2 = _reach_labels(
        graph, source, sslots, wseeds, scratch, me, (zseeds, wseeds)
    )

    # P1 / P2 cut candidates (prefix maxima along both chains).
    valid_a = _valid(z1, w1, p1)
    valid_b = _valid(w2, z2, p2)
    if not valid_a or not valid_b:
        return members, []

    # ------------------------------------------------------------------
    # matching intervals by two pointers: a_i pairs with b_j iff
    # j > floor(a_i) (the closure at a_i already crossed W below j) and
    # floor(b_j) < i (symmetrically).  Both bounds are monotone, so the
    # partners of consecutive candidates form the Definition-3
    # staircase.
    # ------------------------------------------------------------------
    lo_a: List[int] = []
    hi_a: List[int] = []
    lo = 0
    hi = -1
    for i, _va, floor_w in valid_a:
        while lo < len(valid_b) and valid_b[lo][0] <= floor_w:
            lo += 1
        while hi + 1 < len(valid_b) and valid_b[hi + 1][2] < i:
            hi += 1
        if lo > hi:
            raise ChainConstructionError(
                "linear backend: cut candidate without a partner "
                "(internal invariant violation)"
            )
        lo_a.append(lo)
        hi_a.append(hi)
    if lo_a[0] != 0 or hi_a[-1] != len(valid_b) - 1:
        raise ChainConstructionError(
            "linear backend: opposite-side candidates left unmatched "
            "(internal invariant violation)"
        )

    # Inverse intervals over the candidate lists (two more pointers).
    lo_b = [0] * len(valid_b)
    hi_b = [0] * len(valid_b)
    ka = 0
    for l in range(len(valid_b)):
        while hi_a[ka] < l:
            ka += 1
        lo_b[l] = ka
    ka = len(valid_a) - 1
    for l in range(len(valid_b) - 1, -1, -1):
        while lo_a[ka] > l:
            ka -= 1
        hi_b[l] = ka

    # ------------------------------------------------------------------
    # chain-pair grouping: a new {V_1k, V_2k} starts where the interval
    # staircase breaks (no overlap with the previous candidate).
    # ------------------------------------------------------------------
    results: List[RegionPair] = []
    ka = 0
    while ka < len(valid_a):
        kb = ka
        while kb + 1 < len(valid_a) and lo_a[kb + 1] <= hi_a[kb]:
            kb += 1
        if kb + 1 < len(valid_a) and lo_a[kb + 1] != hi_a[kb] + 1:
            raise ChainConstructionError(
                "linear backend: gap in the matching staircase "
                "(internal invariant violation)"
            )
        la, lb = lo_a[ka], hi_a[kb]
        side_a = [valid_a[k][1] for k in range(ka, kb + 1)]
        side_b = [valid_b[l][1] for l in range(la, lb + 1)]
        intervals: Dict[int, Tuple[int, int]] = {}
        for k in range(ka, kb + 1):
            intervals[valid_a[k][1]] = (
                lo_a[k] - la + 1,
                hi_a[k] - la + 1,
            )
        for l in range(la, lb + 1):
            intervals[valid_b[l][1]] = (
                lo_b[l] - ka + 1,
                hi_b[l] - ka + 1,
            )
        # DOUBLEIDOM's deterministic tie-break: the pair's immediate
        # dominator is reported in ascending id order, and its first
        # element opens side 1.
        if side_a[0] < side_b[0]:
            results.append((side_a, side_b, intervals))
        else:
            results.append((side_b, side_a, intervals))
        ka = kb + 1
    return members, results


__all__ = ["ConeScratch", "region_chain_pairs"]
