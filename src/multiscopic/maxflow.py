"""Max-flow/min-cut by the Boykov-Kolmogorov search-tree algorithm.

Boykov & Kolmogorov, "An experimental comparison of min-cut/max-flow
algorithms for energy minimization in vision", PAMI 2004.  A source tree
and a sink tree grow until they touch; the path through both is augmented,
and the nodes it cuts off (orphans) are re-attached or freed.  The trees
persist across augmentations, so on 4-connected grid graphs most paths are
found by looking at a handful of arcs.

Arcs are stored as twinned pairs: arc i and its reverse i^1 live at adjacent
indices.  The arcs at the terminals fold into one residual terminal
capacity per node; the other arcs form an ArcLayout, a CSR order stable-
sorted by tail so each node scans its arcs in insertion order.  A FlowGraph
is built arc by arc and solved from zero flow.  A LayoutGraph gives whole
capacity arrays on a layout that graphs of one shape share, and may resume
from the FlowState of an earlier solve on it (Kohli & Torr, "Efficiently
solving dynamic Markov random fields using graph cuts", ICCV 2005): the
old flow is cut back to the new capacities, what no longer fits becomes
terminal excess, and the search trees are repaired where they broke.  A
fresh solve is a resume from the empty state, so both run one path.

Graph preparation is NumPy; the search runs over Python lists.  Before it,
array rounds push flow straight along every arc from a node with source
excess to a node with sink excess, each round on a conflict-free subset
(one arc per tail, then per head).  On expansion graphs that leaves fewer
paths for the search.  Every node still holding terminal excess is a root
of its tree, but only the tree nodes with a residual arc leaving their own
tree start active.  The returned source side does not depend on the order
in which flow was pushed or on the flow a solve resumed from: it is the
set of nodes the source reaches in the residual graph of any maximum flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Residual capacities at or below this are treated as saturated.
_EPS = 1e-12

# parent[] values that are not arc indices.
_TERMINAL = -1  # tree root, attached to its terminal
_ORPHAN = -2  # lost its parent arc, waiting for adoption
_FREE = -3  # in neither tree


class FlowGraph:
    """Directed flow network with a distinguished source and sink."""

    def __init__(self, num_nodes: int, source: int, sink: int):
        if num_nodes < 2:
            raise InputError("a flow graph needs at least source and sink")
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes) or source == sink:
            raise InputError(f"bad terminals {source}, {sink} for {num_nodes} nodes")
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        # (tail, head, cap, rev_cap) per add_edges call
        self._batches: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._num_arcs = 0

    def add_edges(self, u, v, cap, rev_cap=0.0) -> np.ndarray:
        """Add arcs u[i]->v[i] with twins v[i]->u[i]; scalars broadcast.

        Returns the forward arc indices (arc k's twin is k ^ 1).
        """
        u, v = np.asarray(u), np.asarray(v)
        cap = np.asarray(cap, dtype=np.float64)
        rev_cap = np.asarray(rev_cap, dtype=np.float64)
        try:
            u, v, cap, rev_cap = (a.ravel() for a in np.broadcast_arrays(u, v, cap, rev_cap))
        except ValueError as err:
            raise InputError(f"arc arrays do not broadcast: {err}") from None
        if u.size and not (np.issubdtype(u.dtype, np.integer) and np.issubdtype(v.dtype, np.integer)):
            raise InputError("arc endpoints must be integers")
        out = (u < 0) | (u >= self.num_nodes) | (v < 0) | (v >= self.num_nodes)
        if out.any():
            i = int(np.argmax(out))
            raise InputError(f"arc endpoints ({u[i]}, {v[i]}) out of range")
        loops = u == v
        if loops.any():
            raise InputError(f"self-loop at node {u[np.argmax(loops)]} is not allowed")
        if not ((cap >= 0.0).all() and (rev_cap >= 0.0).all()):
            raise InputError("capacities must be non-negative")
        if np.isinf(cap).any() or np.isinf(rev_cap).any():
            raise InputError("capacities must be finite")
        first = self._num_arcs
        self._batches.append(
            (u.astype(np.int64), v.astype(np.int64), cap.copy(), rev_cap.copy())
        )
        self._num_arcs += u.size
        return 2 * np.arange(first, self._num_arcs)

    def add_edge(self, u: int, v: int, cap: float, rev_cap: float = 0.0) -> int:
        """Add arc u->v and its twin v->u; returns the forward arc index."""
        return int(self.add_edges([u], [v], [cap], [rev_cap])[0])

    def num_arcs(self) -> int:
        return self._num_arcs

    def _layout_graph(self) -> tuple[LayoutGraph, float]:
        """This graph as a LayoutGraph of its inner arcs, and the capacity
        of its direct source-to-sink arcs.

        Terminal arcs become per-node source and sink capacities.  Arcs into
        the source or out of the sink carry no flow in a maximum flow and
        reach no node from the source, so they are dropped.
        """
        n, s, t, m = self.num_nodes, self.source, self.sink, self._num_arcs
        # all 2m arcs, each twin right after its arc
        tail = np.empty(2 * m, dtype=np.int64)
        head = np.empty(2 * m, dtype=np.int64)
        cap = np.empty(2 * m, dtype=np.float64)
        if m:
            u, v, c, r = (np.concatenate(cols) for cols in zip(*self._batches))
            tail[0::2], tail[1::2] = u, v
            head[0::2], head[1::2] = v, u
            cap[0::2], cap[1::2] = c, r
        from_s, to_t = tail == s, head == t
        src = np.zeros(n)
        np.add.at(src, head[from_s & ~to_t], cap[from_s & ~to_t])
        snk = np.zeros(n)
        np.add.at(snk, tail[to_t & ~from_s], cap[to_t & ~from_s])
        # a pair is inner iff both of its ends are
        inner = ((tail != s) & (tail != t) & (head != s) & (head != t))[0::2]
        layout = ArcLayout(n, tail[0::2][inner], head[0::2][inner])
        g = LayoutGraph(layout, cap[0::2][inner], src, snk, cap[1::2][inner])
        return g, float(cap[from_s & to_t].sum())


class ArcLayout:
    """The inner arcs of graphs that differ only in their capacities.

    Pair k joins tail[k] to head[k]: its forward arc runs tail -> head and
    its reverse arc head -> tail.  The 2m arcs are kept in CSR order,
    stable-sorted by tail so each node scans its arcs in pair order.  The
    order and its Python lists are built once per layout, not per solve.
    """

    def __init__(self, num_nodes: int, tail, head):
        tail = np.asarray(tail, dtype=np.int64)
        head = np.asarray(head, dtype=np.int64)
        if tail.shape != head.shape or tail.ndim != 1:
            raise InputError("pair tails and heads must be 1-D arrays of one length")
        if tail.size and (min(tail.min(), head.min()) < 0 or max(tail.max(), head.max()) >= num_nodes):
            raise InputError(f"pair endpoints out of range for {num_nodes} nodes")
        if (tail == head).any():
            raise InputError("a pair must join two different nodes")
        ends = np.empty(2 * tail.size, dtype=np.int64)
        ends[0::2], ends[1::2] = tail, head
        order = np.argsort(ends, kind="stable")
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        self.num_nodes = num_nodes
        self.pair_tail, self.pair_head = tail, head
        self.tail, self.head, self.sister = ends[order], ends[order ^ 1], pos[order ^ 1]
        self.forward, self.reverse = pos[0::2], pos[1::2]  # CSR index of each pair's arcs
        first = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=num_nodes), out=first[1:])
        self.lists = (first.tolist(), self.head.tolist(), self.sister.tolist())


@dataclass
class FlowState:
    """The flow and search trees a solve leaves on its layout.

    flow[k] is the net flow tail -> head on pair k; tr[i] is node i's
    residual terminal capacity (> 0 from the source, < 0 to the sink) and
    net[i] the source minus sink capacity the solve was given.  parent[i]
    is _TERMINAL for a tree root, _FREE outside both trees, otherwise the
    CSR arc from i to its tree parent; in_sink[i] is i's tree.
    """

    flow: np.ndarray  # float64, one per pair
    tr: np.ndarray  # float64, one per node
    net: np.ndarray  # float64, one per node
    parent: np.ndarray  # int32, one per node
    in_sink: np.ndarray  # bool, one per node

    @classmethod
    def empty(cls, layout: ArcLayout) -> FlowState:
        """Zero flow and no trees: a solve from it is a fresh solve."""
        n = layout.num_nodes
        return cls(np.zeros(layout.pair_tail.size), np.zeros(n), np.zeros(n),
                   np.full(n, _FREE, dtype=np.int32), np.zeros(n, dtype=bool))


def _capacities(values, size: int) -> np.ndarray:
    try:
        a = np.broadcast_to(np.asarray(values, dtype=np.float64), (size,))
    except ValueError:
        raise InputError(f"expected {size} capacities, got shape {np.shape(values)}") from None
    if not (np.isfinite(a).all() and (a >= 0.0).all()):
        raise InputError("capacities must be finite and non-negative")
    return a


class LayoutGraph:
    """A graph on an ArcLayout plus a source and a sink that have no node ids.

    cap[k] and rev_cap[k] are the capacities of pair k's forward and reverse
    arcs; source_cap[i] and sink_cap[i] those of node i's arcs from the
    source and to the sink (scalars broadcast).  resume, if given, is the
    FlowState of an earlier solve on the same layout: max_flow then starts
    from that flow and those search trees, not from zero, as in Kohli &
    Torr, "Efficiently solving dynamic Markov random fields using graph
    cuts", ICCV 2005.  The cut does not depend on where it starts.  After
    max_flow, state is the FlowState this solve leaves.
    """

    def __init__(self, layout: ArcLayout, cap, source_cap, sink_cap, rev_cap=0.0,
                 resume: FlowState | None = None):
        m, n = layout.pair_tail.size, layout.num_nodes
        self.layout = layout
        self.cap, self.rev_cap = _capacities(cap, m), _capacities(rev_cap, m)
        self.source_cap, self.sink_cap = _capacities(source_cap, n), _capacities(sink_cap, n)
        self.state = resume
        self.num_nodes = n + 2  # the terminals count, as in a FlowGraph

    def num_arcs(self) -> int:
        """Every pair, plus the terminal arcs of non-zero capacity."""
        return self.layout.pair_tail.size + int(
            np.count_nonzero(self.source_cap) + np.count_nonzero(self.sink_cap)
        )


def max_flow(g: FlowGraph | LayoutGraph) -> tuple[float, set[int] | np.ndarray]:
    """Maximum s-t flow value and the source side of a minimum cut.

    The source side is the set of nodes reachable from the source in the
    final residual graph; by max-flow/min-cut its outgoing capacity equals
    the flow value.  For a FlowGraph it is a set of node ids, the source
    included, and the graph is not modified.  For a LayoutGraph it is a
    boolean mask over the layout's nodes, and g.state becomes the
    FlowState that the solve leaves.
    """
    if isinstance(g, LayoutGraph):
        return _solve(g)
    inner, direct = g._layout_graph()
    value, in_source_tree = _solve(inner)
    side = set(np.flatnonzero(in_source_tree).tolist())
    side.add(g.source)
    return value + direct, side


def _solve(g: LayoutGraph) -> tuple[float, np.ndarray]:
    """Resume from g.state (or from zero flow) to a maximum flow; returns
    the flow value and the source-tree mask."""
    lay = g.layout
    n = lay.num_nodes
    tail, head, sister = lay.tail, lay.head, lay.sister
    old = g.state if g.state is not None else FlowState.empty(lay)

    # The old flow under the new capacities.  Flow that no longer fits a
    # pair is cut back to its capacity; what it carried stays at the tail as
    # source excess and is missing at the head as sink excess.  A changed
    # terminal capacity moves tr by the change.
    net = g.source_cap - g.sink_cap
    flow = np.clip(old.flow, -g.rev_cap, g.cap)
    spill = old.flow - flow
    tr = old.tr + (net - old.net)
    tr += np.bincount(lay.pair_tail, spill, n) - np.bincount(lay.pair_head, spill, n)
    rcap = np.empty(2 * flow.size)
    rcap[lay.forward], rcap[lay.reverse] = g.cap - flow, g.rev_cap + flow

    # Pre-push: every arc from a node with source excess to one with sink
    # excess carries min(rcap, tr[u], -tr[v]) at once.  A round takes the
    # first such arc of each tail (rows are contiguous), then the first of
    # each head, so no node and no arc pair is touched twice.
    while True:
        a = np.flatnonzero((rcap > _EPS) & (tr[tail] > _EPS) & (tr[head] < -_EPS))
        if not a.size:
            break
        a = a[np.r_[True, tail[a[1:]] != tail[a[:-1]]]]
        a = a[np.unique(head[a], return_index=True)[1]]
        u, v = tail[a], head[a]
        push = np.minimum(np.minimum(rcap[a], tr[u]), -tr[v])
        rcap[a] -= push
        rcap[sister[a]] += push
        tr[u] -= push
        tr[v] += push

    # Tree repair.  A node with terminal excess is a root of the tree its
    # sign names; one that changes tree leaves its children orphaned.  So
    # is a root left without excess, and a node whose parent arc lost its
    # residual.
    excess, to_sink = np.abs(tr) > _EPS, tr < 0.0
    moved = excess & (old.parent != _FREE) & (old.in_sink != to_sink)
    parent = np.where(excess, _TERMINAL, old.parent)
    in_sink = np.where(excess, to_sink, old.in_sink)
    kid = np.flatnonzero(parent >= 0)
    up = parent[kid]
    held = np.where(in_sink[kid], rcap[up], rcap[sister[up]]) > _EPS
    orphans = np.concatenate(
        [np.flatnonzero((parent == _TERMINAL) & ~excess), kid[~held | moved[head[up]]]]
    )
    parent[orphans] = _ORPHAN

    # Active: every tree node with a residual arc leaving its own tree.  On
    # a fresh solve those are the roots that can grow.
    in_src, in_snk = (parent != _FREE) & ~in_sink, (parent != _FREE) & in_sink
    grows = (in_src[tail] & ~in_src[head] & (rcap > _EPS)) | (
        in_snk[tail] & ~in_snk[head] & (rcap[sister] > _EPS)
    )
    start = np.zeros(n, dtype=bool)
    start[tail[grows]] = True

    # A kept node's depth is not known; n never grows toward a root.
    dist = np.where(parent == _TERMINAL, 1, n)
    first, head_l, sister_l = lay.lists
    rcap_l, tr_l, parent_l, in_sink_l = rcap.tolist(), tr.tolist(), parent.tolist(), in_sink.tolist()
    _boykov_kolmogorov(
        first, head_l, sister_l, rcap_l, tr_l, parent_l, in_sink_l, dist.tolist(),
        np.flatnonzero(start).tolist(),
        orphans.tolist(),
    )

    tr = np.array(tr_l, dtype=np.float64)
    parent = np.array(parent_l, dtype=np.int32)
    in_sink = np.array(in_sink_l, dtype=bool)
    flow = np.array(rcap_l, dtype=np.float64)[lay.reverse] - g.rev_cap
    g.state = FlowState(flow, tr, net, parent, in_sink)
    # Each node sends source_cap minus its unused source residual.
    value = float((g.source_cap - np.maximum(tr, 0.0)).sum())
    return value, (parent != _FREE) & ~in_sink


def _boykov_kolmogorov(first, head, sister, rcap, tr, parent, in_sink, dist, start, orphans):
    """Augment to a maximum flow, updating rcap, tr, parent and in_sink.

    CSR arc a runs from its row node to head[a] with residual rcap[a];
    sister[a] is its reverse.  tr[i] is node i's residual terminal
    capacity.  parent[i] is _TERMINAL, _ORPHAN, _FREE or the arc from i to
    its tree parent, i.e. the reverse of a source-tree arc and the
    sink-tree arc itself; in_sink[i] is i's tree.  dist[i] is 1 for a root
    and, along any path to a root, never grows toward the root.  The
    orphans are adopted first; the nodes in start are the active ones.
    """
    eps = _EPS
    n = len(tr)
    stamp = [0] * n  # time at which dist[i] was last known to be exact
    active = [False] * n
    queue = deque(start)
    for i in start:
        active[i] = True
    orphans = deque(orphans)
    time = 1  # no stamp is current yet
    current = -1  # node to grow again after an augmentation through it

    while True:
        # -- adoption: re-attach each orphan to its own tree or free it -----
        while orphans:
            i = orphans.popleft()
            sink_side = in_sink[i]
            best_arc, best_d = -1, n + 2
            for a0 in range(first[i], first[i + 1]):
                # the candidate tree arc must carry flow toward i's terminal
                if rcap[a0 if sink_side else sister[a0]] <= eps:
                    continue
                j = head[a0]
                if in_sink[j] != sink_side or parent[j] == _FREE:
                    continue
                # walk to j's root; a node stamped this round knows its depth
                d = 0
                while True:
                    if stamp[j] == time:
                        d += dist[j]
                        break
                    a = parent[j]
                    d += 1
                    if a == _TERMINAL:
                        stamp[j], dist[j] = time, 1
                        break
                    if a == _ORPHAN:
                        d = -1
                        break
                    j = head[a]
                if d < 0:
                    continue
                if d < best_d:
                    best_arc, best_d = a0, d
                j = head[a0]
                while stamp[j] != time:
                    stamp[j], dist[j] = time, d
                    d -= 1
                    j = head[parent[j]]
            if best_arc >= 0:
                parent[i] = best_arc
                stamp[i], dist[i] = time, best_d + 1
                continue
            parent[i] = _FREE
            for a0 in range(first[i], first[i + 1]):
                j = head[a0]
                a = parent[j]
                if in_sink[j] != sink_side or a == _FREE:
                    continue
                if rcap[a0 if sink_side else sister[a0]] > eps and not active[j]:
                    active[j] = True
                    queue.append(j)
                if a >= 0 and head[a] == i:
                    parent[j] = _ORPHAN
                    orphans.append(j)

        # -- pick an active node -------------------------------------------
        i = current
        if i >= 0:
            active[i] = False
            if parent[i] == _FREE:
                i = -1
        if i < 0:
            while queue:
                i = queue.popleft()
                active[i] = False
                if parent[i] != _FREE:
                    break
                i = -1
            if i < 0:
                break

        # -- growth: claim free neighbors until the other tree is touched --
        bridge = -1  # arc from a source-tree node to a sink-tree node
        ts_i, di, d_next = stamp[i], dist[i], dist[i] + 1
        if not in_sink[i]:
            for a in range(first[i], first[i + 1]):
                if rcap[a] > eps:
                    j = head[a]
                    if parent[j] == _FREE:
                        in_sink[j] = False
                        parent[j] = sister[a]
                        stamp[j], dist[j] = ts_i, d_next
                        if not active[j]:
                            active[j] = True
                            queue.append(j)
                    elif in_sink[j]:
                        bridge = a
                        break
                    elif stamp[j] <= ts_i and dist[j] > di:
                        parent[j] = sister[a]
                        stamp[j], dist[j] = ts_i, d_next
        else:
            for a in range(first[i], first[i + 1]):
                b = sister[a]
                if rcap[b] > eps:
                    j = head[a]
                    if parent[j] == _FREE:
                        in_sink[j] = True
                        parent[j] = b
                        stamp[j], dist[j] = ts_i, d_next
                        if not active[j]:
                            active[j] = True
                            queue.append(j)
                    elif not in_sink[j]:
                        bridge = b
                        break
                    elif stamp[j] <= ts_i and dist[j] > di:
                        parent[j] = b
                        stamp[j], dist[j] = ts_i, d_next
        time += 1
        if bridge < 0:
            current = -1
            continue
        active[i] = True
        current = i

        # -- augmentation along source root .. bridge .. sink root ---------
        p, q = head[sister[bridge]], head[bridge]
        push = rcap[bridge]
        j = p
        while parent[j] != _TERMINAL:
            a = parent[j]
            if rcap[sister[a]] < push:
                push = rcap[sister[a]]
            j = head[a]
        if tr[j] < push:
            push = tr[j]
        j = q
        while parent[j] != _TERMINAL:
            a = parent[j]
            if rcap[a] < push:
                push = rcap[a]
            j = head[a]
        if -tr[j] < push:
            push = -tr[j]

        rcap[bridge] -= push
        rcap[sister[bridge]] += push
        j = p
        while True:
            a = parent[j]
            if a == _TERMINAL:
                tr[j] -= push
                if tr[j] <= eps:
                    parent[j] = _ORPHAN
                    orphans.appendleft(j)
                break
            b = sister[a]
            rcap[a] += push
            rcap[b] -= push
            if rcap[b] <= eps:
                parent[j] = _ORPHAN
                orphans.appendleft(j)
            j = head[a]
        j = q
        while True:
            a = parent[j]
            if a == _TERMINAL:
                tr[j] += push
                if tr[j] >= -eps:
                    parent[j] = _ORPHAN
                    orphans.appendleft(j)
                break
            rcap[sister[a]] += push
            rcap[a] -= push
            if rcap[a] <= eps:
                parent[j] = _ORPHAN
                orphans.appendleft(j)
            j = head[a]
