"""Max-flow/min-cut by the Boykov-Kolmogorov search-tree algorithm.

Boykov & Kolmogorov, "An experimental comparison of min-cut/max-flow
algorithms for energy minimization in vision", PAMI 2004.  A source tree
and a sink tree grow until they touch; the path through both is augmented,
and the nodes it cuts off (orphans) are re-attached or freed.  The trees
persist across augmentations, so on 4-connected grid graphs most paths are
found by looking at a handful of arcs.

Arcs are stored as twinned pairs: arc i and its reverse i^1 live at adjacent
indices.  max_flow folds the arcs at the terminals into one residual
terminal capacity per node and runs on a CSR layout of the other arcs,
stable-sorted by tail so each node scans its arcs in insertion order.

Graph preparation is NumPy; the search runs over Python lists.  Before it,
array rounds push flow straight along every arc from a node with source
excess to a node with sink excess, each round on a conflict-free subset
(one arc per tail, then per head).  On expansion graphs that leaves fewer
paths for the search.  Every node still holding terminal excess is a root
of its tree, but only the roots with a residual arc leaving their own tree
start active.  The returned source side does not depend on the order in
which flow was pushed: it is the set of nodes the source reaches in the
residual graph of any maximum flow.
"""

from __future__ import annotations

from collections import deque

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

    def _twinned_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tail, head, cap) of all 2 * num_arcs() arcs, twins interleaved."""
        m = self._num_arcs
        tail = np.empty(2 * m, dtype=np.int64)
        head = np.empty(2 * m, dtype=np.int64)
        cap = np.empty(2 * m, dtype=np.float64)
        if m:
            u, v, c, r = (np.concatenate(cols) for cols in zip(*self._batches))
            tail[0::2], tail[1::2] = u, v
            head[0::2], head[1::2] = v, u
            cap[0::2], cap[1::2] = c, r
        return tail, head, cap


def max_flow(g: FlowGraph) -> tuple[float, set[int]]:
    """Maximum s-t flow value and the source side of a minimum cut.

    The source side is the set of nodes reachable from the source in the
    final residual graph; by max-flow/min-cut its outgoing capacity equals
    the flow value.  The graph itself is not modified.
    """
    n, s, t = g.num_nodes, g.source, g.sink
    tail, head, cap = g._twinned_arcs()

    # Terminal arcs become one residual capacity per node: tr > 0 from the
    # source, tr < 0 to the sink.  Arcs into the source or out of the sink
    # carry no flow in a maximum flow and reach no node from the source.
    from_s, to_t = tail == s, head == t
    flow = float(cap[from_s & to_t].sum())
    src = np.zeros(n)
    np.add.at(src, head[from_s & ~to_t], cap[from_s & ~to_t])
    snk = np.zeros(n)
    np.add.at(snk, tail[to_t & ~from_s], cap[to_t & ~from_s])
    flow += float(np.minimum(src, snk).sum())
    tr = src - snk

    # Inner arcs keep their twin pairing: a pair is inner iff both ends are.
    inner = (tail != s) & (tail != t) & (head != s) & (head != t)
    tail, head, cap = tail[inner], head[inner], cap[inner]
    order = np.argsort(tail, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=first[1:])

    tail, head, rcap, sister = tail[order], head[order], cap[order], pos[order ^ 1]

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
        flow += float(push.sum())

    # Every node with terminal excess is a tree root, but only one with a
    # residual arc leaving its own tree can grow, so only those start active.
    is_src, is_snk = tr > _EPS, tr < -_EPS
    grows = (is_src[tail] & ~is_src[head] & (rcap > _EPS)) | (
        is_snk[tail] & ~is_snk[head] & (rcap[sister] > _EPS)
    )
    start = np.zeros(n, dtype=bool)
    start[tail[grows]] = True
    flow, in_source_tree = _boykov_kolmogorov(
        flow,
        first.tolist(),
        head.tolist(),
        rcap.tolist(),
        sister.tolist(),
        tr.tolist(),
        np.flatnonzero(is_src | is_snk).tolist(),
        np.flatnonzero(start).tolist(),
    )
    side = set(np.flatnonzero(in_source_tree).tolist())
    side.add(s)
    return flow, side


def _boykov_kolmogorov(flow, first, head, rcap, sister, tr, roots, start):
    """Augment to a maximum flow; returns (flow, source-tree mask).

    CSR arc a runs from its row node to head[a] with residual rcap[a];
    sister[a] is its reverse.  tr[i] is node i's residual terminal
    capacity.  parent[i] is the arc from i to its tree parent, i.e. the
    reverse of a source-tree arc and the sink-tree arc itself.  Every node
    in roots is a tree root; those in start are the initially active ones.
    All lists are updated in place.
    """
    eps = _EPS
    n = len(tr)
    parent = [_FREE] * n
    in_sink = [False] * n
    stamp = [0] * n  # time at which dist[i] was last known to be exact
    dist = [0] * n  # tree depth of i (roots are 1)
    active = [False] * n
    queue = deque(start)
    for i in roots:
        parent[i] = _TERMINAL
        in_sink[i] = tr[i] < 0.0
        dist[i] = 1
    for i in start:
        active[i] = True
    orphans: deque[int] = deque()
    time = 0
    current = -1  # node to grow again after an augmentation through it

    while True:
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
        flow += push

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

    in_source_tree = np.array(parent) != _FREE
    in_source_tree &= ~np.array(in_sink, dtype=bool)
    return flow, in_source_tree
