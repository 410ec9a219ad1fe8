"""Max-flow on grid graphs against an Edmonds-Karp reference, the arc
checks, and solves that resume from an earlier flow."""

import numpy as np
import pytest

from multiscopic import FlowGraph, InputError, max_flow
from multiscopic.maxflow import ArcLayout, LayoutGraph

from oracles import edmonds_karp_oracle


def _grid_graph(rng, h, w):
    """4-connected h x w grid plus source and sink: (n, s, t, arcs).

    Capacities are small integers, so ties and zero capacities are common.
    Neighbor pairs get one or two parallel arcs in either direction, half of
    them two-way; some arcs point into the source or out of the sink.
    """
    s, t = h * w, h * w + 1
    arcs = []

    def cap(top=4):
        return float(rng.integers(0, top))

    for y in range(h):
        for x in range(w):
            p = y * w + x
            for q in ([p + 1] if x + 1 < w else []) + ([p + w] if y + 1 < h else []):
                for _ in range(int(rng.integers(1, 3))):
                    u, v = (p, q) if rng.random() < 0.5 else (q, p)
                    arcs.append((u, v, cap(), cap() if rng.random() < 0.5 else 0.0))
            if rng.random() < 0.8:
                arcs.append((s, p, cap(6), 0.0))
            if rng.random() < 0.8:
                arcs.append((p, t, cap(6), 0.0))
            if rng.random() < 0.1:
                arcs.append((p, s, cap(), cap()))
            if rng.random() < 0.1:
                arcs.append((t, p, cap(), cap()))
    if rng.random() < 0.3:
        arcs.append((s, t, cap(), cap()))
    return h * w + 2, s, t, arcs


def _pre_push_graphs(rng):
    """Graphs whose terminal excesses meet across inner arcs, so max_flow's
    array pre-push does much of the work: (n, s, t, arcs) each.

    * a fan-in: many nodes with source excess, each with an arc into one
      node with sink excess, plus arcs between the excess nodes;
    * the reverse fan-out from one source-excess node;
    * a grid of pairs u->v whose arc is smaller than both excesses, which
      leaves excess on both sides, so the search has to route the rest
      through the neighbors.
    """
    graphs = []
    for fan_in in (True, False):
        k = int(rng.integers(3, 12))
        hub, s, t = k, k + 1, k + 2
        big, small = float(rng.integers(1, 4 * k)), float(rng.integers(0, 3))
        if fan_in:
            arcs = [(hub, t, big, 0.0), (s, hub, small, 0.0)]
        else:
            arcs = [(s, hub, big, 0.0), (hub, t, small, 0.0)]
        for i in range(k):
            c, r = float(rng.integers(1, 5)), float(rng.integers(0, 3))
            excess = float(rng.integers(1, 6))
            if fan_in:
                arcs += [(s, i, excess, 0.0), (i, hub, c, r)]
            else:
                arcs += [(i, t, excess, 0.0), (hub, i, c, r)]
            if i and rng.random() < 0.5:
                arcs.append((i - 1, i, float(rng.integers(0, 3)), float(rng.integers(0, 3))))
        graphs.append((k + 3, s, t, arcs))
    h, w = 4, 6
    s, t = h * w, h * w + 1
    arcs = []
    for y in range(h):
        for x in range(w):
            p = y * w + x
            excess = float(rng.integers(3, 8))
            arcs.append((s, p, excess, 0.0) if (x + y) % 2 == 0 else (p, t, excess, 0.0))
            for q in ([p + 1] if x + 1 < w else []) + ([p + w] if y + 1 < h else []):
                arcs.append((p, q, float(rng.integers(0, 3)), float(rng.integers(0, 3))))
    graphs.append((h * w + 2, s, t, arcs))
    return graphs


def _solve(n, s, t, arcs):
    g = FlowGraph(n, s, t)
    for u, v, c, r in arcs:
        g.add_edge(u, v, c, r)
    return max_flow(g)


def test_grid_matches_edmonds_karp():
    for trial in range(60):
        rng = np.random.default_rng(np.random.SeedSequence([4401, trial]))
        graphs = [_grid_graph(rng, 6, 6)] + _pre_push_graphs(rng)
        for case, (n, s, t, arcs) in enumerate(graphs):
            value, side = _solve(n, s, t, arcs)
            want_value, want_side = edmonds_karp_oracle(n, arcs, s, t)
            assert value == want_value, (trial, case)
            assert side == want_side, (trial, case)


@pytest.mark.parametrize("h, w", [(1, 1), (1, 7), (7, 1), (2, 3), (5, 4)])
def test_grid_shapes_match_edmonds_karp(h, w):
    for trial in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([4402, h, w, trial]))
        n, s, t, arcs = _grid_graph(rng, h, w)
        value, side = _solve(n, s, t, arcs)
        assert (value, side) == edmonds_karp_oracle(n, arcs, s, t)


def test_max_flow_leaves_graph_unchanged():
    rng = np.random.default_rng(4404)
    n, s, t, arcs = _grid_graph(rng, 4, 4)
    g = FlowGraph(n, s, t)
    for u, v, c, r in arcs:
        g.add_edge(u, v, c, r)
    assert max_flow(g) == max_flow(g)


@pytest.mark.parametrize(
    "u, v, cap, rev_cap",
    [
        ([0, 1], [1, 1], [1.0, 1.0], 0.0),  # self-loop
        ([0, 1], [1, 2], [1.0, -1.0], 0.0),  # negative capacity
        ([0, 1], [1, 2], [1.0, 1.0], [0.0, -1.0]),  # negative reverse capacity
        ([0, 1], [1, 2], [1.0, np.inf], 0.0),  # infinite capacity
        ([0, 1], [1, 2], [1.0, 1.0], [np.inf, 0.0]),  # infinite reverse capacity
        ([0, 1], [1, 2], [np.nan, 1.0], 0.0),  # NaN capacity
        ([0, 1], [1, 5], [1.0, 1.0], 0.0),  # endpoint past the last node
        ([0, -1], [1, 2], [1.0, 1.0], 0.0),  # negative endpoint
        ([0, 1], [1, 2], [1.0, -np.inf], 0.0),  # negative infinite capacity
        ([0.0, 1.0], [1.0, 2.0], [1.0, 1.0], 0.0),  # non-integer endpoints
        ([0, 1], [1, 2], [1.0, 1.0], [0.0, np.nan]),  # NaN reverse capacity
    ],
)
def test_add_edges_rejects_bad_arcs(u, v, cap, rev_cap):
    # the arcs go in one add_edge at a time; the bad one raises and leaves
    # the graph with the arcs before it
    g = FlowGraph(3, 0, 2)
    rev_cap = np.broadcast_to(rev_cap, len(cap))
    with pytest.raises(InputError):
        for k, arc in enumerate(zip(u, v, cap, rev_cap)):
            assert g.add_edge(*arc) == 2 * k
    assert g.num_arcs() == k


@pytest.mark.parametrize(
    "tail, head",
    [
        ([0, 1], [1, 2, 0]),  # lengths differ
        ([[0, 1]], [[1, 2]]),  # not 1-D
        ([0.0, 1.0], [1.0, 2.0]),  # non-integer endpoints
        ([0, 1], [1, 3]),  # endpoint past the last node
        ([0, 1], [1, 1]),  # self-loop
    ],
)
def test_arc_layout_rejects_bad_pairs(tail, head):
    with pytest.raises(InputError):
        ArcLayout(3, np.array(tail), np.array(head))


# ------------------------------------------------ resumed solves on a layout


def _grid_layout(rng, h, w):
    """4-neighbor pairs of an h x w grid, each one or two times, in random
    directions."""
    pairs = []
    for y in range(h):
        for x in range(w):
            p = y * w + x
            for q in ([p + 1] if x + 1 < w else []) + ([p + w] if y + 1 < h else []):
                for _ in range(int(rng.integers(1, 3))):
                    pairs.append((p, q) if rng.random() < 0.5 else (q, p))
    tail, head = (np.array(col) for col in zip(*pairs))
    return ArcLayout(h * w, tail, head)


def _changed(rng, step, caps, flow):
    """The capacities after one change of kind step % 4 on a random subset:
    increases, decreases below the current flow, terminal sign flips, or
    zeros."""
    cap, rev, src, snk = (c.copy() for c in caps)
    pairs = rng.random(cap.size) < 0.4
    nodes = rng.random(src.size) < 0.4
    kind = step % 4
    if kind == 0:
        cap[pairs] += rng.integers(1, 4, pairs.sum())
        rev[pairs] += rng.integers(0, 2, pairs.sum())
        src[nodes] += rng.integers(0, 4, nodes.sum())
        snk[nodes] += rng.integers(0, 2, nodes.sum())
    elif kind == 1:
        # below the flow the last solve left, in whichever direction it runs
        fwd, back = pairs & (flow > 0), pairs & (flow < 0)
        cap[fwd] = np.floor(flow[fwd] * rng.random(fwd.sum()))
        rev[back] = np.floor(-flow[back] * rng.random(back.sum()))
        src[nodes] = np.floor(src[nodes] * rng.random(nodes.sum()))
    elif kind == 2:
        src[nodes], snk[nodes] = snk[nodes] + rng.integers(0, 2, nodes.sum()), src[nodes]
    else:
        cap[pairs] = rev[pairs] = 0.0
        src[nodes] = snk[nodes] = 0.0
    return cap, rev, src, snk


def _oracle(layout, caps):
    cap, rev, src, snk = caps
    n = layout.num_nodes
    s, t = n, n + 1
    arcs = [(int(u), int(v), float(c), float(r))
            for u, v, c, r in zip(layout.pair_tail, layout.pair_head, cap, rev)]
    arcs += [(s, i, float(c), 0.0) for i, c in enumerate(src) if c]
    arcs += [(i, t, float(c), 0.0) for i, c in enumerate(snk) if c]
    return edmonds_karp_oracle(n + 2, arcs, s, t)


def test_resumed_solves_match_edmonds_karp():
    # each step changes the capacities of one grid and resumes from the flow
    # and search trees of the step before; value and minimal source set must
    # be those of a solve from scratch, after every step
    for trial in range(400):
        rng = np.random.default_rng(np.random.SeedSequence([4405, trial]))
        h, w = (int(v) for v in rng.integers(2, 5, size=2))
        layout = _grid_layout(rng, h, w)
        m, n = layout.pair_tail.size, layout.num_nodes
        caps = (
            rng.integers(0, 4, m).astype(float),
            np.where(rng.random(m) < 0.5, rng.integers(0, 4, m), 0).astype(float),
            np.where(rng.random(n) < 0.8, rng.integers(0, 6, n), 0).astype(float),
            np.where(rng.random(n) < 0.8, rng.integers(0, 6, n), 0).astype(float),
        )
        state = None
        for step in range(9):
            if step:
                caps = _changed(rng, int(rng.integers(4)), caps, state.flow)
            cap, rev, src, snk = caps
            g = LayoutGraph(layout, cap, src, snk, rev, resume=state)
            value, mask = max_flow(g)
            want_value, want_side = _oracle(layout, caps)
            assert value == want_value, (trial, step)
            assert set(np.flatnonzero(mask).tolist()) | {n} == want_side, (trial, step)
            state = g.state


def test_resume_keeps_the_state_it_started_from():
    # a state can be resumed from twice: max_flow leaves a new state and
    # does not write into the one it was given
    rng = np.random.default_rng(4406)
    layout = _grid_layout(rng, 3, 4)
    m, n = layout.pair_tail.size, layout.num_nodes
    first = LayoutGraph(layout, rng.integers(0, 4, m), rng.integers(0, 6, n), rng.integers(0, 6, n))
    max_flow(first)
    kept = [a.copy() for a in vars(first.state).values()]
    cap, src, snk = rng.integers(0, 4, m), rng.integers(0, 6, n), rng.integers(0, 6, n)
    a = max_flow(LayoutGraph(layout, cap, src, snk, resume=first.state))
    b = max_flow(LayoutGraph(layout, cap, src, snk, resume=first.state))
    for before, after in zip(kept, vars(first.state).values()):
        np.testing.assert_array_equal(before, after)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])


@pytest.mark.parametrize(
    "cap, src, snk",
    [
        ([1.0, -1.0], 0.0, 0.0),  # negative pair capacity
        ([1.0, 1.0], [0.0, 0.0, np.inf], 0.0),  # infinite terminal capacity
        ([1.0, np.nan], 0.0, 0.0),  # NaN pair capacity
        ([1.0, 1.0, 1.0], 0.0, 0.0),  # one capacity too many
    ],
)
def test_layout_graph_rejects_bad_capacities(cap, src, snk):
    layout = ArcLayout(3, [0, 1], [1, 2])
    with pytest.raises(InputError):
        LayoutGraph(layout, np.array(cap), src, snk)
