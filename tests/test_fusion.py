"""Cost volume fusion strategies and winner-take-all extraction."""

import itertools

import numpy as np
import pytest

from multiscopic import (
    LARGE_COST,
    CostVolume,
    FusionStrategy,
    InputError,
    fuse,
    fuse_slices,
    load_volume,
    save_volume,
    wta_disparity,
    wta_slices,
)
from multiscopic import fusion
from multiscopic.cli import run

from oracles import heuristic_oracle, wta_reference


def _vol(arr, d_min=1):
    arr = np.asarray(arr, dtype=np.float32)
    return CostVolume(arr, d_min=d_min, d_max=d_min + arr.shape[0] - 1)


def _cell_vols(*values):
    return [_vol(np.full((1, 1, 1), v)) for v in values]


def _fused_cell(strategy, *values, **kw):
    return float(fuse(_cell_vols(*values), strategy, **kw).costs[0, 0, 0])


# ------------------------------------------------------------------ examples


def test_fusion_hand_examples():
    vals = (3.0, 1.0, 4.0, 2.0)
    assert _fused_cell(FusionStrategy.MIN, *vals) == 1.0
    assert _fused_cell(FusionStrategy.MEAN, *vals) == 2.5
    # sorted: 1,2,3,4; 3 > 3*2 is false -> mean of smallest three
    assert _fused_cell(FusionStrategy.HEURISTIC, *vals) == 2.0


def test_fusion_heuristic_outlier_branch():
    # sorted: 1,2,10,11; 10 > 3*2 -> mean of smallest two
    assert _fused_cell(FusionStrategy.HEURISTIC, 1.0, 2.0, 10.0, 11.0) == 1.5


def test_fusion_heuristic_two_volumes_takes_smaller():
    assert _fused_cell(FusionStrategy.HEURISTIC, 5.0, 3.0) == 3.0


def test_fusion_single_volume_identity():
    rng = np.random.default_rng(3)
    costs = rng.uniform(0, 10, size=(3, 4, 5)).astype(np.float32)
    for strategy in FusionStrategy:
        out = fuse([_vol(costs)], strategy)
        np.testing.assert_array_equal(out.costs, costs)
        assert out.costs is not costs  # defensive copy


def test_fusion_heuristic_factor_configurable():
    # factor large enough: outlier branch never fires
    assert _fused_cell(FusionStrategy.HEURISTIC, 1.0, 2.0, 10.0, 11.0, heuristic_factor=1e9) == pytest.approx(
        13.0 / 3.0
    )
    # factor below ratio: fires
    assert _fused_cell(FusionStrategy.HEURISTIC, 1.0, 2.0, 7.0, heuristic_factor=3.0) == pytest.approx(1.5)


def test_fusion_permutation_invariance():
    rng = np.random.default_rng(4)
    vols = [rng.uniform(0, 50, size=(2, 3, 3)).astype(np.float32) for _ in range(4)]
    for strategy in FusionStrategy:
        a = fuse([_vol(v) for v in vols], strategy).costs
        b = fuse([_vol(v) for v in reversed(vols)], strategy).costs
        np.testing.assert_array_equal(a, b)


def test_fusion_ordering_invariant_random():
    rng = np.random.default_rng(5)
    vols = [_vol(rng.uniform(0, 100, size=(3, 8, 8)).astype(np.float32)) for _ in range(4)]
    mn = fuse(vols, FusionStrategy.MIN).costs
    he = fuse(vols, FusionStrategy.HEURISTIC).costs
    me = fuse(vols, FusionStrategy.MEAN).costs
    assert (mn <= he).all()
    assert (he <= me).all()


def test_fusion_heuristic_matches_scalar_rule():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        tuples = rng.uniform(0, 20, size=(50, n))
        got = fuse(
            [_vol(tuples[:, i].reshape(-1, 1, 1).astype(np.float32)) for i in range(n)],
            FusionStrategy.HEURISTIC,
        ).costs.reshape(-1)
        want = [heuristic_oracle(t) for t in tuples]
        np.testing.assert_allclose(got, np.asarray(want, dtype=np.float32), rtol=1e-6, atol=1e-5)


def test_fusion_sentinels_participate():
    # one good view and one off-frame view must keep the good cost usable
    assert _fused_cell(FusionStrategy.HEURISTIC, 7.0, float(LARGE_COST)) == 7.0
    assert _fused_cell(FusionStrategy.MIN, 7.0, float(LARGE_COST)) == 7.0
    # three views, one sentinel outlier -> mean of two good ones
    assert _fused_cell(FusionStrategy.HEURISTIC, 4.0, 6.0, float(LARGE_COST)) == 5.0
    # all sentinels stay huge so WTA can flag the pixel invalid
    assert _fused_cell(FusionStrategy.MIN, float(LARGE_COST), float(LARGE_COST)) >= float(LARGE_COST)


def test_fusion_input_validation():
    with pytest.raises(InputError):
        fuse([], FusionStrategy.MEAN)
    a = _vol(np.zeros((2, 2, 2), dtype=np.float32))
    b = _vol(np.zeros((2, 2, 3), dtype=np.float32))
    with pytest.raises(InputError):
        fuse([a, b], FusionStrategy.MEAN)
    c = _vol(np.zeros((2, 2, 2), dtype=np.float32), d_min=2)
    with pytest.raises(InputError):
        fuse([a, c], FusionStrategy.MEAN)
    with pytest.raises(InputError):
        fuse([a, a], FusionStrategy.HEURISTIC, heuristic_factor=0.0)
    for factor in (np.inf, -np.inf, np.nan):
        with pytest.raises(InputError, match="heuristic_factor"):
            fuse([a, a, a], FusionStrategy.HEURISTIC, heuristic_factor=factor)
    for vols in ([a], [a, a], [a, a, a]):  # checked before any volume is read
        with pytest.raises(InputError, match="unknown fusion strategy"):
            fuse(vols, "mean")


def _sort_reference(stack, strategy, factor):
    """Fusion written as one stable sort over the whole float64 stack.

    kind="stable" is needed: the default kind may dispatch to a SIMD sort
    that reorders equal values, e.g. -0.0 and +0.0 among four or more.
    """
    n = stack.shape[0]
    if n == 1:
        return stack[0].copy()
    srt = np.sort(stack.astype(np.float64), axis=0, kind="stable")
    if strategy is FusionStrategy.MIN or (strategy is FusionStrategy.HEURISTIC and n == 2):
        fused = srt[0]
    elif strategy is FusionStrategy.MEAN:
        total = srt[0].copy()
        for i in range(1, n):
            total += srt[i]
        fused = total / n
    else:
        pair = srt[0] + srt[1]
        triple = pair + srt[2]
        fused = np.where(srt[2] > factor * srt[1], pair / 2.0, triple / 3.0)
    return fused.astype(np.float32)


# the special values a cost may hold
_SPECIALS = [np.inf, 0.0, float(LARGE_COST), 1.0, 2.0]


def _slice_lists(stack):
    """A (n, D, H, W) stack as fuse_slices reads it: per disparity, a list
    of copies of the n views' slices."""
    return ([row.copy() for row in stack[:, k]] for k in range(stack.shape[1]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("strategy", list(FusionStrategy))
def test_fusion_bytes_match_stable_sort_reference(n, strategy):
    # every ordered n-tuple of the special values, so each pair of them
    # (+0.0 and +inf, LARGE_COST and +inf, ...) meets in both input orders
    cells = np.array(list(itertools.product(_SPECIALS, repeat=n)), dtype=np.float32).T
    stack = np.stack([cells, cells[:, ::-1] * np.float32(3.0)], axis=1)  # (n, 2, cells)
    stack = stack.reshape(n, 2, 1, -1)
    for factor in (3.0, 0.5):
        got = fuse([_vol(v) for v in stack], strategy, heuristic_factor=factor).costs
        want = _sort_reference(stack, strategy, factor)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("strategy", list(FusionStrategy))
def test_fusion_bytes_match_stable_sort_reference_with_ties(n, strategy):
    # full-size slices whose costs come from a few integer levels, so most
    # cells hold ties, with LARGE_COST cells and -0.0 cells among them: the
    # first slice read is refused for its -0.0, and with +0.0 in place of
    # -0.0 the slices fuse into the reference's bits
    rng = np.random.default_rng(60 + n)
    levels = np.array([-0.0, 0.0, 1.0, 2.0, 5.0, 7.0, LARGE_COST], dtype=np.float32)
    stack = levels[rng.choice(len(levels), size=(n, 3, 64, 72), p=[0.1, 0.1, 0.2, 0.2, 0.2, 0.1, 0.1])]
    with pytest.raises(InputError, match="fusion slice 0, view 0: "):
        next(fuse_slices(_slice_lists(stack), strategy))
    stack += np.float32(0.0)
    for factor in (3.0, 0.5, 1e308):
        got = fuse([_vol(v) for v in stack], strategy, heuristic_factor=factor).costs
        with np.errstate(over="ignore"):
            want = _sort_reference(stack, strategy, factor)
        assert got.tobytes() == want.tobytes()


_CLEAN_LEVELS = np.array(
    [0.0, 1.0, 2.0, 5.0, 7.0, LARGE_COST, np.inf, np.finfo(np.float32).max], dtype=np.float32
)


def _clean_stack(n, seed):
    """(n, 3, 64, 72) costs drawn from _CLEAN_LEVELS: every cost in
    [+0.0, +inf], so the slices take the min/max ordering."""
    rng = np.random.default_rng(seed)
    return _CLEAN_LEVELS[rng.integers(0, len(_CLEAN_LEVELS), size=(n, 3, 64, 72))]


def _assert_fuse_matches_reference(stack, strategy, factor):
    got = fuse([_vol(v) for v in stack], strategy, heuristic_factor=factor).costs
    with np.errstate(over="ignore"):
        want = _sort_reference(stack, strategy, factor)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("strategy", list(FusionStrategy))
def test_fusion_bytes_match_stable_sort_reference_on_clean_slices(n, strategy):
    # ties everywhere, +inf and the float32 maximum next to LARGE_COST, and
    # no -0.0, NaN or negative cost anywhere
    stack = _clean_stack(n, 80 + n)
    for factor in (3.0, 0.5, 1e308):
        _assert_fuse_matches_reference(stack, strategy, factor)


def _quiet_nan(payload):
    return np.array([0x7FC00000 | payload], dtype=np.uint32).view(np.float32)[0]


# one cell per case in an otherwise clean slice, refused by the slice and
# view that hold it; the min/max ordering would sort -0.0 and a negative
# cost last, and two NaNs by payload
@pytest.mark.parametrize("strategy, cell, view", [
    (FusionStrategy.MIN, [1.0, -0.0, 0.0], 1),
    (FusionStrategy.MIN, [2.0, -3.0, 1.0], 1),
    (FusionStrategy.MEAN, [_quiet_nan(2), 1.0, _quiet_nan(1)], 0),
], ids=["negative-zero", "negative", "nan-payloads"])
def test_fusion_one_unclean_cell_is_refused(strategy, cell, view):
    stack = _clean_stack(len(cell), 90)
    stack[:, 1, 10, 20] = cell
    fused = fuse_slices(_slice_lists(stack), strategy)
    next(fused)
    with pytest.raises(InputError, match=f"fusion slice 1, view {view}: "):
        next(fused)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("strategy", list(FusionStrategy))
def test_fuse_command_refuses_negative_zero_volumes(tmp_path, capsys, n, strategy):
    # .mcv files holding -0.0 costs: the reader refuses the first one, and
    # with +0.0 in place of -0.0 the command writes the reference's bits
    rng = np.random.default_rng(70 + n)
    levels = np.array([-0.0, 0.0, 1.0, 2.0, 5.0, LARGE_COST], dtype=np.float32)
    stack = levels[rng.choice(len(levels), size=(n, 4, 24, 32), p=[0.2, 0.2, 0.2, 0.2, 0.1, 0.1])]
    paths = [str(tmp_path / f"v{i}.mcv") for i in range(n)]
    for path, costs in zip(paths, stack):
        save_volume(path, _vol(costs + np.float32(0.0)))
        with open(path, "r+b") as f:  # the payload after the 20-byte header
            f.seek(20)
            f.write(costs.astype("<f4").tobytes())
    out = tmp_path / "fused.mcv"
    argv = ["fuse", "--volumes", *paths, "--fusion", strategy.value, "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[0]}: costs must be in [+0.0, +inf)") and err.count("\n") == 1
    assert not out.exists()
    stack += np.float32(0.0)
    for path, costs in zip(paths, stack):
        save_volume(path, _vol(costs))
    assert run(argv) == 0
    want = _sort_reference(stack, strategy, 3.0)
    assert load_volume(out).costs.tobytes() == want.tobytes()


def test_fusion_overflowing_factor_is_exact_and_silent():
    # factor * c2 overflows to inf for the second cell: the exact answer
    # to c3 > factor * c2 is False there, and no warning is raised
    vols = [_vol(np.array([[[0.0, 2.0]]])), _vol(np.array([[[0.0, 3.0]]])), _vol(np.array([[[1.0, 4.0]]]))]
    got = fuse(vols, FusionStrategy.HEURISTIC, heuristic_factor=1e308).costs
    np.testing.assert_array_equal(got, np.array([[[0.0, 3.0]]], dtype=np.float32))


def _guard_edge_stack(n, f, seed):
    """(n, 3, 16, 64) float32 costs for an integer factor f, one slice per
    edge of exact float32 HEURISTIC arithmetic, with the views shuffled per
    cell:

    0. c2 up to the largest integer with (f+2)*c2 < 2**24 and c3 at f*c2,
       just below it, f*c2 + 1, LARGE_COST or +inf, so that non-outlier sums
       come within a few thousand of 2**24;
    1. c2 past that bound but below 2**24/(f+1), non-outlier sums past
       2**24, where float32 addition rounds;
    2. c2 as in 0 and c3 = c2 + k + 1/2 (k < 1000): at f = 3 non-outlier
       cells whose c1 + c2 + c3 > 2**23 float32 cannot hold, at f = 1
       outliers.

    Views beyond the third cost at least c3.
    """
    rng = np.random.default_rng(seed)
    shape = (16, 64)
    top = (2**24 - 1) // (f + 2)
    c2 = np.stack([
        top - rng.integers(0, 1000, shape),
        rng.integers(top + 1, (2**24 - 1) // (f + 1) + 1, shape),
        top - rng.integers(0, 1000, shape),
    ]).astype(np.float64)
    c2[0, 0, 0] = top
    c1 = np.maximum(c2 - rng.integers(0, 1000, c2.shape), 0)
    c3 = np.maximum(f * c2 - rng.integers(0, 3, c2.shape) * rng.integers(0, 1000, c2.shape), c2)
    over = [f * c2[0] + 1, np.full(shape, LARGE_COST), np.full(shape, np.inf)]
    pick = rng.integers(0, 6, shape)
    for i, value in enumerate(over):
        c3[0][pick == i] = value[pick == i]
    c3[2] = c2[2] + rng.integers(0, 1000, shape) + 0.5
    rows = [c1, c2, c3]
    extra = np.array([0, 1, LARGE_COST, np.inf])
    rows += [np.maximum(c3, extra[rng.integers(0, 4, c3.shape)]) for _ in range(n - 3)]
    return rng.permuted(np.stack(rows).astype(np.float32), axis=0)


def _integer_edge_stack(n, f, seed):
    """(n, 3, 16, 64) uint32 costs for an integer factor f, one slice per
    edge of the uint32 path's bound, (f+2)*c2 < 2**24:

    0. _guard_edge_stack's slice 0 with LARGE_COST for +inf: c2 up to top,
       the largest integer within the bound, and c3 at f*c2, just below it,
       f*c2 + 1 and LARGE_COST;
    1. the same with c2 one past top in one cell, so that the slice takes
       the float64 formula;
    2. _guard_edge_stack's slice 1: c2 past the bound, non-outlier sums
       past 2**24.
    """
    stack = _guard_edge_stack(n, f, seed)[:, :2]
    stack[stack == np.inf] = LARGE_COST
    past = stack[:, 0].copy()
    top = (2**24 - 1) // (f + 2)
    past[:, 0, 0] = [top + 1, top + 1, f * (top + 1)] + [LARGE_COST] * (n - 3)
    return np.stack([stack[:, 0], past, stack[:, 1]], axis=1).astype(np.uint32)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("f", [1, 3])
def test_heuristic_bound_edges_match_stable_sort_reference(n, f):
    # the float32 stack, halves and +inf included, through fuse; its integer
    # slices as uint32 rows through fuse_slices, on and past the bound at
    # factor f, and on the float64 formula at factors 0.5 and 1e308
    stack = _guard_edge_stack(n, f, 100 * f + n)
    ints = _integer_edge_stack(n, f, 100 * f + n)
    for factor in (1, 3, 0.5, 1e308):
        _assert_fuse_matches_reference(stack, FusionStrategy.HEURISTIC, factor)
        got = [s.copy() for s in fuse_slices(_slice_lists(ints), FusionStrategy.HEURISTIC, factor)]
        with np.errstate(over="ignore"):
            want = _sort_reference(ints, FusionStrategy.HEURISTIC, factor)
        assert all(s.dtype == np.float32 for s in got)
        assert np.stack(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("strategy", list(FusionStrategy))
def test_uint32_rows_fuse_to_the_float32_rows_bytes(n, strategy):
    # integer costs with ties fuse to the same float32 bytes from uint32 rows
    # as from float32 rows, one view passing through too; LARGE_COST only in
    # the first view, so that c2 stays small and HEURISTIC at factor 3 takes
    # the uint32 path
    rng = np.random.default_rng(50 + n)
    levels = np.array([0, 1, 2, 5, 7, 1000, LARGE_COST], dtype=np.uint32)
    ints = levels[rng.integers(0, len(levels) - 1, size=(n, 3, 24, 32))]
    ints[0][rng.random(ints[0].shape) < 0.2] = levels[-1]
    for factor in (3.0, 0.5):
        got = np.stack([s.copy() for s in fuse_slices(_slice_lists(ints), strategy, factor)])
        want = fuse([_vol(v) for v in ints.astype(np.float32)], strategy, factor).costs
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


# the ranks each strategy reads of n ordered costs
def _ranks_read(strategy, n):
    if strategy is FusionStrategy.MEAN:
        return n
    return 3 if strategy is FusionStrategy.HEURISTIC and n >= 3 else 1


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("strategy", list(FusionStrategy))
def test_pruned_network_orders_the_ranks_read(n, strategy):
    # uint32 rows of 0, ties, LARGE_COST's bits and +inf's bits: every cell
    # of every 0/1 pattern over n rows (which decides whether a comparator
    # network sorts, Knuth's 0-1 principle), then random rows drawn from
    # those levels; the ranks the strategy reads come out as np.sort's
    levels = np.array([0, 1, 2, 7, LARGE_COST, np.inf], dtype=np.float32).view(np.uint32)
    patterns = np.array(list(itertools.product([0, 1], repeat=n)), dtype=np.uint32).T
    rng = np.random.default_rng(40 + n)
    drawn = levels[rng.integers(0, len(levels), size=(n, 4096))]
    for lo, hi in [(0, 1), (levels[-2], levels[-1])]:
        drawn = np.concatenate([drawn, np.where(patterns == 1, hi, lo).astype(np.uint32)], axis=1)
    network = fusion._network(n, strategy)
    ordered = fusion._order_cells(list(drawn.copy()), network, fusion._Scratch(drawn.shape[1:]))
    read = _ranks_read(strategy, n)
    assert np.array_equal(np.stack(ordered[:read]), np.sort(drawn, axis=0)[:read])


@pytest.mark.parametrize("n", range(1, 9))
def test_pruned_network_pass_counts(n):
    # a compare-exchange is a minimum and a maximum, a kept minimum one
    # pass: MIN takes n - 1 minima, and MEAN's whole Batcher network no more
    # passes than the n rounds of odd-even transposition
    def passes(strategy):
        return sum(2 if exchange else 1 for _, _, exchange in fusion._network(n, strategy))

    transposition = 2 * sum(len(range(r % 2, n - 1, 2)) for r in range(n))
    assert passes(FusionStrategy.MIN) == n - 1
    assert passes(FusionStrategy.HEURISTIC) <= passes(FusionStrategy.MEAN) <= transposition


def test_heuristic_network_at_four_views():
    # 9 passes where the whole network takes 10 and transposition 12
    assert fusion._network(4, FusionStrategy.HEURISTIC) == [
        (0, 1, True), (2, 3, True), (0, 2, True), (1, 3, False), (1, 2, True)
    ]


# ------------------------------------------------------------------- WTA


def test_wta_subpixel_example():
    costs = np.array([5.0, 1.0, 4.0, 9.0], dtype=np.float32).reshape(4, 1, 1)
    d = wta_disparity(_vol(costs, d_min=1))
    assert d.values[0, 0] == pytest.approx(2.0 + 1.0 / 14.0, abs=1e-6)


def test_wta_symmetric_neighbors_integer():
    costs = np.array([4.0, 1.0, 4.0], dtype=np.float32).reshape(3, 1, 1)
    d = wta_disparity(_vol(costs, d_min=1))
    assert d.values[0, 0] == 2.0


def test_wta_ties_take_smallest_disparity():
    costs = np.array([3.0, 1.0, 1.0, 5.0], dtype=np.float32).reshape(4, 1, 1)
    d = wta_disparity(_vol(costs, d_min=1), subpixel=False)
    assert d.values[0, 0] == 2.0


def test_wta_plateau_keeps_integer():
    costs = np.array([1.0, 1.0, 1.0], dtype=np.float32).reshape(3, 1, 1)
    d = wta_disparity(_vol(costs, d_min=1))
    assert d.values[0, 0] == 1.0  # tie -> smallest; flat parabola guard


def test_wta_boundary_minimum_integer():
    costs = np.array([1.0, 2.0, 3.0], dtype=np.float32).reshape(3, 1, 1)
    d = wta_disparity(_vol(costs, d_min=4))
    assert d.values[0, 0] == 4.0


def test_wta_subpixel_offset_bounded():
    rng = np.random.default_rng(7)
    costs = rng.uniform(0, 10, size=(6, 10, 10)).astype(np.float32)
    vol = _vol(costs, d_min=2)
    sub = wta_disparity(vol).values
    whole = wta_disparity(vol, subpixel=False).values
    assert (np.abs(sub - whole) <= 0.5 + 1e-6).all()
    assert (sub >= 2.0).all() and (sub <= 7.0).all()
    assert (whole == np.rint(whole)).all()


def test_wta_all_sentinel_pixel_invalid():
    costs = np.full((3, 2, 2), LARGE_COST, dtype=np.float32)
    costs[:, 0, 0] = [4.0, 2.0, 3.0]
    d = wta_disparity(_vol(costs, d_min=1))
    # interior min refines: 2 + (4-3)/(2*4 + 2*3 - 4*2) = 2 + 1/6
    assert d.values[0, 0] == pytest.approx(2.0 + 1.0 / 6.0, abs=1e-6)
    assert not d.valid_mask[0, 1] and not d.valid_mask[1, 1]


def test_wta_sentinel_neighbor_disables_subpixel():
    costs = np.array([LARGE_COST, 1.0, 4.0], dtype=np.float32).reshape(3, 1, 1)
    d = wta_disparity(_vol(costs, d_min=1))
    assert d.values[0, 0] == 2.0  # parabola through a sentinel is meaningless


def test_wta_recovers_known_disparity():
    # planted minimum at a known slice dominates everywhere
    rng = np.random.default_rng(8)
    costs = rng.uniform(5, 10, size=(5, 12, 12)).astype(np.float32)
    costs[3] = rng.uniform(0, 0.5, size=(12, 12)).astype(np.float32)
    d = wta_disparity(_vol(costs, d_min=1), subpixel=False)
    assert (d.values == 4.0).all()


def _wta_cases(depth):
    """(depth, 24, 32) costs holding every case the first-minimum rule and
    the parabola have to get right, row band by row band."""
    rng = np.random.default_rng(80 + depth)
    shape = (depth, 4, 32)
    levels = np.array([0.0, 1.0, 2.0, 3.5], dtype=np.float32)
    bands = [
        levels[rng.integers(0, len(levels), size=shape)],  # ties and plateaus
        np.full(shape, LARGE_COST, dtype=np.float32),  # all-sentinel pixels
        rng.uniform(0, 10, size=shape).astype(np.float32),  # real parabolas
    ]
    runs = rng.uniform(0, 10, size=shape).astype(np.float32)
    starts = rng.integers(0, depth + 1, size=shape[1:])
    stops = rng.integers(0, depth + 1, size=shape[1:])
    k = np.arange(depth)[:, None, None]
    runs[(k >= starts) & (k < stops)] = LARGE_COST  # LARGE_COST runs
    bands.append(runs)
    infs = levels[rng.integers(0, len(levels), size=shape)]
    infs[rng.random(shape) < 0.2] = np.inf  # some pixels with two
    bands.append(infs)
    plateau = np.repeat(rng.uniform(0, 5, size=(1,) + shape[1:]).astype(np.float32), depth, 0)
    bands.append(plateau)  # one cost at every disparity
    return np.concatenate(bands, axis=1)


def _assert_wta_matches_reference(costs, subpixel):
    want = wta_reference(costs, 3, subpixel)
    got = wta_disparity(_vol(costs, d_min=3), subpixel).values
    assert got.tobytes() == want.tobytes()

    # slices handed over in one reused buffer, as the dense pipeline does
    def scratch():
        buf = np.empty(costs.shape[1:], dtype=np.float32)
        for s in costs:
            buf[...] = s
            yield buf
            buf[...] = np.nan  # a consumer must not read a slice after the next

    assert wta_slices(scratch(), 3, subpixel).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("depth", range(1, 10))
@pytest.mark.parametrize("subpixel", [False, True])
def test_wta_bytes_match_whole_volume_reference(depth, subpixel):
    _assert_wta_matches_reference(_wta_cases(depth), subpixel)


@pytest.mark.parametrize("depth", range(1, 10))
@pytest.mark.parametrize("subpixel", [False, True])
def test_wta_refuses_the_unclean_slice(depth, subpixel):
    # the cases of the byte test with slice k made unclean by -0.0 in place
    # of +0.0 or by NaN cells, refused by index in a volume and in a stream
    clean = _wta_cases(depth)
    rng = np.random.default_rng(90 + depth)
    for k in range(depth):
        zeros = clean.copy()
        zeros[k][zeros[k] == 0] = -0.0
        nans = clean.copy()
        nans[k][rng.random(nans.shape[1:]) < 0.2] = np.nan
        for costs in (zeros, nans):
            vol = _vol(clean.copy(), d_min=3)
            vol.costs[k] = costs[k]  # after the volume checked its costs
            with pytest.raises(InputError, match=f"WTA slice {k}: "):
                wta_disparity(vol, subpixel)
            with pytest.raises(InputError, match=f"WTA slice {k}: "):
                wta_slices(iter(costs), 3, subpixel)


# ------------------------------------------------------- the cost contract

# every kind of float32 the contract refuses: NaN, negative costs, -0.0
_UNCLEAN = pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0, -0.0], ids=["nan", "-inf", "-1", "-0"])


@_UNCLEAN
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fuse_refuses_unclean_costs(bad, n):
    vols = [_vol(np.ones((3, 2, 4))) for _ in range(n)]
    vols[-1].costs[2, 1, 0] = bad  # after the volume checked its costs
    with pytest.raises(InputError, match=f"fusion slice 2, view {n - 1}: costs must be in"):
        fuse(vols, FusionStrategy.HEURISTIC)


@_UNCLEAN
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fuse_slices_refuses_unclean_costs(bad, n):
    # slice 1's last view holds the cost; a single view's slice passes
    # through unfused but is checked all the same
    lists = [[np.ones((2, 4), dtype=np.float32) for _ in range(n)] for _ in range(3)]
    lists[1][-1][1, 0] = bad
    fused = fuse_slices(iter(lists), FusionStrategy.MEAN)
    next(fused)
    with pytest.raises(InputError, match=f"fusion slice 1, view {n - 1}: costs must be in"):
        next(fused)


@_UNCLEAN
@pytest.mark.parametrize("k", [0, 1, 2])
def test_wta_slices_refuses_unclean_costs(bad, k):
    slices = np.ones((3, 2, 4), dtype=np.float32)
    slices[k, 1, 0] = bad
    with pytest.raises(InputError, match=f"WTA slice {k}: costs must be in"):
        wta_slices(slices, 1)


def test_wta_slices_needs_a_slice():
    with pytest.raises(InputError, match="WTA needs at least one cost slice"):
        wta_slices([], 0)


@_UNCLEAN
def test_wta_disparity_refuses_unclean_costs(bad):
    vol = _vol(np.ones((3, 2, 4)))
    vol.costs[1, 1, 0] = bad  # after the volume checked its costs
    with pytest.raises(InputError, match="WTA slice 1: costs must be in"):
        wta_disparity(vol)
