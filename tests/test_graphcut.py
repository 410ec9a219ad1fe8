"""Energy, expansion moves (exact vs enumeration), and the full GC pipeline."""

import weakref

import numpy as np
import pytest

from multiscopic import (
    OCCLUDED,
    BlockMatchParams,
    CostVolume,
    Direction,
    GcParams,
    Image,
    InputError,
    MultiscopicSet,
    expansion_move,
    gc_energy,
    multiscopic_gc,
    occlusion_pass,
)
from multiscopic import graphcut
from multiscopic.graphcut import _IMPROVE_EPS, _recheck_weights, pair_weights, upscale_image
from multiscopic.synthscene import SceneLayer, SceneSpec, generate_scene

from oracles import energy_oracle, expansion_oracle, occlusion_oracle, pair_weights_oracle

RNG = np.random.default_rng(77)


def _vol(arr, d_min=1):
    arr = np.asarray(arr, dtype=np.float32)
    return CostVolume(arr, d_min=d_min, d_max=d_min + arr.shape[0] - 1)


def _flat_center(h, w, value=100.0):
    return Image(np.full((h, w), value, dtype=np.float32))


# ------------------------------------------------------------------- energy


def test_energy_hand_example_data_only():
    # 1x2 grid, both pixels assigned, equal labels: no smoothness
    costs = np.zeros((2, 1, 2), dtype=np.float32)
    costs[0, 0, 0] = 3.0
    costs[0, 0, 1] = 4.0
    p = GcParams()
    e = gc_energy(np.array([[1, 1]]), _vol(costs), pair_weights(_flat_center(1, 2), p), p)
    assert e == 7.0


def test_energy_occlusion_and_smoothness():
    costs = np.zeros((3, 1, 2), dtype=np.float32)
    p = GcParams(k_occlusion=10.0, lambda1=9.0, lambda2=3.0, theta=8.0, d_cutoff=5)
    weights = pair_weights(_flat_center(1, 2), p)  # identical pixels -> lambda1 weight
    # labels 1 and 3: |1-3| = 2 < cutoff -> 9 * 2 = 18
    assert gc_energy(np.array([[1, 3]]), _vol(costs), weights, p) == 18.0
    # one occluded: no pair term, K charged once
    assert gc_energy(np.array([[1, OCCLUDED]]), _vol(costs), weights, p) == 10.0
    # truncation: |1-3| with cutoff 1
    p2 = GcParams(d_cutoff=1)
    assert gc_energy(np.array([[1, 3]]), _vol(costs), weights, p2) == 9.0


def test_energy_weight_selection_by_intensity_step():
    costs = np.zeros((2, 1, 2), dtype=np.float32)
    p = GcParams()
    step = pair_weights(Image(np.array([[0.0, 100.0]], dtype=np.float32)), p)  # >= theta
    assert gc_energy(np.array([[1, 2]]), _vol(costs), step, p) == p.lambda2
    smooth = pair_weights(Image(np.array([[0.0, 5.0]], dtype=np.float32)), p)
    assert gc_energy(np.array([[1, 2]]), _vol(costs), smooth, p) == p.lambda1


def test_energy_validates_labels():
    costs = np.zeros((2, 2, 2), dtype=np.float32)
    p = GcParams()
    weights = pair_weights(_flat_center(2, 2), p)
    with pytest.raises(InputError):
        gc_energy(np.array([[1, 1]]), _vol(costs), weights, p)
    with pytest.raises(InputError):
        gc_energy(np.full((2, 2), 9), _vol(costs), weights, p)


@pytest.mark.parametrize("given", [False, True], ids=["center-weights", "given-weights"])
def test_energy_matches_scalar_oracle(given):
    # seeded random labelings with OCCLUDED pixels on grids of 1 to 8 a side;
    # weights from the center rule (integer intensities, so both sides see
    # the same differences) or given explicitly
    n_occluded = 0
    for trial in range(40):
        rng = np.random.default_rng(np.random.SeedSequence([3300, trial]))
        h, w = (int(v) for v in rng.integers(1, 9, size=2))
        n_d = int(rng.integers(1, 6))
        costs = rng.uniform(0, 50, size=(n_d, h, w)).astype(np.float32)
        labels = rng.integers(2, 2 + n_d, size=(h, w))
        labels[rng.random((h, w)) < rng.uniform(0.0, 0.5)] = OCCLUDED
        lambda2 = float(rng.uniform(0, 5))
        p = GcParams(k_occlusion=float(rng.uniform(0, 20)),
                     lambda1=lambda2 + float(rng.uniform(0, 5)), lambda2=lambda2,
                     theta=float(rng.integers(1, 60)), d_cutoff=int(rng.integers(1, 5)))
        center = Image(rng.integers(0, 120, size=(h, w)).astype(np.float32))
        if given:
            weights = (rng.uniform(0, 9, size=(h, w - 1)), rng.uniform(0, 9, size=(h - 1, w)))
        else:
            weights = pair_weights_oracle(center.pixels, p.theta, p.lambda1, p.lambda2)
        used = weights if given else pair_weights(center, p)
        got = gc_energy(labels, _vol(costs, d_min=2), used, p)
        want = energy_oracle(labels, costs, 2, p.k_occlusion, *weights, p.d_cutoff, OCCLUDED)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), trial
        n_occluded += int((labels == OCCLUDED).sum())
    assert n_occluded > 100


@pytest.mark.parametrize(
    "params",
    [
        {"k_occlusion": float("nan")},
        {"k_occlusion": -5.0},
        {"k_occlusion": float("inf")},
        {"lambda1": float("inf"), "lambda2": float("inf")},
        {"lambda1": float("inf")},
        {"lambda2": float("nan")},
        {"lambda1": 2.0, "lambda2": 3.0},
    ],
)
def test_gc_params_rejects_bad_energy_weights(params):
    with pytest.raises(InputError, match="k_occlusion|lambda"):
        GcParams(**params)


@pytest.mark.parametrize("upscale", [0, 3, 8])
def test_gc_params_rejects_an_upscale_other_than_1_2_or_4(upscale):
    with pytest.raises(InputError, match=f"upscale must be 1, 2 or 4, got {upscale}"):
        GcParams(upscale=upscale)


def test_pair_weights_shapes():
    w_h, w_v = pair_weights(_flat_center(3, 4), GcParams())
    assert w_h.shape == (3, 3) and w_v.shape == (2, 4)
    assert (w_h == 9.0).all() and (w_v == 9.0).all()


_STEPS = {
    "energy": gc_energy,
    "move": lambda labels, vol, weights, p: expansion_move(labels, 2, vol, weights, p),
    "occlusion": occlusion_pass,
}


@pytest.mark.parametrize("step", sorted(_STEPS))
@pytest.mark.parametrize("bad", ["scalars", "one-row", "swapped", "three", "nan", "inf",
                                 "negative"])
def test_steps_refuse_weights_that_do_not_fit_the_grid(step, bad):
    # scalars or one-row arrays would broadcast over the whole grid, and a
    # NaN, infinite or negative weight breaks the non-negative arcs of the
    # expansion graph: each is refused by name before any term is computed
    rng = np.random.default_rng(31)
    vol = _vol(rng.uniform(0, 9, size=(3, 4, 5)))
    labels = rng.integers(1, 4, size=(4, 5))
    p = GcParams()
    w_h, w_v = pair_weights(_flat_center(4, 5), p)
    poked = w_v.copy()
    poked[2, 3] = {"nan": np.nan, "inf": np.inf, "negative": -1.0}.get(bad, 0.0)
    weights = {"scalars": (9.0, 3.0), "one-row": (w_h[:1], w_v[:1]), "swapped": (w_v, w_h),
               "three": (w_h, w_v, w_v)}.get(bad, (w_h, poked))
    with pytest.raises(InputError, match="weights"):
        _STEPS[step](labels, vol, weights, p)


@pytest.mark.parametrize("step", sorted(_STEPS))
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1)])
def test_steps_take_the_empty_weights_of_a_grid_without_pairs(step, shape):
    # a one-pixel-wide or one-pixel-high labeling has no pairs along that
    # axis, so its weights there hold no element, as pair_weights gives them
    vol = _vol(np.full((3, *shape), 20.0))
    weights = (np.zeros((shape[0], shape[1] - 1)), np.zeros((shape[0] - 1, shape[1])))
    _STEPS[step](np.full(shape, 1), vol, weights, GcParams())
    for got, want in zip(pair_weights(_flat_center(*shape), GcParams()), weights):
        assert got.shape == want.shape


# ---------------------------------------------------------------- expansion


def test_expansion_alpha_equals_labels_is_noop():
    costs = RNG.uniform(0, 5, size=(3, 3, 3)).astype(np.float32)
    labels = np.full((3, 3), 2)
    p = GcParams()
    out = expansion_move(labels, 2, _vol(costs), pair_weights(_flat_center(3, 3), p), p)
    np.testing.assert_array_equal(out, labels)


def test_expansion_no_smoothing_gives_pointwise_min():
    costs = np.zeros((3, 2, 2), dtype=np.float32)
    costs[0] = [[1.0, 5.0], [5.0, 1.0]]
    costs[2] = [[5.0, 1.0], [1.0, 5.0]]
    p = GcParams(lambda1=0.0, lambda2=0.0)
    labels = np.full((2, 2), 1)
    out = expansion_move(labels, 3, _vol(costs), pair_weights(_flat_center(2, 2), p), p)
    np.testing.assert_array_equal(out, [[1, 3], [3, 1]])


def test_expansion_smoothing_flips_weak_pixel():
    # data prefers [[1, 3]] but a strong pair weight pulls both to 3
    costs = np.zeros((3, 1, 2), dtype=np.float32)
    costs[0, 0, 0] = 0.0
    costs[2, 0, 0] = 1.5
    costs[0, 0, 1] = 50.0
    costs[2, 0, 1] = 0.0
    p = GcParams(lambda1=9.0, lambda2=9.0, theta=8.0)
    labels = np.array([[1, 1]])
    out = expansion_move(labels, 3, _vol(costs), pair_weights(_flat_center(1, 2), p), p)
    np.testing.assert_array_equal(out, [[3, 3]])


def test_expansion_from_occluded_labels():
    costs = np.zeros((2, 1, 2), dtype=np.float32)
    costs[1] = 100.0
    labels = np.array([[OCCLUDED, OCCLUDED]])
    p = GcParams(k_occlusion=10.0)
    # alpha=1 has zero data cost, beats K=10 per pixel
    out = expansion_move(labels, 1, _vol(costs), pair_weights(_flat_center(1, 2), p), p)
    np.testing.assert_array_equal(out, [[1, 1]])
    # alpha=2 costs 100 > K: stay occluded
    out2 = expansion_move(labels, 2, _vol(costs), pair_weights(_flat_center(1, 2), p), p)
    np.testing.assert_array_equal(out2, [[OCCLUDED, OCCLUDED]])


def test_expansion_never_increases_energy_random():
    p = GcParams(k_occlusion=4.0, lambda1=3.0, lambda2=1.0, theta=8.0, d_cutoff=3)
    for trial in range(40):
        rng = np.random.default_rng(1000 + trial)
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n_lab = int(rng.integers(1, 4))
        costs = rng.uniform(0, 6, size=(n_lab, h, w)).astype(np.float32)
        vol = _vol(costs)
        labels = rng.integers(0, n_lab + 1, size=(h, w)) + vol.d_min - 1
        labels[labels < vol.d_min] = OCCLUDED
        weights = pair_weights(Image(rng.integers(0, 256, size=(h, w)).astype(np.float32)), p)
        alpha = int(rng.integers(vol.d_min, vol.d_max + 1))
        before = gc_energy(labels, vol, weights, p)
        out = expansion_move(labels, alpha, vol, weights, p)
        after = gc_energy(out, vol, weights, p)
        assert after <= before + 1e-9


def test_expansion_is_globally_optimal_vs_enumeration():
    p = GcParams(k_occlusion=4.0, lambda1=3.0, lambda2=1.0, theta=8.0, d_cutoff=3)
    for trial in range(40):
        rng = np.random.default_rng(2000 + trial)
        h, w = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        n_lab = int(rng.integers(1, 4))
        costs = rng.uniform(0, 6, size=(n_lab, h, w)).astype(np.float32)
        vol = _vol(costs)
        labels = rng.integers(0, n_lab + 1, size=(h, w)) + vol.d_min - 1
        labels[labels < vol.d_min] = OCCLUDED
        center = Image(rng.integers(0, 256, size=(h, w)).astype(np.float32))
        alpha = int(rng.integers(vol.d_min, vol.d_max + 1))
        w_h, w_v = pair_weights(center, p)
        out = expansion_move(labels, alpha, vol, (w_h, w_v), p)
        got = gc_energy(out, vol, (w_h, w_v), p)
        want = expansion_oracle(
            labels, alpha, costs, vol.d_min, p.k_occlusion, w_h, w_v, p.d_cutoff
        )
        assert got == pytest.approx(want, abs=1e-6)


def test_expansion_rejects_bad_alpha():
    costs = np.zeros((2, 2, 2), dtype=np.float32)
    p = GcParams()
    weights = pair_weights(_flat_center(2, 2), p)
    with pytest.raises(InputError):
        expansion_move(np.full((2, 2), 1), 5, _vol(costs), weights, p)
    with pytest.raises(InputError):
        expansion_move(np.full((2, 2), 1), OCCLUDED, _vol(costs), weights, p)


def test_expansion_rejects_reuse_of_another_grid():
    # a reuse record holds the arc layout of one grid shape, not of another
    # with the same pixel count
    costs = np.zeros((2, 2, 8), dtype=np.float32)
    p = GcParams()
    with pytest.raises(InputError):
        expansion_move(np.full((2, 8), 1), 2, _vol(costs), pair_weights(_flat_center(2, 8), p), p,
                       reuse=graphcut.MoveReuse(4, 4))


# ----------------------------------------------------------- occlusion pass


def test_occlusion_pass_flips_expensive_pixel():
    costs = np.zeros((1, 1, 2), dtype=np.float32)
    costs[0, 0, 1] = 50.0  # far above K=10
    p = GcParams()
    vol = _vol(costs)
    weights = pair_weights(_flat_center(1, 2), p)
    labels = np.array([[1, 1]])
    out, flips = occlusion_pass(labels, vol, weights, p)
    assert flips == 1
    np.testing.assert_array_equal(out, [[1, OCCLUDED]])
    assert gc_energy(out, vol, weights, p) < gc_energy(labels, vol, weights, p)


def test_occlusion_pass_keeps_cheap_labels():
    costs = np.full((1, 2, 2), 1.0, dtype=np.float32)
    labels = np.full((2, 2), 1)
    p = GcParams()
    out, flips = occlusion_pass(labels, _vol(costs), pair_weights(_flat_center(2, 2), p), p)
    assert flips == 0
    np.testing.assert_array_equal(out, labels)


def test_occlusion_pass_never_increases_energy():
    p = GcParams(k_occlusion=3.0)
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        costs = rng.uniform(0, 8, size=(3, 4, 4)).astype(np.float32)
        vol = _vol(costs)
        labels = rng.integers(1, 4, size=(4, 4))
        weights = pair_weights(Image(rng.integers(0, 256, size=(4, 4)).astype(np.float32)), p)
        out, _ = occlusion_pass(labels, vol, weights, p)
        assert gc_energy(out, vol, weights, p) <= gc_energy(labels, vol, weights, p) + 1e-9


def test_occlusion_pass_matches_full_scan_oracle():
    # random labelings with OCCLUDED pixels, lambda1 and lambda2 pairs from a
    # random center (or explicit random weights), and integer costs, so that
    # many pixels sit exactly at gain 0 and, with K shifted by the acceptance
    # margin, at gain -_IMPROVE_EPS
    n_flips = n_ties = 0
    for trial in range(60):
        rng = np.random.default_rng(np.random.SeedSequence([3100, trial]))
        h, w = (int(v) for v in rng.integers(1, 9, size=2))
        n_d = int(rng.integers(1, 5))
        costs = rng.integers(0, 12, size=(n_d, h, w)).astype(np.float32)
        vol = _vol(costs, d_min=2)
        labels = rng.integers(2, 2 + n_d, size=(h, w))
        labels[rng.random((h, w)) < rng.uniform(0.0, 0.5)] = OCCLUDED
        k = float(rng.integers(0, 16)) - (_IMPROVE_EPS if trial % 3 == 0 else 0.0)
        p = GcParams(k_occlusion=k, lambda1=float(rng.integers(1, 4)),
                     lambda2=float(rng.integers(0, 2)), theta=40.0,
                     d_cutoff=int(rng.integers(1, 4)))
        center = Image(rng.integers(0, 120, size=(h, w)).astype(np.float32))
        weights = pair_weights(center, p)
        if trial % 2:
            weights = (rng.integers(0, 4, size=(h, w - 1)).astype(np.float64),
                       rng.integers(0, 4, size=(h - 1, w)).astype(np.float64))
        out, flips = occlusion_pass(labels, vol, weights, p)
        want, want_flips = occlusion_oracle(
            labels, costs, 2, k, *weights, p.d_cutoff, _IMPROVE_EPS, OCCLUDED
        )
        np.testing.assert_array_equal(out, want, err_msg=str(trial))
        assert flips == want_flips, trial
        n_flips += flips
        n_ties += _boundary_pixels(labels, costs, 2, k, weights, p.d_cutoff)
    assert n_flips > 50 and n_ties > 20


def _boundary_pixels(labels, costs, d_min, k, weights, cutoff):
    """Assigned pixels whose gain on the input labeling is 0 or -_IMPROVE_EPS."""
    h, w = labels.shape
    pad = np.pad(labels, 1, constant_values=OCCLUDED)
    wts = np.pad(weights[0], ((0, 0), (1, 1))), np.pad(weights[1], ((1, 1), (0, 0)))
    smooth = np.zeros((h, w))
    for nb, wt in ((pad[1:-1, :-2], wts[0][:, :-1]), (pad[1:-1, 2:], wts[0][:, 1:]),
                   (pad[:-2, 1:-1], wts[1][:-1]), (pad[2:, 1:-1], wts[1][1:])):
        smooth += np.where(nb != OCCLUDED, wt * np.minimum(np.abs(labels - nb), cutoff), 0.0)
    yy, xx = np.mgrid[0:h, 0:w]
    gain = k - costs[np.clip(labels - d_min, 0, None), yy, xx] - smooth
    tie = (gain == 0.0) | (np.abs(gain + _IMPROVE_EPS) < 1e-12)
    return int((tie & (labels != OCCLUDED)).sum())


# ------------------------------------------------------------------ upscale


def test_upscale_image_lattice_exact():
    img = Image(RNG.integers(0, 256, size=(3, 4)).astype(np.float32))
    for f in (1, 2, 4):
        up = upscale_image(img, f)
        assert up.pixels.shape == (3 * f, 4 * f)
        np.testing.assert_array_equal(up.pixels[::f, ::f], img.pixels)


def test_upscale_image_interpolates_midpoints():
    img = Image(np.array([[0.0, 10.0]], dtype=np.float32))
    up = upscale_image(img, 2)
    assert up.pixels[0, 1] == 5.0
    assert up.pixels[0, 3] == 10.0  # edge clamp


# ------------------------------------------------------------------ pipeline


def _constant_shift_set(h, w, d, seed=0, views=(Direction.RIGHT, Direction.LEFT)):
    """All surfaces at one disparity: every view is an exact shift of a texture."""
    rng = np.random.default_rng(seed)
    m = d + 2
    tex = rng.integers(0, 256, size=(h + 2 * m, w + 2 * m)).astype(np.float32)
    center = Image(tex[m : m + h, m : m + w])
    surround = []
    for direction in views:
        ox, oy = direction.offset(d)
        surround.append(
            (direction, Image(tex[m - oy : m - oy + h, m - ox : m - ox + w]))
        )
    return MultiscopicSet(center, surround)


def test_multiscopic_gc_constant_scene_exact():
    d_true = 2
    mset = _constant_shift_set(10, 10, d_true, seed=4)
    p = GcParams(upscale=1, rng_seed=0)
    bm = BlockMatchParams(rho=1, d_min=1, d_max=4)
    disp = multiscopic_gc(mset, p, matcher="bt", bm=bm)
    assert disp.valid_mask.all()
    assert (disp.values == d_true).all()


def test_multiscopic_gc_upscale_halves_back():
    d_true = 2
    mset = _constant_shift_set(8, 8, d_true, seed=5)
    p = GcParams(upscale=2, rng_seed=0)
    bm = BlockMatchParams(rho=1, d_min=1, d_max=4)
    disp = multiscopic_gc(mset, p, matcher="bt", bm=bm)
    assert disp.values.shape == (8, 8)
    # clamped bilinear extrapolation can perturb the outermost ring
    assert disp.valid_mask[1:-1, 1:-1].all()
    assert (disp.values[1:-1, 1:-1] == d_true).all()
    assert np.abs(disp.values[disp.valid_mask] - d_true).max() <= 0.5


def test_multiscopic_gc_energy_trace_non_increasing():
    mset = _constant_shift_set(8, 8, 2, seed=6)
    # add noise so the solver actually has work to do
    noisy = MultiscopicSet(
        Image(np.clip(mset.center.pixels + 10 * np.sin(np.arange(64)).reshape(8, 8), 0, 255).astype(np.float32)),
        mset.surround,
    )
    trace = []
    p = GcParams(upscale=1, rng_seed=1)
    bm = BlockMatchParams(rho=1, d_min=1, d_max=4)
    multiscopic_gc(noisy, p, matcher="bt", bm=bm, energy_trace=trace)
    assert len(trace) >= 2
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_multiscopic_gc_deterministic():
    mset = _constant_shift_set(8, 8, 2, seed=7)
    p = GcParams(upscale=1, rng_seed=3)
    bm = BlockMatchParams(rho=1, d_min=1, d_max=3)
    a = multiscopic_gc(mset, p, matcher="bt", bm=bm)
    b = multiscopic_gc(mset, p, matcher="bt", bm=bm)
    np.testing.assert_array_equal(a.values, b.values)


def test_multiscopic_gc_single_view_runs():
    mset = _constant_shift_set(8, 8, 1, seed=8, views=(Direction.RIGHT,))
    p = GcParams(upscale=1)
    bm = BlockMatchParams(rho=1, d_min=1, d_max=3)
    disp = multiscopic_gc(mset, p, matcher="sad", bm=bm)
    assert disp.values.shape == (8, 8)
    assert (disp.values[disp.valid_mask] == 1.0).all()


def test_multiscopic_gc_final_energy_beats_wta_init():
    # noisy scene: the sweep must not end above its own initialization
    rng = np.random.default_rng(9)
    mset = _constant_shift_set(8, 8, 2, seed=9)
    noisy = MultiscopicSet(
        Image(np.clip(mset.center.pixels + rng.normal(0, 6, (8, 8)), 0, 255).astype(np.float32)),
        [
            (dd, Image(np.clip(im.pixels + rng.normal(0, 6, (8, 8)), 0, 255).astype(np.float32)))
            for dd, im in mset.surround
        ],
    )
    trace = []
    p = GcParams(upscale=1, rng_seed=2)
    bm = BlockMatchParams(rho=1, d_min=1, d_max=4)
    multiscopic_gc(noisy, p, matcher="bt", bm=bm, energy_trace=trace)
    assert trace[-1] <= trace[0] + 1e-9


def _moves_with_none_skipped(labels, c_gc, weights, p):
    """(alpha, labels) of every move multiscopic_gc's fixed-weight sweeps
    would solve if no move were ever skipped."""
    keys = []
    energy = gc_energy(labels, c_gc, weights, p)
    rng = np.random.default_rng(p.rng_seed)
    for _ in range(p.max_sweeps):
        changed = False
        for alpha in rng.permutation(np.arange(c_gc.d_min, c_gc.d_max + 1)).tolist():
            keys.append((alpha, labels.tobytes()))
            cand = expansion_move(labels, alpha, c_gc, weights, p)
            cand_energy = gc_energy(cand, c_gc, weights, p)
            if cand_energy < energy - _IMPROVE_EPS:
                labels, energy, changed = cand, cand_energy, True
        labels, flips = occlusion_pass(labels, c_gc, weights, p)
        if flips:
            changed = True
            energy = gc_energy(labels, c_gc, weights, p)
        if not changed:
            break
    return keys


def test_multiscopic_gc_skips_only_moves_already_rejected(monkeypatch):
    # every move whose labels changed since it was last rejected is solved,
    # and none is solved twice on the same labels
    calls = []
    solve = graphcut.expansion_move

    def spy(labels, alpha, c_gc, weights, p, reuse):
        calls.append((alpha, labels.tobytes(), (labels, c_gc, weights, p)))
        return solve(labels, alpha, c_gc, weights, p, reuse)

    monkeypatch.setattr(graphcut, "expansion_move", spy)
    spec = SceneSpec(16, 16, [SceneLayer(1), SceneLayer(3, (3, 4, 8, 7))], noise_sigma=4.0)
    skipped = 0
    for seed in range(6):
        mset, _ = generate_scene(spec, seed=700 + seed)
        calls.clear()
        multiscopic_gc(mset, GcParams(rng_seed=seed), bm=BlockMatchParams(rho=1, d_min=1, d_max=4))
        got = [(alpha, key) for alpha, key, _ in calls]
        with monkeypatch.context() as m:
            m.setattr(graphcut, "expansion_move", solve)
            want = _moves_with_none_skipped(*calls[0][2])
        assert len(set(got)) == len(got), seed
        assert set(got) == set(want), seed
        skipped += len(want) - len(got)
    assert skipped > 0


@pytest.mark.parametrize(
    "params", [{}, {"recheck_smoothness_weights": True}, {"upscale": 1}],
    ids=["default", "recheck", "upscale1"],
)
def test_multiscopic_gc_resumed_moves_equal_fresh_ones(monkeypatch, params):
    # a solve that resumes from its alpha's previous solve switches the same
    # pixels as a fresh solve of the same move, also after the labels, the
    # occlusions or the pair weights changed in between
    solve = graphcut.expansion_move
    resumed = 0

    def spy(labels, alpha, c_gc, weights, p, reuse):
        nonlocal resumed
        resumes = alpha in reuse.states
        out = solve(labels, alpha, c_gc, weights, p, reuse)
        if resumes:
            resumed += 1
            np.testing.assert_array_equal(out, solve(labels, alpha, c_gc, weights, p))
        return out

    monkeypatch.setattr(graphcut, "expansion_move", spy)
    spec = SceneSpec(16, 16, [SceneLayer(1), SceneLayer(3, (3, 4, 8, 7))], noise_sigma=4.0)
    for seed in range(4):
        mset, _ = generate_scene(spec, seed=720 + seed)
        multiscopic_gc(mset, GcParams(rng_seed=seed, **params),
                       bm=BlockMatchParams(rho=1, d_min=1, d_max=4))
    assert resumed > 20


def test_recheck_that_keeps_the_weights_solves_no_move_again(monkeypatch):
    # a recheck that returns the weights in use changes nothing a move
    # depends on, so the run solves exactly the moves of a run without it
    # and ends with the same labels and energy trace
    solve = graphcut.expansion_move
    calls = []

    def spy(*args):
        calls.append((args[1], args[0].tobytes()))
        return solve(*args)

    monkeypatch.setattr(graphcut, "expansion_move", spy)
    monkeypatch.setattr(graphcut, "_recheck_weights",
                        lambda mset, labels, p: pair_weights(mset.center, p))
    spec = SceneSpec(16, 16, [SceneLayer(1), SceneLayer(3, (3, 4, 8, 7))], noise_sigma=4.0)
    bm = BlockMatchParams(rho=1, d_min=1, d_max=4)
    for seed in range(3):
        mset, _ = generate_scene(spec, seed=740 + seed)
        runs = []
        for recheck in (False, True):
            calls.clear()
            trace = []
            p = GcParams(rng_seed=seed, recheck_smoothness_weights=recheck)
            out = multiscopic_gc(mset, p, bm=bm, energy_trace=trace)
            runs.append((list(calls), out.values.tobytes(), trace))
        assert runs[1] == runs[0], seed


def test_multiscopic_gc_frees_the_per_view_volumes_before_the_moves(monkeypatch):
    # nothing reads the per-view volumes after fusion, so none of them is
    # still alive when the first expansion move runs
    build, solve = graphcut.multiscopic_volumes, graphcut.expansion_move
    built = []
    moves = 0

    def spy_build(*args):
        volumes = build(*args)
        built.extend(weakref.ref(v) for v in volumes)
        return volumes

    def spy_solve(*args):
        nonlocal moves
        if not moves:
            assert built and all(ref() is None for ref in built)
        moves += 1
        return solve(*args)

    monkeypatch.setattr(graphcut, "multiscopic_volumes", spy_build)
    monkeypatch.setattr(graphcut, "expansion_move", spy_solve)
    mset, _ = generate_scene(SceneSpec(16, 16, [SceneLayer(1), SceneLayer(3, (3, 4, 8, 7))]), seed=760)
    multiscopic_gc(mset, GcParams(), bm=BlockMatchParams(rho=1, d_min=1, d_max=4))
    assert len(built) == 4 and moves > 0


# ------------------------------------------------------- recheck weights


def test_recheck_weights_all_occluded_reduce_to_center_rule():
    # with every pixel OCCLUDED no surrounding view has a valid sample, so
    # only the center view decides; on integer intensities the float32 and
    # float64 differences are exact and the two rules agree bit for bit
    rng = np.random.default_rng(40)
    for _ in range(40):
        h, w = (int(v) for v in rng.integers(2, 12, size=2))
        theta = float(rng.integers(1, 40))
        p = GcParams(theta=theta, lambda1=float(rng.integers(3, 9)), lambda2=2.0)
        mset = MultiscopicSet(
            Image(rng.integers(0, 256, (h, w)).astype(np.float32)),
            [(dd, Image(rng.integers(0, 256, (h, w)).astype(np.float32)))
             for dd in (Direction.LEFT, Direction.RIGHT, Direction.TOP, Direction.BOTTOM)],
        )
        labels = np.full((h, w), OCCLUDED, dtype=np.int64)
        for got, want in zip(_recheck_weights(mset, labels, p), pair_weights(mset.center, p)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("theta", [5e-324, 1e-320, 0.1, 8.000000001, 1e308])
def test_pair_weights_match_the_oracle_at_fractional_intensities(theta):
    # theta is compared in float64, never rounded to float32: equal pixels
    # take lambda1 at a subnormal theta, a gap of exactly 8 takes lambda1 at
    # 8.000000001, and 1e308 neither overflows nor warns.  With every pixel
    # OCCLUDED, the recheck sees the center alone and gives the same weights
    rng = np.random.default_rng(43)
    p = GcParams(theta=theta)
    views = (Direction.LEFT, Direction.RIGHT, Direction.TOP, Direction.BOTTOM)
    for _ in range(20):
        base = rng.integers(0, 3, (6, 7)) * 8.0
        frac = rng.choice([0.0, 0.1, 0.25, 1 / 3], (6, 7))
        center = Image((base + frac).astype(np.float32))
        want = pair_weights_oracle(center.pixels, p.theta, p.lambda1, p.lambda2)
        mset = MultiscopicSet(center, [(d, Image(rng.uniform(0, 255, (6, 7)).astype(np.float32)))
                                       for d in views])
        labels = np.full((6, 7), OCCLUDED, dtype=np.int64)
        for got in (pair_weights(center, p), _recheck_weights(mset, labels, p)):
            for g, w in zip(got, want):
                assert g.dtype == np.float64
                np.testing.assert_array_equal(g, w)


def test_recheck_weights_are_float64_for_integer_lambdas():
    # integer lambdas from the Python API give the same float64 weights as
    # float ones, the dtype pair_weights always returns
    mset = _constant_shift_set(8, 8, 2, seed=42)
    labels = np.full((8, 8), 2, dtype=np.int64)
    got = _recheck_weights(mset, labels, GcParams(lambda1=9, lambda2=3))
    want = _recheck_weights(mset, labels, GcParams(lambda1=9.0, lambda2=3.0))
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        np.testing.assert_array_equal(g, w)


def test_multiscopic_gc_recheck_weights_deterministic_and_in_range():
    rng = np.random.default_rng(41)
    mset = _constant_shift_set(8, 8, 2, seed=41)
    noisy = MultiscopicSet(
        Image(np.clip(mset.center.pixels + rng.normal(0, 8, (8, 8)), 0, 255).astype(np.float32)),
        mset.surround,
    )
    p = GcParams(upscale=2, rng_seed=4, recheck_smoothness_weights=True)
    bm = BlockMatchParams(rho=1, d_min=1, d_max=4)
    a = multiscopic_gc(noisy, p, matcher="bt", bm=bm)
    b = multiscopic_gc(noisy, p, matcher="bt", bm=bm)
    assert a.values.tobytes() == b.values.tobytes()
    valid = a.valid_mask
    assert valid.any()
    assert np.isinf(a.values[~valid]).all()
    assert (a.values[valid] >= bm.d_min).all() and (a.values[valid] <= bm.d_max).all()
