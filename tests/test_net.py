"""Fusion network: forward semantics, analytic gradients, training, format."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from multiscopic import (
    CostVolume,
    DisparityMap,
    FormatError,
    FusionNet,
    InputError,
    LARGE_COST,
    TrainConfig,
    TrainingError,
    backward,
    forward,
    grad_check,
    init_network,
    load_net,
    save_net,
    smooth_l1,
    train,
)
from multiscopic.layers import (
    concat_backward,
    concat_forward,
    conv3d_backward,
    conv3d_forward,
    relu_backward,
    relu_forward,
    softmax_neg_backward,
    softmax_neg_forward,
    upsample_nearest_backward,
    upsample_nearest_forward,
)
from multiscopic import layers
from multiscopic.net import KERNEL, LAYER_SPECS, Conv3d, normalize_volume

from oracles import conv3d_oracle, conv3d_reference


def _vol(arr, d_min=1):
    arr = np.asarray(arr, dtype=np.float32)
    return CostVolume(arr, d_min=d_min, d_max=d_min + arr.shape[0] - 1)


def _rand_vols(rng, n, d, h, w, d_min=1):
    return [
        _vol(rng.uniform(0, 30, size=(d, h, w)).astype(np.float32), d_min=d_min)
        for _ in range(n)
    ]


def _sample(seed=0, n=2, d=4, h=6, w=6):
    rng = np.random.default_rng(seed)
    vols = _rand_vols(rng, n, d, h, w)
    gt = DisparityMap(rng.uniform(1, d, size=(h, w)).astype(np.float32))
    mask = np.ones((h, w), dtype=bool)
    return vols, gt, mask


# ------------------------------------------------------------------- layers


# (input shape (C_in, D, H, W), stride): one channel on a cube, then several
# channels on odd and unequal D/H/W, each at stride 1 and 2.
_CONV_CASES = [
    ((1, 3, 3, 3), 1),
    ((1, 3, 3, 3), 2),
    ((2, 4, 5, 4), 1),
    ((2, 4, 5, 4), 2),
    ((2, 5, 4, 3), 1),
    ((2, 5, 4, 3), 2),
    ((3, 7, 9, 11), 1),
    ((3, 7, 9, 11), 2),
]


def test_conv3d_matches_scalar_oracle():
    # float32 sums 27 * C_in products of unit-scale values: its error is a
    # few ulps of the largest partial sum, far inside 1e-5.
    rng = np.random.default_rng(1)
    for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-5)):
        for shape, stride in _CONV_CASES:
            x = rng.standard_normal(shape).astype(dtype)
            w = rng.standard_normal((3, shape[0], 3, 3, 3)).astype(dtype)
            b = rng.standard_normal(3).astype(dtype)
            got, _ = conv3d_forward(x, w, b, stride=stride)
            want = conv3d_oracle(x, w, b, stride=stride, pad=1)
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def test_conv3d_backward_finite_difference():
    rng = np.random.default_rng(2)
    eps = 1e-6
    for shape, stride in _CONV_CASES:
        x = rng.standard_normal(shape)
        w = rng.standard_normal((2, shape[0], 3, 3, 3))
        b = rng.standard_normal(2)
        out, cache = conv3d_forward(x, w, b, stride=stride)
        gout = rng.standard_normal(out.shape)
        dx, dw, db = conv3d_backward(gout, cache)
        assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
        for arr, grad in ((x, dx), (w, dw), (b, db)):
            flat = arr.reshape(-1)
            idx = rng.integers(0, flat.size, size=5)
            for i in idx:
                old = flat[i]
                flat[i] = old + eps
                up = float((conv3d_forward(x, w, b, stride=stride)[0] * gout).sum())
                flat[i] = old - eps
                dn = float((conv3d_forward(x, w, b, stride=stride)[0] * gout).sum())
                flat[i] = old
                num = (up - dn) / (2 * eps)
                assert grad.reshape(-1)[i] == pytest.approx(num, rel=1e-5, abs=1e-7)


# (C_in, C_out, (D, H, W), stride): flat output runs that span three or more
# column blocks and end inside one, in the forward (blocks sized from C_in)
# and in the backward (sized from max(C_in, C_out)), for both dtypes.
_BLOCKED_CASES = [
    (1, 4, (12, 66, 254), 1),
    (1, 4, (50, 126, 254), 2),
    (16, 8, (8, 24, 60), 1),
    (16, 8, (30, 62, 62), 2),
]


@pytest.mark.parametrize("c_in, c_out, dims, stride", _BLOCKED_CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv3d_across_column_blocks(c_in, c_out, dims, stride, dtype):
    shape = (c_in,) + dims
    span = layers._phase_layout(shape, 3, stride)[2]
    for channels in (c_in, max(c_in, c_out)):
        blocks = layers._blocks(span, channels, dtype)
        assert len(blocks) >= 3 and blocks[-1][1] - blocks[-1][0] < blocks[0][1]
    rng = np.random.default_rng(c_in * 10 + stride)
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((c_out, c_in, 3, 3, 3)).astype(dtype)
    out, cache = conv3d_forward(x, w, np.zeros(c_out, dtype), stride=stride)
    want = conv3d_reference(x, w, np.zeros(c_out), stride=stride)
    # float32 sums 27 * C_in unit-scale products: a few ulps of ~sqrt(27 * C_in).
    tol = 1e-4 if dtype == np.float32 else 1e-10
    np.testing.assert_allclose(out, want, rtol=tol, atol=tol)

    # The backward is the adjoint of the forward, which is linear in x and
    # in w: <conv(x, w), g> = <x, dx> = <w, dw>.
    g = rng.standard_normal(out.shape).astype(dtype)
    dx, dw, db = conv3d_backward(g, cache)
    f64 = np.float64
    lhs = float((want * g).sum())
    scale = float(np.abs(want * g).sum())
    assert float((x.astype(f64) * dx).sum()) == pytest.approx(lhs, abs=tol * scale)
    assert float((w.astype(f64) * dw).sum()) == pytest.approx(lhs, abs=tol * scale)
    np.testing.assert_allclose(db, g.reshape(c_out, -1).sum(axis=1, dtype=f64), rtol=tol)


def test_layer_ops_keep_float32():
    rng = np.random.default_rng(5)
    f32 = np.float32
    x = rng.standard_normal((2, 5, 4, 3)).astype(f32)
    for stride in (1, 2):
        w = rng.standard_normal((3, 2, 3, 3, 3)).astype(f32)
        out, cache = conv3d_forward(x, w, np.zeros(3, f32), stride=stride)
        assert out.dtype == f32
        assert all(g.dtype == f32 for g in conv3d_backward(np.ones_like(out), cache))
    out, mask = relu_forward(x)
    assert out.dtype == f32 and relu_backward(out, mask).dtype == f32
    out, cache = upsample_nearest_forward(x, (9, 8, 6))
    assert out.dtype == f32 and upsample_nearest_backward(out, cache).dtype == f32
    out, cache = concat_forward([x, x])
    assert out.dtype == f32 and all(g.dtype == f32 for g in concat_backward(out, cache))
    # The probabilities are float64 by design (float32 exp underflows);
    # the gradient returns to the scores' dtype.
    p, cache = softmax_neg_forward(x[0])
    assert p.dtype == np.float64
    assert softmax_neg_backward(p.astype(f32), cache).dtype == f32


@pytest.mark.parametrize("c", [-50.0, 0.5, 1e3])
def test_softmax_neg_ignores_a_constant_added_to_every_score(c):
    # why the head has no bias: one constant added to every score leaves
    # the soft-argmin's probabilities unchanged, to rounding
    scores = np.random.default_rng(5).standard_normal((6, 4, 5)) * 3.0
    p0, _ = softmax_neg_forward(scores)
    p1, _ = softmax_neg_forward(scores + c)
    np.testing.assert_allclose(p1, p0, rtol=1e-12, atol=0)


def test_conv3d_without_bias_matches_a_zero_bias():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 4, 5, 4))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    out, cache = conv3d_forward(x, w, None, stride=2)
    ref, ref_cache = conv3d_forward(x, w, np.zeros(3), stride=2)
    np.testing.assert_array_equal(out, ref)
    g = rng.standard_normal(out.shape)
    dx, dw, db = conv3d_backward(g, cache)
    ref_dx, ref_dw, _ = conv3d_backward(g, ref_cache)
    assert db is None
    np.testing.assert_array_equal(dx, ref_dx)
    np.testing.assert_array_equal(dw, ref_dw)


def test_upsample_nearest_shapes_and_adjoint():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 4, 5))
    target = (5, 7, 9)  # odd targets within [s, 2s]
    y, cache = upsample_nearest_forward(x, target)
    assert y.shape == (2, 5, 7, 9)
    # nearest gather: every output cell copies floor-half source
    assert y[0, 4, 6, 8] == x[0, 2, 3, 4]
    # adjoint identity: <y, g> == <x, backward(g)>
    g = rng.standard_normal(y.shape)
    dx = upsample_nearest_backward(g, cache)
    assert float((y * g).sum()) == pytest.approx(float((x * dx).sum()), rel=1e-10)


# ------------------------------------------------------------------ forward


def test_param_count_within_budget():
    net = init_network(0)
    assert net.param_count() == 10308
    assert net.param_count() <= 20000


@pytest.mark.parametrize("layer, bias", [("head", np.zeros(1)), ("mid", None)])
def test_fusion_net_takes_a_bias_exactly_where_the_spec_has_one(layer, bias):
    convs = dict(init_network(0).convs)
    convs[layer] = Conv3d(convs[layer].w, bias)
    with pytest.raises(InputError, match=f"layer '{layer}' has wrong parameter shapes"):
        FusionNet(convs)


def test_fresh_net_outputs_uniform_prior():
    net = init_network(0)
    vols, _, _ = _sample(d=5, h=4, w=4)
    prob, disp = forward(net, vols)
    assert prob.shape == (5, 4, 4)
    np.testing.assert_allclose(prob, 1.0 / 5.0, atol=1e-6)
    np.testing.assert_allclose(disp.values, (1 + 5) / 2.0, atol=1e-5)


def test_probabilities_sum_to_one_and_disp_in_range():
    rng = np.random.default_rng(4)
    net = init_network(7)
    # randomize the head so outputs are non-trivial
    net.convs["head"].w = rng.standard_normal(net.convs["head"].w.shape).astype(np.float32) * 0.1
    vols, _, _ = _sample(seed=5, d=6, h=5, w=7)
    prob, disp = forward(net, vols)
    np.testing.assert_allclose(prob.sum(axis=0), 1.0, atol=1e-5)
    assert (prob >= 0).all()
    assert (disp.values >= 1.0).all() and (disp.values <= 6.0).all()


def test_one_hot_probability_regresses_to_that_disparity():
    # feed a synthetic probability volume through the expectation by making
    # the softmax input hugely favour one slice
    net = init_network(0)
    vols, _, _ = _sample(seed=6, d=5, h=3, w=3)
    prob, disp = forward(net, vols)
    # uniform prior gives the midpoint; now emulate a peaked head by direct
    # expectation over a one-hot probability
    one_hot = np.zeros_like(prob)
    one_hot[3] = 1.0
    dvals = np.arange(1, 6, dtype=np.float64)
    expect = np.tensordot(dvals, one_hot, axes=(0, 0))
    assert (expect == 4.0).all()


def test_volume_count_invariance_when_views_identical():
    # the shared stem averages across volumes: n identical copies behave
    # exactly like a single volume regardless of n
    net = init_network(3)
    rng = np.random.default_rng(8)
    v = _vol(rng.uniform(0, 10, size=(4, 6, 6)).astype(np.float32))
    p1, d1 = forward(net, [v])
    p3, d3 = forward(net, [v, v, v])
    np.testing.assert_allclose(p1, p3, atol=1e-6)
    np.testing.assert_allclose(d1.values, d3.values, atol=1e-5)


def test_forward_accepts_one_to_four_volumes():
    net = init_network(1)
    for n in (1, 2, 3, 4):
        vols, _, _ = _sample(seed=n, n=n, d=4, h=5, w=5)
        prob, disp = forward(net, vols)
        assert prob.shape == (4, 5, 5)
    with pytest.raises(InputError):
        forward(net, [])


def test_forward_handles_odd_sizes():
    net = init_network(2)
    vols, _, _ = _sample(seed=9, d=3, h=7, w=9)
    prob, _ = forward(net, vols)
    assert prob.shape == (3, 7, 9)


def test_forward_holds_no_backward_state():
    # inference keeps only the activations still to be read: no conv phases
    # or ReLU masks outlive their op.  Keeping every op's cache, as the
    # backward must, peaks near 790 bytes per cost cell at this shape.
    net = init_network(0)
    d, h, w = 16, 64, 64
    vols = _rand_vols(np.random.default_rng(0), 4, d, h, w)
    forward(net, vols)
    tracemalloc.start()
    try:
        forward(net, vols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (d * h * w) <= 400


def test_translation_consistency_on_shifted_volume():
    # shifting the cost volume on the stride lattice shifts the output
    net = init_network(5)
    rng = np.random.default_rng(10)
    base = rng.uniform(0, 5, size=(4, 10, 10)).astype(np.float32)
    shifted = np.roll(base, 2, axis=2)
    _, d0 = forward(net, [_vol(base)])
    _, d1 = forward(net, [_vol(shifted)])
    # compare interiors away from the wrapped boundary
    np.testing.assert_allclose(
        d0.values[:, 2:-4], d1.values[:, 4:-2], atol=5e-4
    )


def test_normalize_volume_clamps_then_standardizes():
    costs = np.array([[[1.0, 2.0]], [[3.0, LARGE_COST]]], dtype=np.float32)
    std = normalize_volume(_vol(costs))
    assert abs(std.astype(np.float64).mean()) < 1e-6
    assert std.astype(np.float64).std() == pytest.approx(1.0, abs=1e-5)
    # the sentinel is clamped to the largest finite cost before the statistics
    assert std[1, 0, 1] == std[1, 0, 0]
    flat = normalize_volume(_vol(np.full((2, 1, 1), 4.0, dtype=np.float32)))
    assert (flat == 0).all()
    # no finite cost to clamp to: every cell conditions to zero
    blank = normalize_volume(_vol(np.full((2, 1, 3), LARGE_COST, dtype=np.float32)))
    assert blank.dtype == np.float32 and (blank == 0).all()


# --------------------------------------------------------------------- loss


def test_smooth_l1_hand_values():
    gt = DisparityMap(np.zeros((1, 3), dtype=np.float32))
    mask = np.ones((1, 3), dtype=bool)
    assert smooth_l1(np.zeros((1, 3)), gt, mask) == 0.0
    assert smooth_l1(np.full((1, 3), 0.5), gt, mask) == pytest.approx(0.125)
    assert smooth_l1(np.full((1, 3), 2.0), gt, mask) == pytest.approx(1.5)


def test_smooth_l1_masked_mean():
    gt = DisparityMap(np.zeros((1, 2), dtype=np.float32))
    pred = np.array([[2.0, 100.0]])
    mask = np.array([[True, False]])
    assert smooth_l1(pred, gt, mask) == pytest.approx(1.5)
    with pytest.raises(InputError):
        smooth_l1(pred, gt, np.zeros((1, 2), dtype=bool))


# ---------------------------------------------------------------- gradients


def test_grad_check_float64_tight():
    net = init_network(11, dtype=np.float64)
    sample = _sample(seed=12, n=2, d=4, h=6, w=6)
    # break the zero head so its gradient path is exercised too
    rng = np.random.default_rng(13)
    net.convs["head"].w += rng.standard_normal(net.convs["head"].w.shape) * 0.05
    err = grad_check(net, sample, epsilon=1e-5, num_checks=80, rng_seed=1)
    assert err < 1e-6


def test_grad_check_float32_loose():
    net = init_network(14)
    sample = _sample(seed=15, n=3, d=4, h=6, w=6)
    err = grad_check(net, sample, epsilon=1e-3, num_checks=60, rng_seed=2)
    assert err < 1e-3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_gradients_keep_net_dtype(dtype):
    net = init_network(12, dtype=dtype)
    rng = np.random.default_rng(120)
    head = net.convs["head"].w
    head += (rng.standard_normal(head.shape) * 0.05).astype(dtype)
    vols, gt, mask = _sample(seed=121, n=2, d=4, h=5, w=7)
    _, grads = backward(net, vols, gt, mask)
    assert sorted(grads) == sorted(name for name, _ in net.parameters())
    assert {name: g.dtype for name, g in grads.items()} == dict.fromkeys(grads, np.dtype(dtype))


def test_dead_relu_units_have_zero_weight_gradient():
    net = init_network(16, dtype=np.float64)
    # the head starts at zero, which blocks gradients below it; unblock it
    rng = np.random.default_rng(160)
    net.convs["head"].w += rng.standard_normal(net.convs["head"].w.shape) * 0.1
    # drive stem1 channel 0 permanently negative
    net.convs["stem1"].b[0] = -1e4
    vols, gt, mask = _sample(seed=17, n=2, d=4, h=5, w=5)
    _, grads = backward(net, vols, gt, mask)
    assert (grads["stem1.w"][0] == 0).all()
    assert grads["stem1.b"][0] == 0.0
    # a live channel still learns
    assert np.abs(grads["stem1.w"][1]).max() > 0


def test_backward_empty_mask_rejected():
    net = init_network(18)
    vols, gt, _ = _sample(seed=19)
    with pytest.raises(InputError):
        backward(net, vols, gt, np.zeros((6, 6), dtype=bool))


@pytest.mark.parametrize("which", ["gt", "mask"])
def test_backward_rejects_gt_or_mask_of_another_shape(which):
    net = init_network(18)
    vols, gt, mask = _sample(seed=19, n=2, d=4, h=5, w=7)
    small = np.ones((3, 4), dtype=np.float32)
    if which == "gt":
        gt = DisparityMap(small)
    else:
        mask = small > 0
    with pytest.raises(InputError, match=r"shapes differ: \(5, 7\), "):
        backward(net, vols, gt, mask)


# ----------------------------------------------------------------- training


def test_train_single_sample_loss_drops():
    net = init_network(20)
    sample = _sample(seed=21, n=2, d=4, h=6, w=6)
    cfg = TrainConfig(learning_rate=3e-3, epochs=30, rng_seed=4)
    trained, losses = train([sample], cfg, net=net)
    assert len(losses) == 30
    assert losses[-1] < losses[0] * 0.8
    assert trained is net  # in-place update of the provided net


def test_train_deterministic_given_seed():
    sample = _sample(seed=22)
    cfg = TrainConfig(learning_rate=1e-3, epochs=5, rng_seed=9)
    _, l1 = train([sample], cfg)
    _, l2 = train([sample], cfg)
    assert l1 == l2


def test_train_aborts_on_non_finite_loss():
    net = init_network(23)
    net.convs["enc1"].w[:] = np.inf
    sample = _sample(seed=24)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError):
            train([sample], TrainConfig(epochs=1), net=net)


@pytest.mark.parametrize("lr", [float("inf"), float("nan"), -1e-3, 0.0])
def test_train_config_rejects_meaningless_learning_rate(lr):
    with pytest.raises(InputError, match=f"learning_rate must be finite and positive, got {lr}"):
        TrainConfig(learning_rate=lr)


def test_train_names_parameter_an_overflowing_step_breaks():
    # a finite rate whose first Adam step leaves stem1.w at +-inf in float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingError, match=r"parameter stem1\.w .* epoch 0, sample 0"):
            train([_sample(seed=25)], TrainConfig(learning_rate=1e308), net=init_network(26))


def test_train_rejects_empty_dataset():
    with pytest.raises(InputError):
        train([], TrainConfig())


# ------------------------------------------------------------------- format


def test_save_load_round_trip_bit_exact(tmp_path):
    net = init_network(25)
    rng = np.random.default_rng(26)
    for name, arr in net.parameters():
        arr += rng.standard_normal(arr.shape).astype(arr.dtype) * 0.01
    p = tmp_path / "n.mfn"
    save_net(net, str(p))
    back = load_net(str(p))
    for (an, aa), (bn, ba) in zip(net.parameters(), back.parameters()):
        assert an == bn
        np.testing.assert_array_equal(aa, ba)
    # loaded net computes identically
    vols, _, _ = _sample(seed=27)
    _, d0 = forward(net, vols)
    _, d1 = forward(back, vols)
    np.testing.assert_array_equal(d0.values, d1.values)


# magic, uint32 version, uint32 layer count
_MFN_HEADER = struct.calcsize("<4sII")


def test_save_header_magic(tmp_path):
    net = init_network(28)
    p = tmp_path / "n.mfn"
    save_net(net, str(p))
    assert p.read_bytes()[:4] == b"MFN1"


def test_mfn2_layout(tmp_path):
    # the README's layout: 12-byte header, one descriptor per layer (u8
    # name length, name, "<BIIII"), then the float32 parameters, which hold
    # no head bias
    net = init_network(28)
    p = tmp_path / "n.mfn"
    save_net(net, str(p))
    raw = p.read_bytes()
    assert struct.unpack("<4sII", raw[:12]) == (b"MFN1", 2, len(LAYER_SPECS))
    assert len(raw) == 12 + sum(18 + len(name) for name, *_ in LAYER_SPECS) + 4 * 10308
    names = [name for name, _ in net.parameters()]
    assert "head.b" not in names and names[-1] == "head.w"


def test_load_refuses_version_1(tmp_path):
    # a version-1 file: the header carried a u8 norm code after the
    # version, and the payload a head.b after head.w
    net = init_network(28)
    blob = b"MFN1" + struct.pack("<IBI", 1, 0, len(LAYER_SPECS))
    for name, c_in, c_out, stride, _ in LAYER_SPECS:
        blob += struct.pack("<B", len(name)) + name.encode("ascii")
        blob += struct.pack("<BIIII", 0, c_in, c_out, KERNEL, stride)
    for name, _, c_out, _, _ in LAYER_SPECS:
        blob += net.convs[name].w.astype("<f4").tobytes()
        blob += np.zeros(c_out, dtype="<f4").tobytes()
    p = tmp_path / "v1.mfn"
    p.write_bytes(blob)
    with pytest.raises(FormatError, match=r"v1\.mfn: unsupported version 1$"):
        load_net(str(p))


def test_load_rejects_corruption(tmp_path):
    net = init_network(29)
    p = tmp_path / "n.mfn"
    save_net(net, str(p))
    raw = p.read_bytes()
    for bad in (b"XXXX" + raw[4:], raw[:-3], raw + b"\x00\x00"):
        q = tmp_path / "bad.mfn"
        q.write_bytes(bad)
        with pytest.raises(FormatError):
            load_net(str(q))


def test_load_rejects_wrong_inventory(tmp_path):
    net = init_network(30)
    p = tmp_path / "n.mfn"
    save_net(net, str(p))
    raw = bytearray(p.read_bytes())
    # tamper with the first layer's kernel size field in its descriptor:
    # the header, then a u8 name length, the name and "<BIIII" (tag, c_in,
    # c_out, kernel, stride)
    ofs = _MFN_HEADER
    desc = ofs + 1 + raw[ofs]
    kern_ofs = desc + struct.calcsize("<BII")
    assert raw[kern_ofs] == KERNEL
    raw[kern_ofs] = 5
    q = tmp_path / "tampered.mfn"
    q.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_net(str(q))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weights_must_be_finite(tmp_path, bad):
    p = tmp_path / "n.mfn"
    for dtype, value in ((np.float32, bad), (np.float64, bad), (np.float64, 1e39)):
        net = init_network(32, dtype=dtype)
        net.convs["mid"].w[0, 0, 1, 1, 1] = value  # 1e39 overflows float32
        with pytest.raises(InputError, match="n.mfn.*mid.w"):
            save_net(net, str(p))
        assert not p.exists()
    save_net(init_network(32), str(p))
    raw = bytearray(p.read_bytes())
    raw[-4:] = np.array(bad, dtype="<f4").tobytes()  # the last weight, of head.w
    q = tmp_path / "nan.mfn"
    q.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="nan.mfn.*head.w"):
        load_net(str(q))


def test_load_rejects_non_ascii_layer_name(tmp_path):
    p = tmp_path / "n.mfn"
    save_net(init_network(31), str(p))
    raw = bytearray(p.read_bytes())
    raw[_MFN_HEADER + 1] = 0xFF  # first byte of the first layer name, after its u8 length
    q = tmp_path / "name.mfn"
    q.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="name.mfn"):
        load_net(str(q))
