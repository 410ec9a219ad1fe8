"""Block SAD / BT cost volumes against brute-force scalar oracles."""

import numpy as np
import pytest

from multiscopic import (
    LARGE_COST,
    BlockMatchParams,
    CostVolume,
    Direction,
    FormatError,
    Image,
    InputError,
    MultiscopicSet,
    bt_cost_volume,
    costvol,
    load_scene,
    load_volume,
    multiscopic_slices,
    multiscopic_volumes,
    sad_cost_volume,
    save_volume,
)
from multiscopic.cli import run

from oracles import bt_oracle, sad_oracle

DIRS = [Direction.LEFT, Direction.RIGHT, Direction.TOP, Direction.BOTTOM]


def _int_image(rng, h, w):
    return Image(rng.integers(0, 256, size=(h, w)).astype(np.float32))


def _float_image(rng, h, w):
    return Image(rng.uniform(0.0, 255.0, size=(h, w)).astype(np.float32))


# ------------------------------------------------------------------- params


def test_block_match_params_validation():
    BlockMatchParams()
    BlockMatchParams(d_min=0, d_max=0)  # d = 0 is a legal hypothesis
    with pytest.raises(InputError):
        BlockMatchParams(rho=-1)
    with pytest.raises(InputError):
        BlockMatchParams(d_min=-1)
    with pytest.raises(InputError):
        BlockMatchParams(d_min=5, d_max=4)


def test_cost_volume_container():
    c = CostVolume(np.zeros((3, 2, 4), dtype=np.float32), d_min=1, d_max=3)
    assert c.num_disparities == 3 and c.height == 2 and c.width == 4
    with pytest.raises(InputError):
        CostVolume(np.zeros((2, 2, 2), dtype=np.float32), d_min=1, d_max=3)
    with pytest.raises(InputError):
        CostVolume(np.zeros((2, 2), dtype=np.float32), d_min=1, d_max=2)
    with pytest.raises(InputError, match=r"d_min <= d_max, got \[3, 2\]"):
        CostVolume(np.zeros((1, 2, 2), dtype=np.float32), d_min=3, d_max=2)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0, -0.0], ids=["nan", "-inf", "-1", "-0"])
def test_cost_volume_refuses_unclean_costs(bad):
    costs = np.ones((2, 3, 4), dtype=np.float32)
    costs[1, 2, 3] = bad
    with pytest.raises(InputError, match=r"cost volume: costs must be in \[\+0\.0, \+inf\]"):
        CostVolume(costs, d_min=1, d_max=2)
    costs[1, 2, 3] = np.inf  # a cost in memory, though not in a file
    CostVolume(costs, d_min=1, d_max=2)


# ------------------------------------------------------------------- SAD


def test_sad_zero_at_true_shift():
    # identical images: cost at d=0 would be zero; with d>=1 a uniform image
    # still matches exactly wherever the shifted block stays in frame
    img = Image(np.full((6, 6), 10.0, dtype=np.float32))
    vol = sad_cost_volume(img, img, Direction.RIGHT, BlockMatchParams(rho=1, d_min=1, d_max=3))
    costs = vol.costs
    assert costs[0, 2, 3] == 0.0
    # x < d samples off frame -> sentinel
    assert costs[2, 2, 2] == LARGE_COST


def test_sad_single_pixel_example():
    # rho=0: cost is plain absolute difference of the two samples
    ref = np.zeros((3, 3), dtype=np.float32)
    tgt = np.zeros((3, 3), dtype=np.float32)
    ref[1, 1] = 5.0
    tgt[1, 0] = 7.0
    vol = sad_cost_volume(Image(ref), Image(tgt), Direction.RIGHT, BlockMatchParams(rho=0, d_min=1, d_max=1))
    assert vol.costs[0, 1, 1] == 2.0


# (h, w, rho, d_max) of small and thin images: the padded plane is wider
# than the image by 2*rho on each axis, and the clamped border rows and
# columns repeat more than once
SMALL_AND_THIN = [
    (1, 1, 0, 1),  # every slice is the sentinel
    (1, 1, 2, 1),
    (2, 9, 2, 3),  # shorter than the block
    (9, 2, 2, 3),  # narrower than the block
    (3, 4, 3, 5),  # rho = 3 on both sides; d_max >= w and >= h
    (6, 5, 3, 7),
]


def _full_range_int_pair(rng, h, w):
    """Integer images that hold 0 and 255 between them, so the block sums
    reach (2*rho+1)^2 * 255."""
    ref, tgt = rng.integers(0, 256, size=(2, h, w)).astype(np.float32)
    ref.flat[0], ref.flat[-1] = 0.0, 255.0
    tgt.flat[0], tgt.flat[-1] = 255.0, 0.0
    return Image(ref), Image(tgt)


@pytest.mark.parametrize("direction", DIRS)
def test_sad_matches_oracle_int_images(direction):
    # integer images take the separable block sum; it must give the bits
    # of the row-major float32 sum, on random sizes and the thin shapes
    rng = np.random.default_rng(hash(direction.name) % 2**32)
    drawn = [
        (int(rng.integers(3, 9)), int(rng.integers(3, 9)), int(rng.integers(0, 4)),
         int(rng.integers(1, 4)))
        for _ in range(4)
    ]
    for h, w, rho, d_max in drawn + SMALL_AND_THIN:
        ref, tgt = _full_range_int_pair(rng, h, w)
        got = sad_cost_volume(ref, tgt, direction, BlockMatchParams(rho=rho, d_min=0, d_max=d_max))
        want = sad_oracle(ref.pixels, tgt.pixels, direction.value, rho, 0, d_max, exact_f32=True)
        np.testing.assert_array_equal(got.costs, want, err_msg=str((h, w, rho, d_max)))


# (rho, h, w): the block sums of the exact path reach (2*rho+1)^2 * 255
# in their integer type: rho 7 is the largest uint16 sum (57,375), rho 8
# the smallest past it (73,695), rho 127 the largest below 2^24
@pytest.mark.parametrize("rho, h, w", [(0, 3, 4), (7, 3, 4), (8, 3, 4), (127, 1, 2)])
def test_sad_block_sums_reach_their_integer_type_bounds(rho, h, w):
    checker = np.indices((h, w)).sum(axis=0) % 2 * np.float32(255.0)
    pairs = [
        (np.zeros((h, w), dtype=np.float32), np.full((h, w), 255.0, dtype=np.float32)),
        (checker, np.float32(255.0) - checker),
    ]
    for ref, tgt in pairs:
        got = sad_cost_volume(Image(ref), Image(tgt), Direction.RIGHT,
                              BlockMatchParams(rho=rho, d_min=0, d_max=1))
        want = sad_oracle(ref, tgt, "right", rho, 0, 1, exact_f32=True)
        np.testing.assert_array_equal(got.costs, want)
        assert got.costs[0].max() == (2 * rho + 1) ** 2 * 255


# rho whose windows 2*rho+1 have 1 to 5 binary ones (1, 3, 7, 15 and 31
# among them), summed by doubling in uint16 (rho <= 7) and uint32
@pytest.mark.parametrize("rho", [0, 1, 3, 4, 5, 7, 8, 15])
def test_sad_doubling_sums_match_the_oracle(rho):
    rng = np.random.default_rng(300 + rho)
    for direction, (h, w) in zip(DIRS, [(9, 11), (11, 9), (2 * rho + 3, 5), (4, 2 * rho + 6)]):
        ref, tgt = _full_range_int_pair(rng, h, w)
        rows = next(multiscopic_slices(MultiscopicSet(ref, [(direction, tgt)]), "sad",
                                       BlockMatchParams(rho=rho, d_min=0, d_max=2)))
        assert rows[0].dtype == np.uint32  # the exact path, which sums by doubling
        got = sad_cost_volume(ref, tgt, direction, BlockMatchParams(rho=rho, d_min=0, d_max=2))
        want = sad_oracle(ref.pixels, tgt.pixels, direction.value, rho, 0, 2)
        assert got.costs.tobytes() == want.tobytes(), (direction, h, w)


def test_sad_wide_block_keeps_the_row_major_order():
    # (2*128+1)^2 * 255 = 16842495 is past 2^24, so the sums round and only
    # the row-major order gives the oracle's bits (a separable sum gives
    # 16842496 here, the row-major one 16842748)
    ref = Image(np.zeros((1, 2), dtype=np.float32))
    tgt = Image(np.full((1, 2), 255.0, dtype=np.float32))
    got = sad_cost_volume(ref, tgt, Direction.RIGHT, BlockMatchParams(rho=128, d_min=0, d_max=1))
    want = sad_oracle(ref.pixels, tgt.pixels, "right", 128, 0, 1, exact_f32=True)
    np.testing.assert_array_equal(got.costs, want)
    assert got.costs[0, 0, 0] == 16842748.0


@pytest.mark.parametrize("side", ["ref", "target"])
def test_sad_one_fractional_pixel_keeps_the_row_major_order(side):
    # one non-integer intensity in either image makes the partial sums
    # round, so the writer must fall back to the row-major order; in the
    # corner the edge clamp repeats it in many windows, where another order
    # of the adds rounds differently
    rng = np.random.default_rng(17)
    images = {"ref": _int_image(rng, 9, 11), "target": _int_image(rng, 9, 11)}
    images[side].pixels[0, 0] = 100.3
    ref, tgt = images["ref"], images["target"]
    for direction in DIRS:
        got = sad_cost_volume(ref, tgt, direction, BlockMatchParams(rho=3, d_min=0, d_max=4))
        want = sad_oracle(ref.pixels, tgt.pixels, direction.value, 3, 0, 4, exact_f32=True)
        np.testing.assert_array_equal(got.costs, want, err_msg=direction.name)


def test_sad_bit_exact_on_float_images():
    # continuous intensities exercise the accumulation order itself
    rng = np.random.default_rng(99)
    for direction in DIRS:
        for _ in range(6):
            h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            ref, tgt = _float_image(rng, h, w), _float_image(rng, h, w)
            p = BlockMatchParams(rho=2, d_min=1, d_max=2)
            got = sad_cost_volume(ref, tgt, direction, p)
            want = sad_oracle(ref.pixels, tgt.pixels, direction.value, 2, 1, 2, exact_f32=True)
            np.testing.assert_array_equal(got.costs, want)


@pytest.mark.parametrize("direction", DIRS)
@pytest.mark.parametrize("h, w, rho, d_max", SMALL_AND_THIN)
def test_sad_bit_exact_on_small_and_thin_float_images(direction, h, w, rho, d_max):
    rng = np.random.default_rng(h * 1000 + w * 100 + rho * 10 + d_max)
    ref, tgt = _float_image(rng, h, w), _float_image(rng, h, w)
    got = sad_cost_volume(ref, tgt, direction, BlockMatchParams(rho=rho, d_min=0, d_max=d_max))
    want = sad_oracle(ref.pixels, tgt.pixels, direction.value, rho, 0, d_max, exact_f32=True)
    np.testing.assert_array_equal(got.costs, want)
    span = w if direction in (Direction.LEFT, Direction.RIGHT) else h
    if d_max >= span:
        assert (got.costs[span:] == LARGE_COST).all()


@pytest.mark.parametrize("direction", DIRS)
def test_sad_padding_bounded_by_the_image(direction):
    # padding by rho + d_max on both axes would need a ~40 GB plane here;
    # the shifted target is padded by at most the image's own extent
    rng = np.random.default_rng(50)
    ref, tgt = _float_image(rng, 3, 5), _float_image(rng, 3, 5)
    got = sad_cost_volume(ref, tgt, direction, BlockMatchParams(rho=1, d_min=0, d_max=50_000))
    assert got.costs.shape == (50_001, 3, 5)
    span = 5 if direction in (Direction.LEFT, Direction.RIGHT) else 3
    want = sad_oracle(ref.pixels, tgt.pixels, direction.value, 1, 0, span, exact_f32=True)
    np.testing.assert_array_equal(got.costs[: span + 1], want)
    assert (got.costs[span:] == LARGE_COST).all()


def test_sad_mirror_duality():
    # mirroring both images horizontally swaps LEFT and RIGHT
    rng = np.random.default_rng(5)
    ref, tgt = _int_image(rng, 6, 7), _int_image(rng, 6, 7)
    p = BlockMatchParams(rho=1, d_min=1, d_max=3)
    right = sad_cost_volume(ref, tgt, Direction.RIGHT, p).costs
    left_m = sad_cost_volume(
        Image(ref.pixels[:, ::-1]), Image(tgt.pixels[:, ::-1]), Direction.LEFT, p
    ).costs
    np.testing.assert_array_equal(right, left_m[:, :, ::-1])


def test_sad_sentinel_bands():
    img = _int_image(np.random.default_rng(6), 5, 5)
    p = BlockMatchParams(rho=1, d_min=2, d_max=2)
    for direction, sl in [
        (Direction.RIGHT, (slice(None), slice(0, 2))),
        (Direction.LEFT, (slice(None), slice(3, 5))),
        (Direction.BOTTOM, (slice(0, 2), slice(None))),
        (Direction.TOP, (slice(3, 5), slice(None))),
    ]:
        costs = sad_cost_volume(img, img, direction, p).costs[0]
        band = np.zeros((5, 5), dtype=bool)
        band[sl] = True
        assert (costs[band] == LARGE_COST).all()
        assert (costs[~band] < LARGE_COST).all()


@pytest.mark.parametrize("volume", [sad_cost_volume, bt_cost_volume], ids=["sad", "bt"])
def test_shape_mismatch_rejected(volume):
    # the one-view set checks the shapes for both matchers
    rng = np.random.default_rng(1)
    with pytest.raises(InputError, match=r"right view shape \(4, 5\) does not match center \(4, 4\)"):
        volume(_int_image(rng, 4, 4), _int_image(rng, 4, 5), Direction.RIGHT, BlockMatchParams())


# ------------------------------------------------------------------- BT


def test_bt_zero_on_identical_constant():
    img = Image(np.full((4, 4), 50.0, dtype=np.float32))
    vol = bt_cost_volume(img, img, Direction.RIGHT, BlockMatchParams(d_min=1, d_max=2))
    finite = vol.costs[vol.costs < LARGE_COST]
    assert (finite == 0.0).all()


def test_bt_interval_examples():
    # target candidates around the sampled pixel span [8, 12]
    tgt = np.full((3, 5), 10.0, dtype=np.float32)
    tgt[1, 1] = 6.0
    tgt[1, 3] = 14.0
    # candidates at (1,2): 10, (10+6)/2=8, (10+14)/2=12, vertical: 10, 10
    for ref_val, want in [(15.0, 3.0), (10.0, 0.0), (5.0, 3.0)]:
        ref = np.full((3, 5), ref_val, dtype=np.float32)
        vol = bt_cost_volume(Image(ref), Image(tgt), Direction.RIGHT, BlockMatchParams(d_min=1, d_max=1))
        assert vol.costs[0, 1, 3] == want


def test_bt_bounded_by_absolute_difference():
    rng = np.random.default_rng(13)
    ref, tgt = _float_image(rng, 6, 6), _float_image(rng, 6, 6)
    vol = bt_cost_volume(ref, tgt, Direction.RIGHT, BlockMatchParams(d_min=1, d_max=3)).costs
    for d in (1, 2, 3):
        plain = np.abs(ref.pixels[:, d:] - tgt.pixels[:, :-d])
        sub = vol[d - 1][:, d:]
        assert (sub <= plain + 1e-4).all()
        assert (sub >= 0.0).all()


@pytest.mark.parametrize("direction", DIRS)
def test_bt_matches_oracle(direction):
    rng = np.random.default_rng(hash("bt" + direction.name) % 2**32)
    for _ in range(3):
        h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        d_max = int(rng.integers(1, 4))
        ref, tgt = _float_image(rng, h, w), _float_image(rng, h, w)
        got = bt_cost_volume(ref, tgt, direction, BlockMatchParams(d_min=1, d_max=d_max))
        want = bt_oracle(ref.pixels, tgt.pixels, direction.value, 1, d_max)
        np.testing.assert_allclose(got.costs, want, rtol=0, atol=1e-4)


# ------------------------------------------------------------- multiscopic


def test_multiscopic_volumes_matches_single_calls():
    rng = np.random.default_rng(21)
    center = _int_image(rng, 6, 6)
    views = [(d, _int_image(rng, 6, 6)) for d in DIRS]
    mset = MultiscopicSet(center=center, surround=views)
    p = BlockMatchParams(rho=1, d_min=1, d_max=3)
    vols = multiscopic_volumes(mset, "sad", p)
    assert len(vols) == 4
    for (direction, img), vol in zip(views, vols):
        single = sad_cost_volume(center, img, direction, p)
        np.testing.assert_array_equal(vol.costs, single.costs)
    with pytest.raises(InputError):
        multiscopic_volumes(mset, "census", p)


def test_multiscopic_volumes_bt_path():
    rng = np.random.default_rng(22)
    center = _int_image(rng, 5, 5)
    mset = MultiscopicSet(center=center, surround=[(Direction.TOP, _int_image(rng, 5, 5))])
    vols = multiscopic_volumes(mset, "bt", BlockMatchParams(d_min=1, d_max=2))
    single = bt_cost_volume(center, mset.surround[0][1], Direction.TOP, BlockMatchParams(d_min=1, d_max=2))
    np.testing.assert_array_equal(vols[0].costs, single.costs)


@pytest.mark.parametrize("direction", DIRS)
@pytest.mark.parametrize("matcher, exact", [("sad", True), ("sad", False), ("bt", None)],
                         ids=["sad-integer", "sad-float", "bt"])
def test_matchers_write_contract_costs_on_signed_zero_pixels(direction, matcher, exact):
    # images holding -0.0 and +0.0 pixels, and halves where SAD is to take
    # its float32 summation: every cost written is in [+0.0, +inf]
    rng = np.random.default_rng(41)
    pixels = rng.integers(0, 3, size=(2, 12, 14)).astype(np.float32)
    if exact is False:
        pixels += np.float32(0.5) * rng.integers(0, 2, size=pixels.shape)
    pixels[(pixels == 0) & (rng.random(pixels.shape) < 0.5)] = -0.0
    ref, target = Image(pixels[0]), Image(pixels[1])
    assert np.signbit(ref.pixels).any() and np.signbit(target.pixels).any()
    p = BlockMatchParams(rho=1, d_min=0, d_max=13)
    # the row dtype of the one-view set names the path SAD took
    for k, rows in enumerate(multiscopic_slices(MultiscopicSet(ref, [(direction, target)]),
                                                matcher, p)):
        assert rows[0].dtype == (np.uint32 if exact else np.float32)
        costvol.check_costs(rows[0].astype(np.float32), f"slice {k}")


def test_multiscopic_slices_are_uint32_when_every_sad_writer_is_exact(tmp_path):
    # SAD on a PGM scene streams uint32 rows holding the volumes' costs; BT,
    # a view with one fractional luma value and rho 128 stream float32
    assert run(["synth", "--scenes", "1", "--seed", "9", "--out", str(tmp_path), "--width", "20",
                "--height", "14", "--disp-min", "0", "--disp-max", "4"]) == 0
    mset, _ = load_scene(tmp_path / "scene_0000")
    p = BlockMatchParams(rho=2, d_min=0, d_max=6)
    vols = multiscopic_volumes(mset, "sad", p)
    for k, rows in enumerate(multiscopic_slices(mset, "sad", p)):
        assert [row.dtype for row in rows] == [np.uint32] * 4
        assert np.stack(rows).astype(np.float32).tobytes() == np.stack([v.costs[k] for v in vols]).tobytes()
    direction, view = mset.surround[2]
    pixels = view.pixels.copy()
    pixels[3, 4] += np.float32(0.5)
    fractional = MultiscopicSet(mset.center, mset.surround[:2] + [(direction, Image(pixels))])
    one_view = MultiscopicSet(mset.center, mset.surround[:1])
    for matcher, views, q in [("bt", mset, p), ("sad", fractional, p),
                              ("sad", one_view, BlockMatchParams(rho=128, d_min=0, d_max=0))]:
        rows = next(multiscopic_slices(views, matcher, q))
        assert [row.dtype for row in rows] == [np.float32] * len(views.surround)


# (views, extent) on a 6x9 image: the largest extent along the views'
# shift axes
_FRAMES = [((Direction.LEFT, Direction.RIGHT), 9), ((Direction.TOP, Direction.BOTTOM), 6),
           ((Direction.BOTTOM, Direction.LEFT), 9)]


@pytest.mark.parametrize("d_min, d_max", [(0, 3), (2, 40), (8, 40), (9, 12), (30, 30)])
@pytest.mark.parametrize("views, extent", _FRAMES, ids=["horizontal", "vertical", "mixed"])
@pytest.mark.parametrize("matcher", ["sad", "bt"])
def test_stream_ends_where_every_view_has_left_the_frame(matcher, views, extent, d_min, d_max):
    # d_min's list is yielded even when it is past every frame; the volumes
    # hold every disparity of the range, the oracle's bytes
    rng = np.random.default_rng(70 + d_min)
    center = _int_image(rng, 6, 9)
    mset = MultiscopicSet(center, [(d, _int_image(rng, 6, 9)) for d in views])
    p = BlockMatchParams(rho=1, d_min=d_min, d_max=d_max)
    lists = sum(1 for _ in multiscopic_slices(mset, matcher, p))
    assert lists == max(1, min(p.num_disparities, extent - d_min))
    for (direction, img), vol in zip(mset.surround, multiscopic_volumes(mset, matcher, p)):
        if matcher == "sad":
            want = sad_oracle(center.pixels, img.pixels, direction.value, 1, d_min, d_max)
        else:
            want = bt_oracle(center.pixels, img.pixels, direction.value, d_min, d_max)
        assert vol.costs.tobytes() == want.tobytes(), direction


# int16 images (rho 2 and 7) and int32 images (rho 8) on each integer
# view's own exact path
@pytest.mark.parametrize("rho", [2, 7, 8])
@pytest.mark.parametrize("fractional_first", [False, True])
def test_shared_scratch_keeps_each_views_costs(rho, fractional_first):
    # one set of integer views and one fractional-luma view, whose writers
    # share one set of buffers: the set sums row-major in float32, and each
    # view, the fractional one first or not, streams the bytes of its own
    # sad_cost_volume, which sums the integer views exactly
    rng = np.random.default_rng(60 + rho)
    center = _int_image(rng, 13, 17)
    fractional = Image(rng.integers(0, 256, size=(13, 17)).astype(np.float32) * np.float32(0.587))
    views = [(Direction.LEFT, _int_image(rng, 13, 17)), (Direction.TOP, fractional),
             (Direction.BOTTOM, _int_image(rng, 13, 17))]
    if fractional_first:
        views = views[1:] + views[:1]
    mset = MultiscopicSet(center, views)
    p = BlockMatchParams(rho=rho, d_min=0, d_max=5)
    want = [sad_cost_volume(center, img, direction, p).costs for direction, img in views]
    got = np.stack([np.stack(rows) for rows in multiscopic_slices(mset, "sad", p)], axis=1)
    assert got.dtype == np.float32
    assert got.tobytes() == np.stack(want).tobytes()
    assert np.stack([v.costs for v in multiscopic_volumes(mset, "sad", p)]).tobytes() == got.tobytes()


# ------------------------------------------------------------------- format


def test_mcv_round_trip(tmp_path):
    rng = np.random.default_rng(30)
    costs = rng.uniform(0, 100, size=(4, 3, 5)).astype(np.float32)
    costs[0, 0, 0] = LARGE_COST
    vol = CostVolume(costs, d_min=2, d_max=5)
    p = tmp_path / "v.mcv"
    save_volume(str(p), vol)
    back = load_volume(str(p))
    assert back.d_min == 2 and back.d_max == 5
    np.testing.assert_array_equal(back.costs, costs)


def test_mcv_header_layout(tmp_path):
    vol = CostVolume(np.zeros((1, 2, 3), dtype=np.float32), d_min=1, d_max=1)
    p = tmp_path / "h.mcv"
    save_volume(str(p), vol)
    raw = p.read_bytes()
    assert raw[:4] == b"MCV1"
    assert len(raw) == 4 + 16 + 1 * 2 * 3 * 4


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf, -np.inf, -0.0])
def test_mcv_cost_contract(tmp_path, bad):
    # .mcv costs are finite and in [+0.0, +inf); CostVolume lets only +inf
    # of these through, so the others are set after it checked its costs
    vol = CostVolume(np.ones((2, 2, 3), dtype=np.float32), d_min=1, d_max=2)
    vol.costs[1, 0, 2] = bad
    p = tmp_path / "bad.mcv"
    with pytest.raises(InputError, match=r"bad.mcv: costs must be in \[\+0\.0, \+inf\)"):
        save_volume(str(p), vol)
    assert not p.exists()
    # Bytes written past the writer's check are refused by the reader too.
    vol.costs[1, 0, 2] = 1.0
    save_volume(str(p), vol)
    raw = bytearray(p.read_bytes())
    raw[-4:] = np.array(bad, dtype="<f4").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"bad.mcv: costs must be in \[\+0\.0, \+inf\)"):
        load_volume(str(p))


def test_mcv_rejects_corruption(tmp_path):
    vol = CostVolume(np.zeros((2, 2, 2), dtype=np.float32), d_min=1, d_max=2)
    p = tmp_path / "v.mcv"
    save_volume(str(p), vol)
    raw = p.read_bytes()
    bad_magic = tmp_path / "m.mcv"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        load_volume(str(bad_magic))
    short = tmp_path / "s.mcv"
    short.write_bytes(raw[:-5])
    with pytest.raises(FormatError):
        load_volume(str(short))
    trailing = tmp_path / "t.mcv"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        load_volume(str(trailing))
