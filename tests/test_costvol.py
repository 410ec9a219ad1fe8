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
    load_volume,
    multiscopic_volumes,
    sad_cost_volume,
    save_volume,
)

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


@pytest.mark.parametrize("direction", DIRS)
def test_sad_matches_oracle_int_images(direction):
    rng = np.random.default_rng(hash(direction.name) % 2**32)
    for _ in range(4):
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        rho = int(rng.integers(0, 3))
        d_max = int(rng.integers(1, 4))
        ref, tgt = _int_image(rng, h, w), _int_image(rng, h, w)
        got = sad_cost_volume(ref, tgt, direction, BlockMatchParams(rho=rho, d_min=1, d_max=d_max))
        want = sad_oracle(ref.pixels, tgt.pixels, direction.value, rho, 1, d_max)
        np.testing.assert_array_equal(got.costs, want)


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
@pytest.mark.parametrize(
    "h, w, rho, d_max",
    [
        (1, 1, 0, 1),  # every slice is the sentinel
        (1, 1, 2, 1),
        (2, 9, 2, 3),  # shorter than the block
        (9, 2, 2, 3),  # narrower than the block
        (3, 4, 3, 5),  # rho = 3 on both sides; d_max >= w and >= h
        (6, 5, 3, 7),
    ],
)
def test_sad_bit_exact_on_small_and_thin_float_images(direction, h, w, rho, d_max):
    # the padded plane is wider than the image by 2*rho on each axis, and
    # the clamped border rows and columns repeat more than once
    rng = np.random.default_rng(h * 1000 + w * 100 + rho * 10 + d_max)
    ref, tgt = _float_image(rng, h, w), _float_image(rng, h, w)
    got = sad_cost_volume(ref, tgt, direction, BlockMatchParams(rho=rho, d_min=0, d_max=d_max))
    want = sad_oracle(ref.pixels, tgt.pixels, direction.value, rho, 0, d_max, exact_f32=True)
    np.testing.assert_array_equal(got.costs, want)
    span = w if direction in (Direction.LEFT, Direction.RIGHT) else h
    if d_max >= span:
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


def test_sad_shape_mismatch_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(InputError):
        sad_cost_volume(_int_image(rng, 4, 4), _int_image(rng, 4, 5), Direction.RIGHT, BlockMatchParams())


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


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf, -np.inf])
def test_mcv_cost_contract(tmp_path, bad):
    costs = np.ones((2, 2, 3), dtype=np.float32)
    costs[1, 0, 2] = bad
    vol = CostVolume(costs, d_min=1, d_max=2)
    p = tmp_path / "bad.mcv"
    with pytest.raises(InputError, match="bad.mcv"):
        save_volume(str(p), vol)
    assert not p.exists()
    # Bytes written past the writer's check are refused by the reader too.
    costs[1, 0, 2] = 1.0
    save_volume(str(p), CostVolume(costs, d_min=1, d_max=2))
    raw = bytearray(p.read_bytes())
    raw[-4:] = np.array(bad, dtype="<f4").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad.mcv"):
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
