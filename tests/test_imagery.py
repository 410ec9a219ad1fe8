"""Image containers, Netpbm/PFM round trips, and false-colour mapping."""

import io
import struct
import warnings

import numpy as np
import pytest

from multiscopic import (
    ColorImage,
    Direction,
    DisparityMap,
    FormatError,
    Image,
    InputError,
    MultiscopicSet,
    UnsupportedError,
    colorize_jet,
    read_image,
    to_grayscale,
    write_image,
)

RNG = np.random.default_rng(20260814)


def _rand_gray(rng, h, w):
    return Image(rng.integers(0, 256, size=(h, w)).astype(np.float32))


def _rand_color(rng, h, w):
    return ColorImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def _rand_disp(rng, h, w, invalid_frac=0.1):
    d = rng.uniform(-4.0, 60.0, size=(h, w)).astype(np.float32)
    mask = rng.random((h, w)) < invalid_frac
    d[mask] = np.inf
    return DisparityMap(d)


# ---------------------------------------------------------------- containers


def test_image_validation():
    Image(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(InputError):
        Image(np.zeros((2, 3, 1), dtype=np.float32))
    with pytest.raises(InputError):
        Image(np.full((2, 2), 256.0, dtype=np.float32))
    with pytest.raises(InputError):
        Image(np.full((2, 2), -1.0, dtype=np.float32))
    with pytest.raises(InputError):
        Image(np.full((2, 2), np.nan, dtype=np.float32))
    with pytest.raises(InputError):
        Image(np.zeros((0, 3), dtype=np.float32))


def test_color_image_validation():
    ColorImage(np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(InputError):
        ColorImage(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(InputError):
        ColorImage(np.zeros((2, 2, 4), dtype=np.uint8))


def test_disparity_map_nonfinite_normalised_to_inf():
    d = DisparityMap(np.array([[1.0, np.nan], [-np.inf, 4.5]], dtype=np.float32))
    assert np.isposinf(d.values[0, 1])
    assert np.isposinf(d.values[1, 0])
    assert d.valid_mask.tolist() == [[True, False], [False, True]]


def test_multiscopic_set_validation():
    c = _rand_gray(RNG, 4, 4)
    r = _rand_gray(RNG, 4, 4)
    s = MultiscopicSet(center=c, surround=[(Direction.RIGHT, r)])
    assert s.width == 4 and s.height == 4
    with pytest.raises(InputError):
        MultiscopicSet(center=c, surround=[])
    with pytest.raises(InputError):
        MultiscopicSet(
            center=c,
            surround=[(Direction.RIGHT, r), (Direction.RIGHT, _rand_gray(RNG, 4, 4))],
        )
    with pytest.raises(InputError):
        MultiscopicSet(center=c, surround=[(Direction.LEFT, _rand_gray(RNG, 4, 5))])


def test_direction_offsets():
    assert Direction.LEFT.offset(3) == (3, 0)
    assert Direction.RIGHT.offset(3) == (-3, 0)
    assert Direction.TOP.offset(2) == (0, 2)
    assert Direction.BOTTOM.offset(2) == (0, -2)


# ---------------------------------------------------------------- grayscale


def test_to_grayscale_coefficients():
    img = ColorImage(np.array([[[255, 255, 255], [0, 0, 0], [255, 0, 0]]], dtype=np.uint8))
    g = to_grayscale(img)
    assert g.pixels[0, 0] == pytest.approx(255.0)
    assert g.pixels[0, 1] == 0.0
    assert g.pixels[0, 2] == pytest.approx(0.299 * 255.0, abs=1e-3)


# ---------------------------------------------------------------- round trips


@pytest.mark.parametrize("fmt", ["P5", "P2"])
def test_pgm_round_trip_many(fmt, tmp_path):
    rng = np.random.default_rng(7 if fmt == "P5" else 8)
    for i in range(40):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        img = _rand_gray(rng, h, w)
        p = tmp_path / f"{fmt}_{i}.pgm"
        write_image(str(p), img, ascii_format=(fmt == "P2"))
        back = read_image(str(p))
        assert isinstance(back, Image)
        np.testing.assert_array_equal(back.pixels, img.pixels)


@pytest.mark.parametrize("fmt", ["P6", "P3"])
def test_ppm_round_trip_many(fmt, tmp_path):
    rng = np.random.default_rng(9 if fmt == "P6" else 10)
    for i in range(20):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        img = _rand_color(rng, h, w)
        p = tmp_path / f"{fmt}_{i}.ppm"
        write_image(str(p), img, ascii_format=(fmt == "P3"))
        back = read_image(str(p))
        assert isinstance(back, ColorImage)
        np.testing.assert_array_equal(back.pixels, img.pixels)


def test_pfm_round_trip_many(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(40):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        d = _rand_disp(rng, h, w)
        p = tmp_path / f"d_{i}.pfm"
        write_image(str(p), d)
        back = read_image(str(p))
        assert isinstance(back, DisparityMap)
        np.testing.assert_array_equal(back.values, d.values)


def test_binary_and_ascii_pgm_agree(tmp_path):
    img = _rand_gray(np.random.default_rng(12), 5, 7)
    write_image(str(tmp_path / "a.pgm"), img, ascii_format=True)
    write_image(str(tmp_path / "b.pgm"), img)
    a = read_image(str(tmp_path / "a.pgm"))
    b = read_image(str(tmp_path / "b.pgm"))
    np.testing.assert_array_equal(a.pixels, b.pixels)


# ---------------------------------------------------------------- hand-built


def test_pfm_single_pixel_little_endian(tmp_path):
    raw = b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 2.5)
    p = tmp_path / "one.pfm"
    p.write_bytes(raw)
    d = read_image(str(p))
    assert d.values.shape == (1, 1)
    assert d.values[0, 0] == 2.5


def test_pfm_big_endian_scale(tmp_path):
    raw = b"Pf\n1 1\n1.0\n" + struct.pack(">f", -3.0)
    p = tmp_path / "be.pfm"
    p.write_bytes(raw)
    d = read_image(str(p))
    assert d.values[0, 0] == -3.0


def test_pfm_row_order_flipped(tmp_path):
    # payload is written bottom row first; reader restores top-down order
    rows = [struct.pack("<3f", *r) for r in ([1, 2, 3], [4, 5, 6])]
    raw = b"Pf\n3 2\n-1.0\n" + rows[1] + rows[0]
    p = tmp_path / "flip.pfm"
    p.write_bytes(raw)
    d = read_image(str(p))
    np.testing.assert_array_equal(d.values, np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32))


def test_pgm_header_comments_and_whitespace(tmp_path):
    raw = b"P2\n# a comment\n 2 # trailing\n1\n255\n7 9\n"
    p = tmp_path / "c.pgm"
    p.write_bytes(raw)
    img = read_image(str(p))
    np.testing.assert_array_equal(img.pixels, np.array([[7.0, 9.0]], dtype=np.float32))


def test_p5_payload_starts_after_single_whitespace(tmp_path):
    # binary payload may begin with a byte that looks like whitespace
    raw = b"P5 2 1 255\n" + bytes([32, 10])
    p = tmp_path / "ws.pgm"
    p.write_bytes(raw)
    img = read_image(str(p))
    np.testing.assert_array_equal(img.pixels, np.array([[32.0, 10.0]], dtype=np.float32))


# ---------------------------------------------------------------- rejections


def test_unsupported_maxval(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 1\n65535\n\x00\x00\x00\x00")
    with pytest.raises(UnsupportedError):
        read_image(str(p))


def test_color_pfm_rejected(tmp_path):
    p = tmp_path / "c.pfm"
    p.write_bytes(b"PF\n1 1\n-1.0\n" + struct.pack("<3f", 1, 2, 3))
    with pytest.raises(UnsupportedError):
        read_image(str(p))


def test_bad_magic(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P9\n1 1\n255\n\x00")
    with pytest.raises(FormatError):
        read_image(str(p))


def test_truncated_binary_payload(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(FormatError):
        read_image(str(p))


def test_truncated_ascii_payload(tmp_path):
    p = tmp_path / "t2.pgm"
    p.write_bytes(b"P2\n2 2\n255\n1 2 3")
    with pytest.raises(FormatError):
        read_image(str(p))


@pytest.mark.parametrize("magic", [b"P2", b"P3"])
def test_ascii_header_larger_than_payload_fails_fast(magic, tmp_path):
    # 4e12 samples declared in a 23-byte file: rejected before any buffer
    # of that size is allocated
    p = tmp_path / "huge.pnm"
    p.write_bytes(magic + b" 2000000 2000000 255\n")
    assert p.stat().st_size == 23
    with pytest.raises(FormatError, match="truncated payload"):
        read_image(str(p))


def test_ascii_payload_of_minimal_length_decodes(tmp_path):
    # one digit per sample and one byte between samples is the tightest
    # payload the size check lets through
    p = tmp_path / "tight.pgm"
    p.write_bytes(b"P2 2 2 255\n1 2 3 4")
    np.testing.assert_array_equal(read_image(str(p)).pixels, [[1, 2], [3, 4]])


@pytest.mark.parametrize("scale", ["0.0", "nan", "-nan", "inf", "-inf"])
def test_pfm_zero_scale_rejected(tmp_path, scale):
    # only a finite, non-zero scale is one whose sign can pick the byte order
    p = tmp_path / "z.pfm"
    p.write_bytes(b"Pf\n1 1\n" + scale.encode() + b"\n" + struct.pack("<f", 1.0))
    with pytest.raises(FormatError, match="z.pfm"):
        read_image(str(p))


def test_ascii_sample_above_maxval_rejected(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n1 1\n255\n300\n")
    with pytest.raises(FormatError):
        read_image(str(p))


# ---------------------------------------------------------------- colorize


def test_colorize_jet_anchor_colors():
    d = DisparityMap(np.array([[0.0, 2.5, 5.0, 7.5, 10.0, np.inf]], dtype=np.float32))
    rgb = colorize_jet(d, 10.0).pixels
    assert rgb[0, 0].tolist() == [0, 0, 255]      # lowest: blue
    assert rgb[0, 1].tolist() == [0, 255, 255]    # cyan
    assert rgb[0, 2].tolist() == [0, 255, 0]      # green
    assert rgb[0, 3].tolist() == [255, 255, 0]    # yellow
    assert rgb[0, 4].tolist() == [255, 0, 0]      # highest: red
    assert rgb[0, 5].tolist() == [0, 0, 0]        # invalid: black


def test_colorize_jet_monotone_ramp_position():
    # hue position along the ramp grows strictly with disparity
    vals = np.linspace(0.0, 10.0, 21, dtype=np.float32)
    rgb = colorize_jet(DisparityMap(vals[None, :]), 10.0).pixels[0].astype(int)
    # reconstruct ramp position: blue dominates early, red late
    score = rgb[:, 0] - rgb[:, 2]  # r - b is strictly increasing along jet
    assert all(score[i] < score[i + 1] or (rgb[i + 1] != rgb[i]).any() for i in range(20))
    assert (np.diff(score) >= 0).all()


def test_colorize_jet_clamps_and_validates():
    d2 = DisparityMap(np.array([[-5.0, 50.0]], dtype=np.float32))
    rgb2 = colorize_jet(d2, 10.0).pixels
    assert rgb2[0, 0].tolist() == [0, 0, 255]
    assert rgb2[0, 1].tolist() == [255, 0, 0]
    with pytest.raises(InputError):
        colorize_jet(d2, 0.0)


@pytest.mark.parametrize("d_max", [float("inf"), float("nan"), -1.0, 1e39])
def test_colorize_jet_rejects_meaningless_d_max(d_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="d_max must be positive"):
            colorize_jet(DisparityMap(np.ones((1, 2), np.float32)), d_max)


@pytest.mark.parametrize("d_max", [1e-300, 1e-40, 3.4e38])
def test_colorize_jet_extreme_d_max_is_silent(d_max):
    # below float32's smallest step every positive disparity is past the
    # ramp end; near float32's largest value every one is at its start
    d = DisparityMap(np.array([[0.0, 1e-3, 60.0, np.inf]], dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rgb = colorize_jet(d, d_max).pixels[0].tolist()
    far = [255, 0, 0] if d_max < 1 else [0, 0, 255]
    assert rgb == [[0, 0, 255], far, far, [0, 0, 0]]


def _jet_interp_reference(disparity, d_max):
    """colorize_jet written with np.interp, one call per channel."""
    pos = [0.0, 0.25, 0.5, 0.75, 1.0]
    ramps = [[0, 0, 0, 255, 255], [0, 255, 255, 255, 0], [255, 255, 0, 0, 0]]
    valid = np.isfinite(disparity.values)
    step = max(np.float32(d_max), np.finfo(np.float32).smallest_subnormal)
    with np.errstate(over="ignore"):
        t = np.clip(np.where(valid, disparity.values, 0.0) / step, 0.0, 1.0)
    chans = [np.where(valid, np.rint(np.interp(t, pos, ramp)).astype(np.uint8), 0) for ramp in ramps]
    return np.stack(chans, axis=-1).astype(np.uint8)


@pytest.mark.parametrize("d_max", [32.0, 1.0, 7.3, 1e-30, 3e38, 1e-45])
def test_colorize_jet_matches_np_interp(d_max):
    # random disparities around [0, d_max], every breakpoint, its float32
    # neighbours, the ramp ends and +inf: the bytes of np.interp's ramp
    rng = np.random.default_rng(7)
    step = max(np.float32(d_max), np.finfo(np.float32).smallest_subnormal)
    points = np.float32([0.0, 0.25, 0.5, 0.75, 1.0]) * step
    values = np.concatenate([
        (rng.uniform(-0.1, 1.1, 40_000) * float(step)).astype(np.float32),
        points, np.nextafter(points, np.float32(-np.inf)), np.nextafter(points, np.float32(np.inf)),
        np.float32([-0.0, np.inf, np.finfo(np.float32).max, -np.finfo(np.float32).max]),
    ])
    d = DisparityMap(values.reshape(1, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = colorize_jet(d, d_max).pixels
    assert got.tobytes() == _jet_interp_reference(d, d_max).tobytes()
