"""Procedural scenes: view-consistency geometry, exact GT, dataset layout."""

import hashlib

import numpy as np
import pytest

from multiscopic import (
    DatasetRanges,
    Direction,
    InputError,
    SceneLayer,
    SceneSpec,
    SpecError,
    generate_dataset,
    generate_scene,
    load_scene,
    read_image,
    sample_spec,
)
from multiscopic.synthscene import OCTAVES, VIEW_ORDER, _value_noise
from oracles import value_noise_reference


def _spec_two_layers(w=16, h=12, d_back=1, d_front=3, noise=0.0):
    return SceneSpec(
        width=w,
        height=h,
        layers=[
            SceneLayer(d_back, None),
            SceneLayer(d_front, (5, 3, 6, 5)),
        ],
        noise_sigma=noise,
    )


def _index_map(spec, direction):
    """Front-most layer index per pixel of the given view (None = center)."""
    idx = np.zeros((spec.height, spec.width), dtype=int)
    for k, layer in enumerate(spec.layers):
        ox, oy = direction.offset(layer.disparity) if direction else (0, 0)
        if layer.rect is None:
            idx[:] = k
        else:
            x0, y0, w, h = layer.rect
            xa, xb = max(x0 + ox, 0), min(x0 + ox + w, spec.width)
            ya, yb = max(y0 + oy, 0), min(y0 + oy + h, spec.height)
            if xa < xb and ya < yb:
                idx[ya:yb, xa:xb] = k
    return idx


# ----------------------------------------------------------------- geometry


def test_view_consistency_noise_free():
    """center(p) == view(p + offset(gt(p))) wherever p's surface is visible."""
    spec = _spec_two_layers()
    mset, gt = generate_scene(spec, seed=3)
    idx_c = _index_map(spec, None)
    checked = 0
    for direction, img in mset.surround:
        idx_v = _index_map(spec, direction)
        for y in range(spec.height):
            for x in range(spec.width):
                k = idx_c[y, x]
                d = spec.layers[k].disparity
                ox, oy = direction.offset(d)
                qx, qy = x + ox, y + oy
                if not (0 <= qx < spec.width and 0 <= qy < spec.height):
                    continue
                if idx_v[qy, qx] != k:
                    continue  # occluded in this view
                assert img.pixels[qy, qx] == mset.center.pixels[y, x]
                checked += 1
    assert checked > 4 * spec.width * spec.height // 2  # most pixels visible


def test_gt_matches_layer_geometry():
    spec = _spec_two_layers()
    _, gt = generate_scene(spec, seed=4)
    want = np.full((12, 16), 1.0, dtype=np.float32)
    want[3:8, 5:11] = 3.0
    np.testing.assert_array_equal(gt.values, want)
    assert gt.valid_mask.all()


def test_occlusion_exists_and_is_view_dependent():
    spec = _spec_two_layers(d_back=1, d_front=4)
    idx_c = _index_map(spec, None)

    def occluded_in(direction):
        idx_v = _index_map(spec, direction)
        occ = set()
        for y in range(spec.height):
            for x in range(spec.width):
                k = idx_c[y, x]
                ox, oy = direction.offset(spec.layers[k].disparity)
                qx, qy = x + ox, y + oy
                if 0 <= qx < spec.width and 0 <= qy < spec.height and idx_v[qy, qx] != k:
                    occ.add((x, y))
        return occ

    occ_r = occluded_in(Direction.RIGHT)
    occ_l = occluded_in(Direction.LEFT)
    assert occ_r, "front layer must shadow background pixels in the right view"
    assert occ_l
    # one-sided occlusions: some pixels hidden on the right stay visible on the left
    assert occ_r - occ_l


def test_single_zero_disparity_layer_gives_identical_views():
    spec = SceneSpec(width=10, height=8, layers=[SceneLayer(0, None)])
    mset, gt = generate_scene(spec, seed=5)
    for _, img in mset.surround:
        np.testing.assert_array_equal(img.pixels, mset.center.pixels)
    assert (gt.values == 0.0).all()


def test_views_cover_all_directions_in_order():
    mset, _ = generate_scene(_spec_two_layers(), seed=6)
    assert tuple(d for d, _ in mset.surround) == VIEW_ORDER


def test_scene_determinism_and_seed_sensitivity():
    spec = _spec_two_layers(noise=0.5)
    a, ga = generate_scene(spec, seed=7)
    b, gb = generate_scene(spec, seed=7)
    c, _ = generate_scene(spec, seed=8)
    np.testing.assert_array_equal(a.center.pixels, b.center.pixels)
    for (_, ia), (_, ib) in zip(a.surround, b.surround):
        np.testing.assert_array_equal(ia.pixels, ib.pixels)
    np.testing.assert_array_equal(ga.values, gb.values)
    assert (a.center.pixels != c.center.pixels).any()


def test_noise_is_per_view_and_clipped():
    clean, _ = generate_scene(_spec_two_layers(noise=0.0), seed=9)
    noisy, _ = generate_scene(_spec_two_layers(noise=2.0), seed=9)
    assert (noisy.center.pixels != clean.center.pixels).any()
    assert noisy.center.pixels.min() >= 0.0 and noisy.center.pixels.max() <= 255.0
    # different views receive different noise draws
    r = dict(noisy.surround)[Direction.RIGHT].pixels
    l = dict(noisy.surround)[Direction.LEFT].pixels
    cr = dict(clean.surround)[Direction.RIGHT].pixels
    cl = dict(clean.surround)[Direction.LEFT].pixels
    assert ((r - cr) != (l - cl)).any()


def test_excessive_disparity_rejected():
    spec = SceneSpec(width=16, height=16, layers=[SceneLayer(5, None)])
    with pytest.raises(SpecError):
        generate_scene(spec, seed=0)


@pytest.mark.parametrize(
    "height, width, base_cell, seeds",
    [
        (16, 16, 1, range(3)),  # every octave's cell is 1
        (37, 53, 8, range(4)),  # cells that divide neither side
        (68, 68, 7, range(4)),
        (1, 40, 5, range(3)),  # one row
        (40, 1, 5, range(3)),  # one column
        (1088, 1088, 8, range(1)),
    ],
    ids=["cell-1", "cell-8-37x53", "cell-7-68", "one-row", "one-column", "1088"],
)
def test_value_noise_has_the_2d_formulas_bits(height, width, base_cell, seeds):
    for seed in seeds:
        got = _value_noise(np.random.default_rng(seed), height, width, base_cell)
        want = value_noise_reference(np.random.default_rng(seed), height, width, base_cell,
                                     OCTAVES)
        assert np.array_equal(got, want), seed


def test_spec_validation():
    with pytest.raises(InputError):
        SceneSpec(width=16, height=16, layers=[])
    with pytest.raises(InputError):
        SceneSpec(width=16, height=16, layers=[SceneLayer(1, (0, 0, 4, 4))])
    with pytest.raises(InputError):
        SceneLayer(-1, None)
    with pytest.raises(InputError):
        SceneLayer(1, (0, 0, 0, 4))


# ------------------------------------------------------------------ dataset


def _small_ranges():
    return DatasetRanges(
        width=20,
        height=16,
        layer_count=(2, 3),
        disparity=(1, 4),
        noise_sigma=(0.0, 0.5),
        base_cell=(4, 6),
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("layer_count", (3, 1)),
        ("disparity", (3, 2)),
        ("noise_sigma", (5.0, 1.0)),
        ("noise_sigma", (float("nan"), float("nan"))),
        ("noise_sigma", (0.0, float("inf"))),
        ("noise_sigma", (-1.0, 1.0)),
        ("base_cell", (6, 4)),
        ("flat_patches", (1, 0)),
    ],
)
def test_dataset_ranges_validation(field, value):
    # an inverted or non-finite range would otherwise reach numpy.random
    with pytest.raises(InputError, match=field.split("_")[0]):
        DatasetRanges(**{field: value})


def test_sample_spec_within_ranges():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = sample_spec(_small_ranges(), rng)
        assert spec.width == 20 and spec.height == 16
        assert 2 <= len(spec.layers) <= 3
        assert spec.layers[0].rect is None
        ds = [l.disparity for l in spec.layers]
        assert all(1 <= d <= 4 for d in ds)
        assert ds[0] == min(ds)  # background is the farthest surface


def test_generate_dataset_layout_and_round_trip(tmp_path):
    out = tmp_path / "data"
    manifest = generate_dataset(_small_ranges(), 3, seed=12, outdir=out)
    assert len(manifest) == 3
    listed = (out / "manifest.txt").read_text().split()
    assert listed == [str(p) for p in ("scene_0000", "scene_0001", "scene_0002")]
    for name in listed:
        d = out / name
        for f in ("center.pgm", "left.pgm", "right.pgm", "top.pgm", "bottom.pgm", "gt.pfm", "meta.txt"):
            assert (d / f).exists(), f
        mset, gt = load_scene(d)
        assert gt is not None
        assert mset.width == 20 and mset.height == 16
        assert len(mset.surround) == 4
        assert gt.valid_mask.all()
        meta = dict(
            line.split("=", 1) for line in (d / "meta.txt").read_text().splitlines()
        )
        assert float(meta["d_max"]) <= 4.0


def test_generate_dataset_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_dataset(_small_ranges(), 2, seed=13, outdir=a)
    generate_dataset(_small_ranges(), 2, seed=13, outdir=b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def _pixel_digest(root):
    """SHA-256 over the relative path and bytes of every .pgm and .pfm."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.suffix in (".pgm", ".pfm"):
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_generate_dataset_digest(tmp_path):
    """Pins what synth writes: every view and GT byte, and the meta.txt keys."""
    small = tmp_path / "small"
    generate_dataset(_small_ranges(), 3, seed=12, outdir=small)
    wide = tmp_path / "wide"
    generate_dataset(DatasetRanges(width=64, height=48, disparity=(0, 12)), 2, seed=7,
                     outdir=wide)
    assert _pixel_digest(small) == "d09aa3dc39e685648e521aeb28db1262e78dedb31be2a211ff2ddce8faf9f54b"
    assert _pixel_digest(wide) == "6b24fdaea99fcf0e33c8588934334f29eb35ca6306d59d8166b97bc5a80578d8"
    for meta in sorted(tmp_path.rglob("meta.txt")):
        keys = [line.split("=", 1)[0] for line in meta.read_text().splitlines()]
        assert keys == ["d_max", "seed"], meta


def test_dense_wta_reference_set_digest(tmp_path):
    """Pins the six 256x256, d in [0, 32] scenes that synth writes with its
    default seed: dense-wta's reference set in perfbench."""
    out = tmp_path / "ref"
    generate_dataset(DatasetRanges(width=256, height=256, disparity=(0, 32)), 6, seed=0,
                     outdir=out)
    assert _pixel_digest(out) == "a6e595ecec389cc79370b0f4f2bf62babae59e1f63ddbc44a780c142b07864be"


def test_dataset_gt_survives_disk_exactly(tmp_path):
    out = tmp_path / "d"
    generate_dataset(_small_ranges(), 1, seed=14, outdir=out)
    rng = np.random.default_rng(np.random.SeedSequence([14, 0]))
    spec = sample_spec(_small_ranges(), rng)
    _, gt = generate_scene(spec, seed=int(rng.integers(0, 2**63)))
    disk = read_image(str(out / "scene_0000" / "gt.pfm"))
    np.testing.assert_array_equal(disk.values, gt.values)


def test_load_scene_missing_center_rejected(tmp_path):
    d = tmp_path / "s"
    d.mkdir()
    with pytest.raises(InputError):
        load_scene(d)
    # so is a directory whose views are all present
    generate_dataset(_small_ranges(), 1, seed=15, outdir=tmp_path / "d")
    scene = tmp_path / "d" / "scene_0000"
    (scene / "center.pgm").unlink()
    with pytest.raises(InputError, match="no center.pgm"):
        load_scene(scene)


def test_load_scene_partial_views(tmp_path):
    out = tmp_path / "d"
    generate_dataset(_small_ranges(), 1, seed=15, outdir=out)
    scene = out / "scene_0000"
    (scene / "top.pgm").unlink()
    (scene / "bottom.pgm").unlink()
    (scene / "gt.pfm").unlink()
    mset, gt = load_scene(scene)
    assert gt is None
    assert {d for d, _ in mset.surround} == {Direction.LEFT, Direction.RIGHT}
