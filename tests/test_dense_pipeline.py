"""The streamed `disparity` command against the volume pipeline.

`disparity` runs cost -> fusion -> WTA one disparity slice at a time and
never holds a cost volume.  Its output must be byte-equal to
wta_disparity(fuse(multiscopic_volumes(...))), which builds every volume
first, and its peak memory must stay below the bytes of the n per-view
volumes that the volume pipeline holds at once.
"""

import contextlib
import io
import itertools
import tracemalloc

import numpy as np
import pytest

from multiscopic import (
    BlockMatchParams,
    ColorImage,
    FusionStrategy,
    MultiscopicSet,
    fuse,
    load_scene,
    multiscopic_volumes,
    read_image,
    to_grayscale,
    write_image,
    wta_disparity,
)
from multiscopic.cli import run

from oracles import sad_oracle

VIEWS = {1: ("left",), 2: ("right", "top"), 4: ("left", "right", "top", "bottom")}


def _quiet_run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return run([str(a) for a in argv])


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    data = tmp_path_factory.mktemp("dense") / "data"
    assert _quiet_run(["synth", "--scenes", 1, "--seed", 4, "--out", data, "--width", 40,
                       "--height", 30, "--disp-min", 0, "--disp-max", 6,
                       "--noise-max", 1.0]) == 0
    return data / "scene_0000"


# (0, 9): d = 0 is a hypothesis; (4, 4): one slice; (25, 45): d_max past the
# 40-pixel width, so the vertical views go all-sentinel from d = 30 and the
# horizontal ones from d = 40
@pytest.mark.parametrize("d_range", [(0, 9), (4, 4), (25, 45)])
@pytest.mark.parametrize("views", sorted(VIEWS))
@pytest.mark.parametrize("matcher", ["sad", "bt"])
def test_disparity_bytes_equal_volume_pipeline(scene, tmp_path, matcher, views, d_range):
    full, _ = load_scene(scene)
    mset = MultiscopicSet(
        full.center, [(d, img) for d, img in full.surround if d.value in VIEWS[views]]
    )
    inputs = ["--center", scene / "center.pgm"]
    for name in VIEWS[views]:
        inputs += [f"--{name}", scene / f"{name}.pgm"]
    d_min, d_max = d_range
    for fusion, rho, subpixel in itertools.product(
        ["mean", "min", "heuristic"], range(4), [0, 1]
    ):
        out = tmp_path / f"{fusion}_{rho}_{subpixel}"
        assert _quiet_run(["disparity", *inputs, "--matcher", matcher, "--fusion", fusion,
                           "--rho", rho, "--d-min", d_min, "--d-max", d_max,
                           "--subpixel", subpixel, "--out", out]) == 0
        volumes = multiscopic_volumes(mset, matcher, BlockMatchParams(rho, d_min, d_max))
        want = wta_disparity(fuse(volumes, FusionStrategy(fusion)), bool(subpixel))
        got = read_image(out / "disp.pfm")
        assert got.values.tobytes() == want.values.tobytes(), (fusion, rho, subpixel)


def test_disparity_on_colour_views_with_fractional_luma(scene, tmp_path):
    # PPM views reach SAD as real-valued luma, so the matcher must keep the
    # row-major float32 order there; blue = 255 - gray makes the luma
    # 0.772 * gray + 29.07, mostly non-integer
    full, _ = load_scene(scene)
    argv = ["disparity", "--matcher", "sad", "--fusion", "heuristic", "--rho", 2,
            "--d-min", 0, "--d-max", 6, "--out", tmp_path / "out"]
    gray = {}
    for name, img in [("center", full.center)] + [(d.value, img) for d, img in full.surround]:
        g = img.pixels.astype(np.uint8)
        colour = ColorImage(np.stack([g, g, 255 - g], axis=-1))
        write_image(tmp_path / f"{name}.ppm", colour)
        argv += [f"--{name}", tmp_path / f"{name}.ppm"]
        gray[name] = to_grayscale(colour)
    assert all((g.pixels != np.rint(g.pixels)).any() for g in gray.values())
    assert _quiet_run(argv) == 0

    mset = MultiscopicSet(gray["center"], [(d, gray[d.value]) for d, _ in full.surround])
    bm = BlockMatchParams(2, 0, 6)
    volumes = multiscopic_volumes(mset, "sad", bm)
    want = wta_disparity(fuse(volumes, FusionStrategy.HEURISTIC))
    assert read_image(tmp_path / "out" / "disp.pfm").values.tobytes() == want.values.tobytes()
    direction, view = mset.surround[0]
    oracle = sad_oracle(mset.center.pixels, view.pixels, direction.value, 2, 0, 6, exact_f32=True)
    np.testing.assert_array_equal(volumes[0].costs, oracle)


def test_disparity_peak_memory_below_the_per_view_volumes(tmp_path):
    # 4 views of 96 x 96 and d in [0, 48]: the volume pipeline holds
    # 4 * 49 * 96 * 96 float32 = 7.2 MB of per-view volumes at once, plus the
    # fused volume; the streamed one holds a few (H, W) slices per view
    data = tmp_path / "data"
    assert _quiet_run(["synth", "--scenes", 1, "--seed", 2, "--out", data, "--width", 96,
                       "--height", 96, "--disp-min", 1, "--disp-max", 12]) == 0
    argv = ["disparity", "--in", data / "scene_0000", "--rho", 2, "--d-min", 0,
            "--d-max", 48, "--out", tmp_path / "out"]
    volume_bytes = 4 * 49 * 96 * 96 * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        assert _quiet_run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < volume_bytes, (peak, volume_bytes)
