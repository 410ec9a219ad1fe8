"""Bit-identity of the dense cost -> fuse -> WTA pipeline on one fixed scene.

SAD accumulates each cell's block terms in a fixed float32 order and
fusion orders each cell's costs exactly as a stable ascending sort would,
so the bytes of the disparity map must not change when either stage is
rewritten.  The digest was recorded from the per-offset gather SAD and the
full-stack np.sort fusion; a different digest means some cost changed, a
rounding or ordering fault to investigate, not a digest to update.
"""

import hashlib

from multiscopic.cli import run

DIGEST = "a693ff61a65294c7dfbc529a0b6644d9c3dd09934460a3c127c1c62bfe7293ea"


def test_disparity_sad_heuristic_output_digest(tmp_path):
    # four views with noise; d-max 12 on a 36-pixel-wide scene leaves
    # sentinel bands in every view, and d = 0 is a legal hypothesis
    data = tmp_path / "data"
    assert run(["synth", "--scenes", "1", "--seed", "11", "--out", str(data),
                "--width", "36", "--height", "28", "--disp-min", "1", "--disp-max", "6",
                "--noise-max", "2.0"]) == 0
    out = tmp_path / "out"
    assert run(["disparity", "--in", str(data / "scene_0000"), "--matcher", "sad",
                "--rho", "2", "--fusion", "heuristic", "--subpixel", "1",
                "--d-min", "0", "--d-max", "12", "--out", str(out)]) == 0
    pfm = out / "disp.pfm"
    assert hashlib.sha256(pfm.read_bytes()).hexdigest() == DIGEST
