"""Bit-identity of the `cost` command's SAD volumes on one fixed scene.

Each SAD cost is the float32 block sum of its absolute differences in
row-major order; on integer-valued images every such sum is an exact
integer, whatever order or integer type sums it.  The digests were
recorded from the float32 separable block sum, at rho 2 (sums up to
25 * 255, within uint16) and rho 8 (up to 289 * 255, past uint16), so
each integer type the block sum may use is pinned byte for byte.  A
different digest means some cost changed, a fault to investigate, not a
digest to update.
"""

import hashlib

import pytest

from multiscopic.cli import run

DIGESTS = {
    2: {
        "left": "c5fe6d03d8b7c3faf7db377e0a0a45268056ed8348e79d393f8b4878c6e4ab18",
        "right": "52d35308e76ed6a24f2dd4efd6215149bd67dff413ce5eedb1f88afb03cc8601",
        "top": "24ea4b2154858dd6ea66205850a47def641128692b482d81afabd44838f5aea5",
        "bottom": "e0ae7b45b4ce9996bae10443b961d87ad6ab984df29c9a54ecabd82a71a7249e",
    },
    8: {
        "left": "6ce259cd7420425ab92c087a32691c2a18594eda64dac2560af93ec6c5cba0fe",
        "right": "34285b7d9577e4544ff69435c14e9c0da2d86ee3ab4a1b47340554e932c2e774",
        "top": "42872c861c9fdd2b0b25ce58a7bd476c0d442d7b55d3d3047e22812970ef5ea1",
        "bottom": "5f13cc8bcb1b7d83b4110ebd19481b8c271ef41cc184df0bd27cd0fb1412239f",
    },
}


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    assert run(["synth", "--scenes", "1", "--seed", "23", "--out", str(data),
                "--width", "64", "--height", "64", "--disp-min", "1", "--disp-max", "9",
                "--noise-max", "2.0"]) == 0
    return data / "scene_0000"


@pytest.mark.parametrize("rho", sorted(DIGESTS))
def test_cost_sad_output_digests(scene, tmp_path, rho):
    # d-max 14 on a 64-pixel scene leaves sentinel bands in every view
    assert run(["cost", "--in", str(scene), "--matcher", "sad", "--rho", str(rho),
                "--d-min", "0", "--d-max", "14", "--out", str(tmp_path)]) == 0
    got = {
        name: hashlib.sha256((tmp_path / f"cost_{name}.mcv").read_bytes()).hexdigest()
        for name in DIGESTS[rho]
    }
    assert got == DIGESTS[rho]
