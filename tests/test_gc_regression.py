"""Bit-identity of the full graph-cut pipeline on one fixed synthetic scene.

Every exact min-cut solver returns the same minimal source set for the
same move energy, so the labeling, and the bytes of the output map, must not
change when the expansion graph or the max-flow solver is rebuilt.  The
digest was recorded from the Dinic solver with the auxiliary-node graph
construction; a different digest means some labeling changed, which is a
rounding or solver fault to investigate, not a digest to update.
"""

import hashlib

from multiscopic import BlockMatchParams, GcParams, multiscopic_gc
from multiscopic.synthscene import SceneLayer, SceneSpec, generate_scene

DIGEST = "a508f0f2283ae4a636e7b0922aa64d2e95ec568e38ff2df393b164208bf8ac0e"


def test_default_gc_output_digest():
    # two layers and photometric noise; the default upscale=2 gives 40x40
    # with 9 labels, and the output has occluded (invalid) pixels
    spec = SceneSpec(20, 20, [SceneLayer(1), SceneLayer(4, (5, 4, 9, 8))], noise_sigma=3.0)
    mset, _ = generate_scene(spec, seed=2024)
    trace = []
    disp = multiscopic_gc(
        mset, GcParams(), bm=BlockMatchParams(rho=1, d_min=1, d_max=5), energy_trace=trace
    )
    assert not disp.valid_mask.all()
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert hashlib.sha256(disp.values.tobytes()).hexdigest() == DIGEST
