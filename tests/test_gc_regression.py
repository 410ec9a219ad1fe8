"""Bit-identity of the full graph-cut pipeline on one fixed synthetic scene.

Every exact min-cut solver returns the same minimal source set for the
same move energy, so the labeling, and the bytes of the output map, must not
change when the expansion graph or the max-flow solver is rebuilt.  The
digest was recorded from the Dinic solver with the auxiliary-node graph
construction; a different digest means some labeling changed, which is a
rounding or solver fault to investigate, not a digest to update.

The two further digests were recorded before multiscopic_gc learned to skip
a move already rejected on the same labels.  One rechecks the pair weights
between sweeps (a scene whose output differs from the fixed-weight run, so a
skip that outlived a weight change would show), the other runs without
upscaling.  Both also pin the length of the energy trace, which gets one
entry per move whether the move was solved or skipped.

The last two were recorded before each alpha's solve learned to resume from
the residual flow and search trees of its previous solve.  Upscaling by 4
gives the most resumed solves per scene (17 labels over 3 sweeps), and a
second rng seed with a sweep cap visits the alphas in another order.
"""

import hashlib

import numpy as np
import pytest

from multiscopic import BlockMatchParams, GcParams, graphcut, multiscopic_gc
from multiscopic.synthscene import SceneLayer, SceneSpec, generate_scene

SPEC = SceneSpec(20, 20, [SceneLayer(1), SceneLayer(4, (5, 4, 9, 8))], noise_sigma=3.0)
BM = BlockMatchParams(rho=1, d_min=1, d_max=5)
DIGEST = "a508f0f2283ae4a636e7b0922aa64d2e95ec568e38ff2df393b164208bf8ac0e"


def test_default_gc_output_digest():
    # two layers and photometric noise; the default upscale=2 gives 40x40
    # with 9 labels, and the output has occluded (invalid) pixels
    mset, _ = generate_scene(SPEC, seed=2024)
    trace = []
    disp = multiscopic_gc(mset, GcParams(), bm=BM, energy_trace=trace)
    assert not disp.valid_mask.all()
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert hashlib.sha256(disp.values.tobytes()).hexdigest() == DIGEST


def _run(seed, **params):
    mset, _ = generate_scene(SPEC, seed=seed)
    trace = []
    disp = multiscopic_gc(mset, GcParams(**params), bm=BM, energy_trace=trace)
    return hashlib.sha256(disp.values.tobytes()).hexdigest(), len(trace)


def test_recheck_weights_gc_output_digest():
    # 8 sweeps of 9 moves; the weights change after every sweep
    digest, n_trace = _run(2029, recheck_smoothness_weights=True)
    assert n_trace == 81
    assert digest == "26d6a7ae7fc805dc88a2fa7f727b2306cf1396ae105ceb573da5001173d6aac7"


def test_no_upscale_gc_output_digest():
    digest, n_trace = _run(2024, upscale=1)
    assert n_trace == 19
    assert digest == "2cf8076a2768b4f3902af33fb80f00504d79871235ed81ce7cad092c89b974cb"


def test_upscale4_gc_output_digest():
    digest, n_trace = _run(2024, upscale=4)
    assert n_trace == 55
    assert digest == "f12dae0bef0cf1d28f3775d902a1a43e0857e99b1a078175da36781965ab1648"


def test_seed3_two_sweeps_gc_output_digest():
    digest, n_trace = _run(2024, rng_seed=3, max_sweeps=2)
    assert n_trace == 21
    assert digest == "d3611422d935c4f89096880a82f30358a69cb2ee2f1491cb04bb27d98d2af86b"


@pytest.mark.parametrize(
    "seed, params, trace_digest",
    [(2024, {}, "434965a3f6da0d556d96a40d1bf30b229e211045fbf251d1ee8ef9f7b645ee5f"),
     (2029, {"recheck_smoothness_weights": True},
      "fb9f0a2bb0ca9594024ee3cc6e7cbab33fb44d1643413e9ecbdb974d367bff9b")],
    ids=["default", "recheck-weights"],
)
def test_energy_only_for_moves_that_switch_a_pixel(monkeypatch, seed, params, trace_digest):
    # gc_energy runs once at the start, once per move that switches a pixel,
    # per occlusion pass with flips and per weight recheck that changes a
    # weight; the trace digests were recorded when every move ran it
    count = {"energy": 0, "expected": 1, "idle": 0}
    weights_now = []
    energy, move = graphcut.gc_energy, graphcut.expansion_move
    occlusion, recheck = graphcut.occlusion_pass, graphcut._recheck_weights

    def counted_energy(*args):
        count["energy"] += 1
        return energy(*args)

    def counted_move(labels, *args):
        cand = move(labels, *args)
        count["idle" if np.array_equal(cand, labels) else "expected"] += 1
        return cand

    def counted_occlusion(labels, c_gc, weights, p):
        weights_now[:] = weights
        labels, flips = occlusion(labels, c_gc, weights, p)
        count["expected"] += flips > 0
        return labels, flips

    def counted_recheck(*args):
        rechecked = recheck(*args)
        count["expected"] += not all(map(np.array_equal, rechecked, weights_now))
        return rechecked

    monkeypatch.setattr(graphcut, "gc_energy", counted_energy)
    monkeypatch.setattr(graphcut, "expansion_move", counted_move)
    monkeypatch.setattr(graphcut, "occlusion_pass", counted_occlusion)
    monkeypatch.setattr(graphcut, "_recheck_weights", counted_recheck)
    mset, _ = generate_scene(SPEC, seed=seed)
    trace = []
    multiscopic_gc(mset, GcParams(**params), bm=BM, energy_trace=trace)
    assert count["idle"] > 0
    assert count["energy"] == count["expected"], count
    assert hashlib.sha256(np.array(trace).tobytes()).hexdigest() == trace_digest
