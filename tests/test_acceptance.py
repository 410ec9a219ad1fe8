"""End-to-end acceptance gate: one numbered check per shipped guarantee.

Run with `pytest tests/test_acceptance.py -v -s`; every test prints a single
PASS/FAIL line with the measured numbers before asserting, so a red run
still shows how far off it was.  Checks 9 and 10 generate synthetic scenes
and train the fusion network from scratch; the whole file takes a few
minutes on one CPU core.
"""

import time

import numpy as np

from multiscopic import (
    BlockMatchParams,
    CostVolume,
    DatasetRanges,
    Direction,
    DisparityMap,
    FlowGraph,
    FusionStrategy,
    GcParams,
    Image,
    MultiscopicSet,
    TrainConfig,
    evaluate,
    expansion_move,
    forward,
    fuse,
    gc_energy,
    generate_scene,
    grad_check,
    init_network,
    max_flow,
    multiscopic_gc,
    multiscopic_volumes,
    sad_cost_volume,
    sample_spec,
    train,
    wta_disparity,
)
from multiscopic.cli import run
from multiscopic.graphcut import OCCLUDED, pair_weights

from oracles import expansion_oracle, min_cut_oracle, sad_oracle


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# 1 ------------------------------------------------------- SAD block matching


def test_01_sad_bit_exact_against_bruteforce():
    rng = np.random.default_rng(np.random.SeedSequence([31001]))
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        h = int(rng.integers(3, 13))
        w = int(rng.integers(3, 13))
        rho = int(rng.integers(0, 3))
        d_min = int(rng.integers(0, 3))
        d_max = d_min + int(rng.integers(0, 4))
        direction = Direction(rng.choice(["left", "right", "top", "bottom"]))
        ref = rng.integers(0, 256, size=(h, w)).astype(np.float32)
        tgt = rng.integers(0, 256, size=(h, w)).astype(np.float32)
        vol = sad_cost_volume(
            Image(ref), Image(tgt), direction,
            BlockMatchParams(rho=rho, d_min=d_min, d_max=d_max),
        )
        want = sad_oracle(ref, tgt, direction.value, rho, d_min, d_max)
        if vol.costs.dtype != np.float32 or not np.array_equal(vol.costs, want):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"SAD bit-exact on {200 - mismatches}/200 random pairs "
        f"(<=12x12, rho<=2) in {elapsed:.1f}s (limit 10s)",
    )


# 2 ----------------------------------------------------------------- max-flow


def test_02_max_flow_matches_bruteforce_min_cut():
    rng = np.random.default_rng(np.random.SeedSequence([31002]))
    t0 = time.perf_counter()
    value_errors = 0
    partition_errors = 0
    for _ in range(300):
        n = int(rng.integers(2, 8))
        g = FlowGraph(n, source=0, sink=n - 1)
        arcs = []
        for _ in range(int(rng.integers(0, 11))):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n - 1))
            if v >= u:
                v += 1  # distinct endpoints, parallel arcs allowed
            cap = float(rng.integers(0, 11))
            g.add_edge(u, v, cap)
            arcs.append((u, v, cap))
        flow, side = max_flow(g)
        if flow != min_cut_oracle(n, arcs, 0, n - 1):
            value_errors += 1
        cut = sum(c for u, v, c in arcs if u in side and v not in side)
        if cut != flow:
            partition_errors += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        value_errors == 0 and partition_errors == 0 and elapsed < 30.0,
        f"max-flow == brute-force min cut on {300 - value_errors}/300 graphs, "
        f"returned partition realizes the flow on {300 - partition_errors}/300, "
        f"in {elapsed:.1f}s (limit 30s)",
    )


# 3 ------------------------------------------------------- subpixel parabola


def test_03_subpixel_refinement_formula():
    # Symmetric neighbors: zero numerator, so the integer winner is exact.
    rng = np.random.default_rng(np.random.SeedSequence([31003]))
    sym_ok = True
    for _ in range(100):
        mid = float(rng.uniform(0.0, 5.0))
        side = mid + float(rng.uniform(0.5, 10.0))
        curve = np.array([side, mid, side], dtype=np.float32).reshape(3, 1, 1)
        got = wta_disparity(CostVolume(curve, d_min=0, d_max=2)).values[0, 0]
        sym_ok &= got == np.float32(1.0)

    curve = np.array([5.0, 1.0, 4.0, 9.0], dtype=np.float32).reshape(4, 1, 1)
    got = float(wta_disparity(CostVolume(curve, d_min=1, d_max=4)).values[0, 0])
    want = 2.0 + 1.0 / 14.0
    err = abs(got - want)
    _report(
        3,
        sym_ok and err <= 1e-6,
        f"symmetric triples exact on 100/100, worked example "
        f"{got:.7f} vs {want:.7f} (|err| {err:.1e} <= 1e-6)",
    )


# 4 -------------------------------------------------------- fusion ordering


def test_04_fusion_strategy_ordering():
    rng = np.random.default_rng(np.random.SeedSequence([31004]))
    vals = rng.uniform(0.0, 50.0, size=(4, 100_000)).astype(np.float32)
    vols = [CostVolume(v.reshape(1, -1, 1), d_min=0, d_max=0) for v in vals]
    mn = fuse(vols, FusionStrategy.MIN).costs
    he = fuse(vols, FusionStrategy.HEURISTIC).costs
    me = fuse(vols, FusionStrategy.MEAN).costs
    order_ok = bool(np.all(mn <= he) and np.all(he <= me))

    def heuristic_of(quad):
        cells = [CostVolume(np.float32(c).reshape(1, 1, 1), 0, 0) for c in quad]
        return float(fuse(cells, FusionStrategy.HEURISTIC).costs[0, 0, 0])

    ex1 = heuristic_of((1.0, 2.0, 10.0, 11.0))  # third cost is an outlier
    ex2 = heuristic_of((3.0, 1.0, 4.0, 2.0))  # third cost agrees
    _report(
        4,
        order_ok and ex1 == 1.5 and ex2 == 2.0,
        f"MIN <= HEURISTIC <= MEAN on 100000/100000 tuples, "
        f"branch examples {ex1} == 1.5 and {ex2} == 2.0",
    )


# 5 --------------------------------------------------- energy monotonicity


def test_05_pipeline_energy_never_increases():
    ranges = DatasetRanges(
        width=32, height=32, layer_count=(2, 3), disparity=(1, 4),
        noise_sigma=(0.5, 1.0), base_cell=(4, 8), flat_patches=(0, 1),
    )
    bm = BlockMatchParams(rho=1, d_min=1, d_max=5)
    violations = 0
    regressions = 0
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([31005, i]))
        spec = sample_spec(ranges, rng)
        mset, _ = generate_scene(spec, int(rng.integers(0, 2**63)))
        trace: list[float] = []
        p = GcParams(upscale=1 + (i % 2), max_sweeps=2, rng_seed=i)
        multiscopic_gc(mset, p, bm=bm, energy_trace=trace)
        diffs = np.diff(trace)
        violations += int((diffs > 1e-9).sum())
        regressions += trace[-1] > trace[0]
    _report(
        5,
        violations == 0 and regressions == 0,
        f"20 seeded runs: {violations} energy increases across every expansion "
        f"and occlusion step, final <= initial energy on {20 - regressions}/20",
    )


# 6 ------------------------------------------- expansion global optimality


def test_06_expansion_move_is_globally_optimal():
    p = GcParams(k_occlusion=4.0, lambda1=3.0, lambda2=1.0, theta=8.0, d_cutoff=3)
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([31006, trial]))
        h = int(rng.integers(1, 3))
        w = int(rng.integers(1, 4))
        n_lab = int(rng.integers(1, 4))
        costs = rng.uniform(0.0, 6.0, size=(n_lab, h, w)).astype(np.float32)
        vol = CostVolume(costs, d_min=1, d_max=n_lab)
        labels = rng.integers(0, n_lab + 1, size=(h, w)) + vol.d_min - 1
        labels[labels < vol.d_min] = OCCLUDED
        center = Image(rng.integers(0, 256, size=(h, w)).astype(np.float32))
        alpha = int(rng.integers(vol.d_min, vol.d_max + 1))
        w_h, w_v = pair_weights(center, p)
        out = expansion_move(labels, alpha, vol, (w_h, w_v), p)
        got = gc_energy(out, vol, (w_h, w_v), p)
        want = expansion_oracle(
            labels, alpha, costs, vol.d_min, p.k_occlusion, w_h, w_v, p.d_cutoff
        )
        worst = max(worst, abs(got - want))
    _report(
        6,
        worst <= 1e-6,
        f"expansion energy equals exhaustive keep/switch optimum on 100/100 "
        f"instances (max |diff| {worst:.2e})",
    )


# 7 ------------------------------------------------------ gradient checking


def test_07_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([31007, k]))
        net = init_network(seed=k)
        # A zero head hides the upstream layers from the loss; perturb it so
        # every parameter is exercised.
        head = net.convs["head"].w
        head += (rng.standard_normal(head.shape) * 0.1).astype(np.float32)
        n_vols = 1 + k % 3
        vols = [
            CostVolume(
                rng.uniform(0.0, 20.0, size=(4, 6, 6)).astype(np.float32), 1, 4
            )
            for _ in range(n_vols)
        ]
        gt = DisparityMap(rng.uniform(1.0, 4.0, size=(6, 6)).astype(np.float32))
        mask = np.ones((6, 6), dtype=bool)
        err = grad_check(net, (vols, gt, mask), epsilon=1e-3, rng_seed=k)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    _report(
        7,
        worst < 1e-3 and elapsed < 120.0,
        f"max relative gradient error {worst:.2e} < 1e-3 over 10 configs "
        f"(float32, eps=1e-3, D=4, 6x6) in {elapsed:.1f}s (limit 120s)",
    )


# 8 -------------------------------------------- probabilities and capacity


def test_08_probability_normalization_and_budget():
    worst = 0.0
    for k in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([31008, k]))
        net = init_network(seed=k)
        head = net.convs["head"].w
        head += (rng.standard_normal(head.shape) * 0.5).astype(np.float32)
        d = int(rng.integers(2, 7))
        h = int(rng.integers(4, 11))
        w = int(rng.integers(4, 11))
        vols = [
            CostVolume(rng.uniform(0, 30, size=(d, h, w)).astype(np.float32), 1, d)
            for _ in range(int(rng.integers(1, 4)))
        ]
        prob, _ = forward(net, vols)
        worst = max(worst, float(np.abs(prob.sum(axis=0) - 1.0).max()))
    params = init_network(0).param_count()
    _report(
        8,
        worst <= 1e-5 and params <= 20_000,
        f"probabilities sum to 1 within {worst:.1e} (tol 1e-5), "
        f"{params} parameters <= 20000",
    )


# 9 --------------------------------- multi-view fusion beats stereo matching


def test_09_heuristic_fusion_beats_single_pair_stereo():
    t0 = time.perf_counter()
    ranges = DatasetRanges(
        width=64, height=64, layer_count=(2, 4), disparity=(1, 12),
        noise_sigma=(0.5, 1.0), base_cell=(5, 10), flat_patches=(0, 1),
    )
    bm = BlockMatchParams(rho=2, d_min=1, d_max=16)
    wins = 0
    multi_errs, stereo_errs = [], []
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([4242, i]))
        spec = sample_spec(ranges, rng)
        mset, gt = generate_scene(spec, int(rng.integers(0, 2**63)))
        vols = multiscopic_volumes(mset, "sad", bm)
        d_multi = wta_disparity(fuse(vols, FusionStrategy.HEURISTIC))
        idx = [k for k, (d, _) in enumerate(mset.surround) if d == Direction.RIGHT][0]
        d_stereo = wta_disparity(vols[idx])
        multi_errs.append(evaluate(d_multi, gt).avg_err)
        stereo_errs.append(evaluate(d_stereo, gt).avg_err)
        wins += multi_errs[-1] < stereo_errs[-1]
    reduction = (1.0 - np.mean(multi_errs) / np.mean(stereo_errs)) * 100.0
    elapsed = time.perf_counter() - t0
    _report(
        9,
        wins >= 18 and reduction >= 25.0 and elapsed < 300.0,
        f"fused+WTA beats single-pair WTA on {wins}/20 scenes (need >=18), "
        f"mean AvgErr reduction {reduction:.1f}% (need >=25%), "
        f"in {elapsed:.0f}s (limit 300s)",
    )


# 10 ------------------------------------------------ learned fusion training


def test_10_trained_network_beats_heuristic_baseline():
    ranges = DatasetRanges(
        width=64, height=64, layer_count=(2, 4), disparity=(1, 10),
        noise_sigma=(1.0, 2.0), base_cell=(5, 10), flat_patches=(1, 2),
    )
    bm = BlockMatchParams(rho=1, d_min=1, d_max=12)
    samples = []
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([777, i]))
        spec = sample_spec(ranges, rng)
        mset, gt = generate_scene(spec, int(rng.integers(0, 2**63)))
        pair = [(d, v) for d, v in mset.surround
                if d in (Direction.LEFT, Direction.RIGHT)]
        vols = multiscopic_volumes(MultiscopicSet(mset.center, pair), "sad", bm)
        mask = gt.valid_mask & (gt.values >= bm.d_min) & (gt.values <= bm.d_max)
        samples.append((vols, gt, mask))
    train_set, held_out = samples[:16], samples[16:]

    base_errs = [
        evaluate(wta_disparity(fuse(v, FusionStrategy.HEURISTIC)), g).avg_err
        for v, g, _ in held_out
    ]

    t0 = time.perf_counter()
    cfg = TrainConfig(learning_rate=1e-3, epochs=20, rng_seed=0)
    net, _ = train(train_set, cfg, net=init_network(0, dtype=np.float64))
    t_train = time.perf_counter() - t0
    net_errs = [evaluate(forward(net, v)[1], g).avg_err for v, g, _ in held_out]
    base_mean = float(np.mean(base_errs))
    net_mean = float(np.mean(net_errs))

    overfit_cfg = TrainConfig(learning_rate=1e-3, epochs=200, rng_seed=1)
    _, log = train([samples[0]], overfit_cfg, net=init_network(0, dtype=np.float64))
    ratio = log[-1] / log[0]

    _report(
        10,
        net_mean <= base_mean and t_train < 1800.0 and ratio < 0.10,
        f"held-out AvgErr: net {net_mean:.4f} <= heuristic {base_mean:.4f} "
        f"after 16-scene training in {t_train:.0f}s (limit 1800s); "
        f"single-sample overfit {log[0]:.3f} -> {log[-1]:.4f} "
        f"({ratio * 100:.2f}% of initial, need <10%)",
    )


# 11 -------------------------------------------------------- metric algebra


def test_11_metric_hand_values_and_relations():
    ones = DisparityMap(np.ones((4, 4), dtype=np.float32))
    perfect = evaluate(ones, ones)
    shifted = evaluate(DisparityMap(ones.values + 1.0), ones)
    half = evaluate(
        DisparityMap(np.array([[1.0, 3.0]], dtype=np.float32)),
        DisparityMap(np.array([[1.0, 1.0]], dtype=np.float32)),
    )
    hand_ok = (
        perfect.rms == 0.0 and perfect.avg_err == 0.0
        and all(v == 0.0 for v in perfect.bad.values())
        and shifted.rms == 1.0 and shifted.avg_err == 1.0
        and shifted.bad[0.5] == 100.0 and shifted.bad[1.0] == 0.0
        and half.avg_err == 1.0 and half.rms == np.sqrt(2.0)
        and half.bad[1.0] == 50.0
    )

    rng = np.random.default_rng(np.random.SeedSequence([31011]))
    rel_ok = True
    for _ in range(50):
        h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        gt = DisparityMap(rng.uniform(0, 8, size=(h, w)).astype(np.float32))
        pred = DisparityMap((gt.values + rng.normal(0, 2, size=(h, w))).astype(np.float32))
        rep = evaluate(pred, gt)
        rel_ok &= rep.rms >= rep.avg_err - 1e-12
        rel_ok &= rep.bad[0.5] >= rep.bad[1.0] >= rep.bad[2.0]
    _report(
        11,
        hand_ok and rel_ok,
        "hand examples exact (offset-by-1: RMS 1, Bad0.5 100%, Bad1 0%; "
        "half-off-by-2: AvgErr 1, RMS sqrt 2, Bad1 50%), "
        "rms >= avg and Bad monotone on 50/50 random maps",
    )


# 12 ------------------------------------------------------ CLI determinism


def _cli_pipeline(root, monkeypatch):
    """Every subcommand once, with relative paths so logs match bytewise."""
    root.mkdir(exist_ok=True)
    monkeypatch.chdir(root)
    cmds = [
        ["synth", "--scenes", "2", "--out", "data", "--width", "20",
         "--height", "16", "--disp-min", "1", "--disp-max", "3",
         "--noise-max", "0.5", "--seed", "11"],
        ["cost", "--in", "data/scene_0000", "--rho", "1", "--d-max", "3",
         "--out", "vols"],
        ["fuse", "--volumes", "vols/cost_left.mcv", "vols/cost_right.mcv",
         "vols/cost_top.mcv", "vols/cost_bottom.mcv",
         "--fusion", "heuristic", "--out", "fused.mcv"],
        ["disparity", "--in", "data/scene_0000", "--rho", "1", "--d-max", "3",
         "--fusion", "heuristic", "--subpixel", "1", "--out", "disp"],
        ["gc", "--in", "data/scene_0000", "--rho", "1", "--d-max", "3",
         "--upscale", "1", "--max-sweeps", "2", "--out", "gcmap"],
        ["train", "--data", "data", "--rho", "1", "--d-max", "3",
         "--epochs", "2", "--out", "model/net.mfn"],
        ["infer", "--in", "data/scene_0000", "--weights", "model/net.mfn",
         "--rho", "1", "--d-max", "3", "--out", "inferred"],
        ["eval", "--pred", "disp/disp.pfm", "--gt", "data/scene_0000/gt.pfm",
         "--out", "eval.txt"],
        ["colorize", "--in", "data/scene_0000/gt.pfm", "--d-max", "3",
         "--out", "gt_jet.ppm"],
    ]
    for argv in cmds:
        assert run(argv) == 0, f"pipeline step failed: {argv}"
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_12_cli_reruns_are_byte_identical(tmp_path, monkeypatch, capsys):
    first = _cli_pipeline(tmp_path / "a", monkeypatch)
    second = _cli_pipeline(tmp_path / "b", monkeypatch)
    capsys.readouterr()  # drop subcommand stdout
    same_names = set(first) == set(second)
    diffs = [name for name in first if same_names and first[name] != second[name]]
    _report(
        12,
        same_names and not diffs,
        f"two identical 9-subcommand pipeline runs produced "
        f"{len(first)} artifacts each, byte-identical"
        + ("" if not diffs else f"; differing: {diffs}"),
    )
