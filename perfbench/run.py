"""Benchmark of the multiscopic CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is dense-wta, gc-expansion, net-train-infer, or `all` (each workload
in its own process, one after the other).  Run it from anywhere inside a
checkout; it imports the package from src/ and writes only under
.perfbench_work/, which it removes again.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a run in which every other pass is traced.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NAMES = ("dense-wta", "gc-expansion", "net-train-infer")

# Setup is measured this many times: once here, the rest in fresh processes,
# so import and first-call costs count every time.
SETUP_SAMPLES = 5
# Stop starting passes once one more could end after this many seconds of
# process time; every run, seeded checks included, must exit inside 180 s.
HARD_STOP_S = 140.0

END_TO_END = (
    ("setup_s", "s"),
    ("scene_s", "s"),
    ("mpix_per_s", "Mpx/s"),
    ("train_step_s", "s"),
    ("avg_err_px", "px"),
    ("bad1_pct", "%"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _timed_phase(runner, plan, seconds: float, tracer):
    """Whole passes until the one closest to `seconds` has ended.  With a
    tracer, passes alternate untraced/traced, at least one of each."""
    from workloads import run_pass

    start = time.perf_counter()
    passes = traced = 0
    while True:
        use = tracer if tracer is not None and passes % 2 == 1 else None
        with use or contextlib.nullcontext():
            run_pass(runner, plan, use)
        traced += use is not None
        passes += 1
        now = time.perf_counter()
        per_pass = (now - start) / passes
        if passes < (2 if tracer is not None else 1):
            continue
        if now - start + per_pass / 2 >= seconds or now - START + per_pass > HARD_STOP_S:
            return traced


def _child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _end_to_end(runner, setup_samples) -> dict[str, float]:
    w = runner.workload
    main = [op for op in runner.ops if op.kind == "main"]
    walls = [op.wall for op in main]
    train = [op.wall for op in runner.ops if op.kind == "train"]
    # Without a train command, one step is one scene of the main command.
    train_step = (statistics.median(train) / (w.epochs * w.train_scenes) if train
                  else statistics.median(walls))
    accuracy = runner.accuracy or [(float("nan"), float("nan"))]
    return {
        "setup_s": statistics.median(setup_samples),
        "scene_s": statistics.median(walls),
        "mpix_per_s": sum(op.px for op in main) / 1e6 / sum(walls),
        "train_step_s": train_step,
        "avg_err_px": statistics.fmean(avg for avg, _ in accuracy),
        "bad1_pct": statistics.fmean(bad for _, bad in accuracy),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _tail_line(runner) -> str:
    """Sample count of scene_s, and the highest percentile of the scene
    times that still has ten samples above it."""
    walls = sorted(op.wall for op in runner.ops if op.kind == "main" and not op.traced)
    line = f"  scene_s from {len(walls)} timed scenes"
    pct = int(100 * (1 - 10 / len(walls)))
    if pct > 50:
        value = statistics.quantiles(walls, n=100)[pct - 1]
        line += f"; p{pct} {value:.6g} s"
    return line


def _overhead_pct(runner) -> float:
    main = [op for op in runner.ops if op.kind == "main"]
    plain = statistics.median(op.wall for op in main if not op.traced)
    traced = statistics.median(op.wall for op in main if op.traced)
    return 100.0 * (traced / plain - 1.0)


def _run_workload(args, import_s) -> int:
    import machine
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS, Runner, run_seeded, set_up

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload], args.seed, workdir)
    setup_tracer = Tracer() if args.trace else None
    try:
        t0 = time.perf_counter()
        with setup_tracer or contextlib.nullcontext():
            plan = set_up(runner)
        setup_s = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        samples = [setup_s]
        if not args.trace:
            samples += [_child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        tracer = Tracer() if args.trace else None
        traced_passes = _timed_phase(runner, plan, args.seconds, tracer)
        run_seeded(runner, plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    if args.trace:
        values = layer_metrics(tracer, traced_passes, setup_tracer, _overhead_pct(runner))
        units = {name: unit for name, unit, _ in PER_LAYER}
        computed = {name for name, _, is_computed in PER_LAYER if is_computed}
    else:
        values = _end_to_end(runner, samples)
        units = dict(END_TO_END)
        computed = set()
    assert values.keys() == units.keys(), "metric table and values disagree"

    ops_failed_pct = 100.0 * runner.failed / runner.attempted
    print("machine " + json.dumps(machine.record(ROOT), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} ops, {runner.failed} failed, "
          f"ops_failed_pct {ops_failed_pct:.2f} %")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    if not args.trace:
        print(_tail_line(runner))
    for name, value in values.items():
        tag = "  (computed)" if name in computed else ""
        print(f"  {name:36s} {value:14.6g} {units[name]}{tag}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so each gets its own peak RSS."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "multiscopic" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package at {SRC / 'multiscopic'}; "
                         "run the benchmark inside a checkout of the repository\n")
        return 2
    if args.workload == "all":
        return _run_all(args)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import multiscopic.cli  # noqa: F401  (timed: part of setup_s)

    import_s = time.perf_counter() - t0
    try:
        return _run_workload(args, import_s)
    except RuntimeError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
