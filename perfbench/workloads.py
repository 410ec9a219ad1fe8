"""The three workloads and the in-process runner that drives them.

Every CLI operation goes through multiscopic.cli.run(argv) in this process,
so interpreter start-up never lands in a timing, and every operation is
checked and counted.  A "pass" is the workload's fixed plan of operations:
each reference scene through the main command once (after one `train` on
net-train-infer).  Timings come from whole passes only, so every scene
weighs the same however fast the program is.

Inputs per run:

* reference scenes from fixed synth seeds, the same in every run.  The
  timings and the accuracy metrics come from them.  Per-scene AvgErr varies
  by a factor of ten between synthetic scenes, and one gc scene costs 0.7x
  to 2.2x another, so no seed-varied set that fits in a run would hold
  these figures steady; on a fixed set any change shows;
* seeded scenes from `synth --seed 1000+SEED`, which vary with the
  benchmark's --seed.  Each goes through the main command once after the
  timed passes, checked and counted like every other operation.

The network is trained on a fixed reference set for the same reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from multiscopic import cli
from multiscopic.imagery import DisparityMap, read_image
from multiscopic.net import load_net

SEEDED_OFFSET = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # scene width = height
    d_range: tuple[int, int]  # synth layer disparities, and --d-min/--d-max
    flags: tuple[str, ...]  # main command and its flags, minus --in/--out
    ref_scenes: int
    seeded_scenes: int
    warm_size: int
    warm_disp: tuple[int, int]
    train_scenes: int = 0
    epochs: int = 0
    train_flags: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        # SAD volumes and HEURISTIC fusion do the work; gc and the net do nothing.
        Workload(
            name="dense-wta",
            size=256,
            d_range=(0, 32),
            flags=("disparity", "--rho", "2", "--matcher", "sad",
                   "--fusion", "heuristic", "--subpixel", "1"),
            ref_scenes=6,
            seeded_scenes=2,
            warm_size=64,
            warm_disp=(0, 16),
        ),
        # Max-flow and the expansion graph build do the work; SAD and the net
        # do nothing, and BT on the upscaled images is under 1%.
        Workload(
            name="gc-expansion",
            size=32,
            d_range=(1, 8),
            flags=("gc",),
            ref_scenes=4,
            seeded_scenes=1,
            warm_size=16,
            warm_disp=(1, 4),
        ),
        # Conv backward (train) and forward (infer) do the work; gc does nothing.
        Workload(
            name="net-train-infer",
            size=48,
            d_range=(1, 10),
            flags=("infer", "--rho", "1"),
            ref_scenes=8,
            seeded_scenes=4,
            warm_size=24,
            warm_disp=(1, 6),
            train_scenes=4,
            epochs=3,
            train_flags=("train", "--rho", "1"),
        ),
    )
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _accuracy(pred: DisparityMap, gt: DisparityMap) -> tuple[float, float]:
    """AvgErr over pixels valid in both maps, and Bad1.0 in percent with
    prediction-invalid pixels counted as errors.  Written out here rather
    than taken from multiscopic.metrics, so the check does not rest on the
    code it checks."""
    gt_ok = np.isfinite(gt.values)
    pred_ok = np.isfinite(pred.values)
    both = gt_ok & pred_ok
    err = np.abs(pred.values[both].astype(np.float64) - gt.values[both].astype(np.float64))
    missing = int((gt_ok & ~pred_ok).sum())
    avg = float(err.mean()) if err.size else float("inf")
    bad1 = 100.0 * (int((err > 1.0).sum()) + missing) / max(int(gt_ok.sum()), 1)
    return avg, bad1


@dataclass
class Op:
    kind: str  # "main", "train", "warm" or "seeded"; only main and train are timed
    wall: float
    px: int = 0
    traced: bool = False


@dataclass
class Runner:
    """Runs one workload's CLI operations in this process and checks each."""

    workload: Workload
    seed: int
    workdir: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    accuracy: list[tuple[float, float]] = field(default_factory=list)
    _digests: dict[str, str] = field(default_factory=dict)

    # -- operations ------------------------------------------------------------

    def _cli(self, argv: list[str], tracer=None) -> tuple[bool, float, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.run(argv)
                else:
                    rc, _ = tracer.call("cli.run", cli.run, argv)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            rc = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        if rc != 0:
            return False, wall, f"exit code {rc}: {err.getvalue().strip()[-400:]}"
        return True, wall, ""

    def _account(self, argv: list[str], ok: bool, why: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{' '.join(argv[:3])}: {why}")

    def synth(self, out: Path, scenes: int, size: int, disp, seed: int | None) -> list[Path]:
        argv = ["synth", "--scenes", str(scenes), "--out", str(out),
                "--width", str(size), "--height", str(size),
                "--disp-min", str(disp[0]), "--disp-max", str(disp[1])]
        if seed is not None:  # None keeps the CLI's default seed
            argv += ["--seed", str(seed)]
        ok, _, why = self._cli(argv)
        manifest = out / "manifest.txt"
        names = manifest.read_text().split() if manifest.is_file() else []
        if ok and len(names) != scenes:
            ok, why = False, f"manifest lists {len(names)} scenes, expected {scenes}"
        self._account(argv, ok, why)
        if not ok:
            raise RuntimeError(f"set-up failed: {why}")
        return [out / name for name in names]

    def main_op(self, scene: Path, out: Path, kind="main", tracer=None, weights=None):
        """The main command on one scene; timed (main) ones are scored."""
        w = self.workload
        argv = [*w.flags, "--in", str(scene),
                "--d-min", str(w.d_range[0]), "--d-max", str(w.d_range[1])]
        if weights is not None:
            argv += ["--weights", str(weights)]
        argv += ["--out", str(out)]
        check = lambda: self._check_disparity(scene, out / "disp.pfm", kind == "main")
        self._op(argv, check, kind, w.size * w.size, tracer)

    def train_op(self, data: Path, weights: Path, epochs: int, kind="train", tracer=None):
        w = self.workload
        argv = [*w.train_flags, "--data", str(data),
                "--d-min", str(w.d_range[0]), "--d-max", str(w.d_range[1]),
                "--epochs", str(epochs), "--out", str(weights)]
        self._op(argv, lambda: self._check_weights(weights), kind, 0, tracer)

    def _op(self, argv: list[str], check, kind: str, px: int, tracer):
        """Run, check, count and record one operation; a failed one keeps
        its time in the record."""
        before = len(tracer.problems) if tracer else 0
        ok, wall, why = self._cli(argv, tracer)
        if ok:
            why = check()
            ok = not why
        if ok and tracer is not None and len(tracer.problems) > before:
            ok, why = False, "; ".join(tracer.problems[before:])
        self._account(argv, ok, why)
        self.ops.append(Op(kind, wall, px, tracer is not None))

    # -- checks ----------------------------------------------------------------

    def _same_as_before(self, path: Path) -> str:
        """Reruns on the same input must write byte-identical files."""
        digest = _digest(path)
        first = self._digests.setdefault(str(path), digest)
        return "" if first == digest else f"{path.name} differs from an earlier run"

    def _check_disparity(self, scene: Path, path: Path, score: bool) -> str:
        try:
            pred = read_image(path)
            gt = read_image(scene / "gt.pfm")
        except Exception as err:  # any read failure is a failed check
            return f"cannot read back {path.name}: {err}"
        if not isinstance(pred, DisparityMap):
            return f"{path.name} is not a disparity map"
        if pred.values.shape != gt.values.shape:
            return f"{path.name} shape {pred.values.shape} != scene {gt.values.shape}"
        lo, hi = self.workload.d_range
        vals = pred.values[np.isfinite(pred.values)]
        if vals.size and (vals.min() < lo or vals.max() > hi):
            return f"disparities [{vals.min()}, {vals.max()}] leave [{lo}, {hi}]"
        if score and str(path) not in self._digests:
            self.accuracy.append(_accuracy(pred, gt))
        return self._same_as_before(path)

    def _check_weights(self, path: Path) -> str:
        try:
            load_net(path)
        except Exception as err:  # any load failure is a failed check
            return f"cannot load {path.name}: {err}"
        return self._same_as_before(path)


@dataclass
class Plan:
    """Scene sets of one workload, laid out under a work directory."""

    ref: list[Path]
    seeded: list[Path]
    train: Path | None = None


def set_up(r: Runner) -> Plan:
    """Generate the scene sets and run the untimed warm-up operation."""
    w, root = r.workload, r.workdir
    train = ref_seed = None
    if w.train_scenes:
        train = root / "train"
        r.synth(train, w.train_scenes, w.size, w.d_range, None)
        ref_seed = 1  # held out: the training set has the default seed
    ref = r.synth(root / "ref", w.ref_scenes, w.size, w.d_range, ref_seed)
    seeded = r.synth(root / "seeded", w.seeded_scenes, w.size, w.d_range, SEEDED_OFFSET + r.seed)
    warm = r.synth(root / "warm", 1, w.warm_size, w.warm_disp, None)
    if train is not None:
        r.train_op(root / "warm", root / "warm_net.mfn", 1, kind="warm")
    else:
        r.main_op(warm[0], root / "out" / "warm", kind="warm")
    return Plan(ref, seeded, train)


def _weights(r: Runner, plan: Plan) -> Path | None:
    return r.workdir / "net.mfn" if plan.train is not None else None


def run_pass(r: Runner, plan: Plan, tracer=None):
    """One timed pass: train (net-train-infer), then every reference scene once."""
    weights = _weights(r, plan)
    if weights is not None:
        r.train_op(plan.train, weights, r.workload.epochs, tracer=tracer)
    for scene in plan.ref:
        r.main_op(scene, r.workdir / "out" / "ref" / scene.name, tracer=tracer,
                  weights=weights)


def run_seeded(r: Runner, plan: Plan):
    """Every seeded scene once through the main command, untimed, with the
    weights of the last pass."""
    for scene in plan.seeded:
        r.main_op(scene, r.workdir / "out" / "seeded" / scene.name, kind="seeded",
                  weights=_weights(r, plan))
