"""Command-line pipeline driver.

Subcommands: synth, cost, fuse, disparity, gc, train, infer, eval, colorize.
`disparity` is cost -> fuse (mean, min or heuristic) -> WTA, run one
disparity slice at a time so no cost volume is ever held; the fusion
network runs only through `infer`, on weights written by `train`.
Every hyperparameter is a flag; an optional key=value config file supplies
defaults (flags win).  Only the commands that draw random numbers (synth,
gc, train) take --seed.  Commands that write artifacts also write run.txt
echoing their parameters, and all outputs are byte-deterministic given the
same flags.

Exit codes: 0 success, 1 bad input, usage or an OS error (one `error:` line
naming the file), 2 internal assertion failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import costvol, fusion, graphcut, metrics, net, synthscene
from .errors import MultiscopicError, InputError
from .imagery import DisparityMap, colorize_jet, read_image, write_image
from .synthscene import VIEW_ORDER, load_scene, load_views


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        """Parse args with the config file's flags put in front, so that
        flags given on the command line win.  --config counts in every
        spelling this parser takes (--config=FILE, a prefix no other flag
        starts with, such as --conf), and the last one counts."""
        args = list(sys.argv[1:] if args is None else args)
        path = None
        for i, token in enumerate(args):
            name, eq, value = token.partition("=")
            if [o for o in self._option_string_actions if o.startswith(name)] == ["--config"]:
                path = value if eq else "".join(args[i + 1 : i + 2])
        if path == "":
            raise InputError("--config needs a path")
        if path is not None:
            args = _read_config(path) + args
        return super().parse_known_args(args, namespace)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise InputError(f"{path}: not a UTF-8 text file") from None


def _read_config(path: str) -> list[str]:
    """key=value lines -> flag tokens, injected before the real argv."""
    flags = []
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}: bad config line {raw!r}")
        key, value = line.split("=", 1)
        flags += ["--" + key.strip().replace("_", "-"), value.strip()]
    return flags


def _add_common(p: _Parser):
    p.add_argument("--config", help="key=value file of flag defaults")


def _add_bm(p: _Parser):
    p.add_argument("--rho", type=int, default=2, help="block radius")
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, default=60)
    p.add_argument("--matcher", choices=["sad", "bt"], default="sad")


def _add_gc(p: _Parser):
    p.add_argument("--k-occlusion", type=float, default=10.0)
    p.add_argument("--lambda1", type=float, default=9.0)
    p.add_argument("--lambda2", type=float, default=3.0)
    p.add_argument("--theta", type=float, default=8.0)
    p.add_argument("--d-cutoff", type=int, default=5)
    p.add_argument("--upscale", type=int, choices=[1, 2, 4], default=2)
    p.add_argument("--max-sweeps", type=int, default=8)
    p.add_argument("--recheck-weights", type=int, choices=[0, 1], default=0)


def _add_fusion(p: _Parser):
    p.add_argument(
        "--fusion", choices=[s.value for s in fusion.FusionStrategy], default="heuristic"
    )
    p.add_argument("--heuristic-factor", type=float, default=3.0)


def _bm_params(args) -> costvol.BlockMatchParams:
    return costvol.BlockMatchParams(rho=args.rho, d_min=args.d_min, d_max=args.d_max)


def _gc_params(args) -> graphcut.GcParams:
    return graphcut.GcParams(
        k_occlusion=args.k_occlusion,
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        theta=args.theta,
        d_cutoff=args.d_cutoff,
        upscale=args.upscale,
        max_sweeps=args.max_sweeps,
        rng_seed=args.seed,
        recheck_smoothness_weights=bool(args.recheck_weights),
    )


def _write_run_manifest(outdir: Path, command: str, args):
    skip = {"config", "func"}
    lines = [f"command={command}"]
    for key in sorted(vars(args)):
        if key in skip:
            continue
        lines.append(f"{key}={getattr(args, key)}")
    (outdir / "run.txt").write_text("\n".join(lines) + "\n")


def _input_set(args):
    """Scene directory (--in), of which only the images are read, or
    explicit per-view image paths: one synthscene.read_views either way."""
    if args.scene_dir:
        return load_views(args.scene_dir)
    if not args.center:
        raise InputError("need --in SCENE_DIR or --center plus view images")
    views = [(d, getattr(args, d.value)) for d in VIEW_ORDER if getattr(args, d.value)]
    if not views:
        raise InputError("need at least one of --left/--right/--top/--bottom")
    return synthscene.read_views(args.center, views)


def _add_inputs(p: _Parser):
    p.add_argument("--in", dest="scene_dir", help="scene directory")
    p.add_argument("--center")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--top")
    p.add_argument("--bottom")


def _write_disparity(command: str, args, dmap: DisparityMap) -> int:
    """disp.pfm, its Jet rendering and run.txt under --out."""
    # the ramp spans [0, d_max]; a [0, 0] range puts its zeros at its start
    jet = colorize_jet(dmap, float(max(args.d_max, 1)))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_image(outdir / "disp.pfm", dmap)
    write_image(outdir / "disp_jet.ppm", jet)
    _write_run_manifest(outdir, command, args)
    print(f"wrote {outdir / 'disp.pfm'}")
    return 0


def _manifest(root: Path) -> list[str]:
    """Scene directory names listed in root/manifest.txt."""
    path = root / "manifest.txt"
    if not path.exists():
        raise InputError(f"{root}: no manifest.txt")
    return _read_text(path).split()


def _cmd_synth(args) -> int:
    ranges = synthscene.DatasetRanges(
        width=args.width,
        height=args.height,
        layer_count=(args.layers_min, args.layers_max),
        disparity=(args.disp_min, args.disp_max),
        noise_sigma=(args.noise_min, args.noise_max),
    )
    outdir = Path(args.out)
    manifest = synthscene.generate_dataset(ranges, args.scenes, args.seed, outdir)
    _write_run_manifest(outdir, "synth", args)
    print(f"wrote {len(manifest)} scenes under {outdir}")
    return 0


def _cmd_cost(args) -> int:
    mset = _input_set(args)
    volumes = costvol.multiscopic_volumes(mset, args.matcher, _bm_params(args))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for (direction, _), vol in zip(mset.surround, volumes):
        costvol.save_volume(outdir / f"cost_{direction.value}.mcv", vol)
    _write_run_manifest(outdir, "cost", args)
    print(f"wrote {len(volumes)} cost volumes under {outdir}")
    return 0


def _cmd_fuse(args) -> int:
    volumes = [costvol.load_volume(p) for p in args.volumes]
    costvol.check_volumes(volumes, "fuse", args.volumes)
    fused = fusion.fuse(volumes, fusion.FusionStrategy(args.fusion), args.heuristic_factor)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    costvol.save_volume(out, fused)
    print(f"wrote {out}")
    return 0


def _cmd_disparity(args) -> int:
    # one disparity at a time: matcher slices -> fusion -> running-argmin WTA
    slices = costvol.multiscopic_slices(_input_set(args), args.matcher, _bm_params(args))
    fused = fusion.fuse_slices(
        slices, fusion.FusionStrategy(args.fusion), args.heuristic_factor
    )
    dmap = fusion.wta_slices(fused, args.d_min, bool(args.subpixel))
    return _write_disparity("disparity", args, dmap)


def _cmd_gc(args) -> int:
    mset = _input_set(args)
    dmap = graphcut.multiscopic_gc(mset, _gc_params(args), args.matcher, _bm_params(args))
    return _write_disparity("gc", args, dmap)


def _cmd_train(args) -> int:
    out = Path(args.out)
    log_path = out.with_suffix(".log")
    if log_path == out:
        raise InputError(f"{out}: the loss log would overwrite the weights; use another suffix")
    cfg = net.TrainConfig(learning_rate=args.lr, epochs=args.epochs, rng_seed=args.seed)
    root = Path(args.data)
    scene_dirs = [root / name for name in _manifest(root)]
    bm = _bm_params(args)
    dataset = []
    for sdir in scene_dirs:
        mset, gt = load_scene(sdir)
        if gt is None:
            raise InputError(f"{sdir}: no gt.pfm; cannot train")
        mask = gt.valid_mask & (gt.values >= bm.d_min) & (gt.values <= bm.d_max)
        if not mask.any():
            raise InputError(
                f"{sdir}: no ground-truth pixel in the disparity range [{bm.d_min}, {bm.d_max}]"
            )
        volumes = costvol.multiscopic_volumes(mset, args.matcher, bm)
        dataset.append((volumes, gt, mask))
    model, log = net.train(dataset, cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    net.save_net(model, out)
    log_path.write_text("".join(f"{i},{loss!r}\n" for i, loss in enumerate(log)))
    _write_run_manifest(out.parent, "train", args)
    print(f"trained on {len(dataset)} scenes; final epoch loss {log[-1]:.6f}")
    return 0


def _cmd_infer(args) -> int:
    mset = _input_set(args)
    model = net.load_net(args.weights)
    volumes = costvol.multiscopic_volumes(mset, args.matcher, _bm_params(args))
    _, dmap = net.forward(model, volumes)
    return _write_disparity("infer", args, dmap)


def _read_disparity(path: Path) -> DisparityMap:
    loaded = read_image(path)
    if not isinstance(loaded, DisparityMap):
        raise InputError(f"{path}: expected a PFM disparity map")
    return loaded


def _cmd_eval(args) -> int:
    pred_path = Path(args.pred)
    gt_path = Path(args.gt)
    thresholds = tuple(args.bad)
    if pred_path.is_dir() != gt_path.is_dir():
        raise InputError("--pred and --gt must both be files or both directories")
    if pred_path.is_dir():
        names = _manifest(gt_path)
        pairs = [
            (
                _read_disparity(pred_path / name / "disp.pfm"),
                _read_disparity(gt_path / name / "gt.pfm"),
            )
            for name in names
        ]
    else:
        names = [pred_path.stem]
        pairs = [(_read_disparity(pred_path), _read_disparity(gt_path))]
    _, _, table = metrics.evaluate_dataset(
        pairs, thresholds, names, bool(args.penalize_invalid)
    )
    sys.stdout.write(table)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table)
    return 0


def _cmd_colorize(args) -> int:
    dmap = _read_disparity(Path(getattr(args, "in")))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_image(out, colorize_jet(dmap, args.d_max))
    print(f"wrote {args.out}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: parsing
    keeps no state in it, and each parse gets a fresh namespace."""
    parser = _Parser(prog="multiscopic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic multiscopic dataset")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--layers-min", type=int, default=2)
    p.add_argument("--layers-max", type=int, default=4)
    p.add_argument("--disp-min", type=int, default=1)
    p.add_argument("--disp-max", type=int, default=12)
    p.add_argument("--noise-min", type=float, default=0.0)
    p.add_argument("--noise-max", type=float, default=1.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("cost", help="write per-view cost volumes (MCV1)")
    _add_common(p)
    _add_inputs(p)
    _add_bm(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("fuse", help="fuse saved cost volumes")
    _add_common(p)
    p.add_argument("--volumes", nargs="+", required=True)
    _add_fusion(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("disparity", help="cost -> fuse -> WTA end to end")
    _add_common(p)
    _add_inputs(p)
    _add_bm(p)
    _add_fusion(p)
    p.add_argument("--subpixel", type=int, choices=[0, 1], default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_disparity)

    p = sub.add_parser("gc", help="graph-cuts disparity with occlusion label")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    _add_inputs(p)
    _add_bm(p)
    _add_gc(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gc)
    p.set_defaults(matcher="bt")

    p = sub.add_parser("train", help="train the fusion network on a dataset")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    _add_bm(p)
    p.add_argument("--data", required=True, help="dataset root with manifest.txt")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument(
        "--out", required=True,
        help="output weight file (.mfn, version 2); the loss log goes next to it as .log",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="network disparity from a scene")
    _add_common(p)
    _add_inputs(p)
    _add_bm(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="metrics against ground truth")
    _add_common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--bad", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--penalize-invalid", type=int, choices=[0, 1], default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("colorize", help="render a disparity PFM as a Jet PPM")
    _add_common(p)
    p.add_argument("--in", required=True)
    p.add_argument("--d-max", type=float, default=60.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_colorize)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 1 if code != 0 else 0
    except MultiscopicError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except OSError as err:
        where = "" if err.filename is None else f"{err.filename}: "
        sys.stderr.write(f"error: {where}{err.strerror or err}\n")
        return 1
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        sys.stderr.write(f"error: out of memory{detail}\n")
        return 1
    except AssertionError as err:
        sys.stderr.write(f"internal error: {err}\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
