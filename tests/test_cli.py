"""End-to-end command-line behavior: pipelines, determinism, exit codes."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import multiscopic
from multiscopic import CostVolume, DisparityMap, Image, load_volume, read_image, save_volume
from multiscopic.cli import run


def _synth(tmp_path, name="data", scenes=1, extra=()):
    out = tmp_path / name
    argv = [
        "synth",
        "--scenes",
        str(scenes),
        "--seed",
        "5",
        "--out",
        str(out),
        "--width",
        "16",
        "--height",
        "12",
        "--disp-min",
        "1",
        "--disp-max",
        "3",
        "--noise-max",
        "0.5",
    ] + list(extra)
    assert run(argv) == 0
    return out


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ------------------------------------------------------------------ pipelines


def test_synth_then_disparity(tmp_path, capsys):
    data = _synth(tmp_path, scenes=2)
    assert (data / "scene_0001" / "center.pgm").exists()
    out = tmp_path / "disp"
    code = run(
        ["disparity", "--in", str(data / "scene_0000"), "--fusion", "heuristic",
         "--rho", "1", "--d-max", "3", "--out", str(out)]
    )
    assert code == 0
    assert (out / "disp.pfm").exists()
    assert (out / "disp_jet.ppm").exists()
    assert (out / "run.txt").exists()
    dmap = read_image(str(out / "disp.pfm"))
    assert dmap.values.shape == (12, 16)
    captured = capsys.readouterr()
    assert "disp.pfm" in captured.out


def test_disparity_from_explicit_views(tmp_path):
    data = _synth(tmp_path)
    scene = data / "scene_0000"
    out = tmp_path / "d2"
    code = run(
        ["disparity", "--center", str(scene / "center.pgm"),
         "--left", str(scene / "left.pgm"), "--right", str(scene / "right.pgm"),
         "--rho", "1", "--d-max", "3", "--out", str(out)]
    )
    assert code == 0
    assert (out / "disp.pfm").exists()


def test_cost_then_fuse_round_trip(tmp_path):
    data = _synth(tmp_path)
    scene = data / "scene_0000"
    costs = tmp_path / "costs"
    assert run(["cost", "--in", str(scene), "--rho", "1", "--d-max", "3",
                "--out", str(costs)]) == 0
    vols = sorted(costs.glob("cost_*.mcv"))
    assert {v.name for v in vols} == {
        "cost_left.mcv", "cost_right.mcv", "cost_top.mcv", "cost_bottom.mcv"
    }
    fused_path = tmp_path / "fused.mcv"
    assert run(["fuse", "--volumes"] + [str(v) for v in vols] +
               ["--fusion", "min", "--out", str(fused_path)]) == 0
    fused = load_volume(str(fused_path))
    stack = np.stack([load_volume(str(v)).costs for v in vols])
    np.testing.assert_array_equal(fused.costs, stack.min(axis=0))


def test_gc_pipeline(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "gc"
    code = run(
        ["gc", "--in", str(data / "scene_0000"), "--rho", "1", "--d-max", "3",
         "--upscale", "1", "--out", str(out)]
    )
    assert code == 0
    assert (out / "disp.pfm").exists()
    run_txt = (out / "run.txt").read_text()
    assert "matcher=bt" in run_txt  # gc defaults to the pixelwise matcher


def test_train_then_infer(tmp_path):
    data = _synth(tmp_path, scenes=2)
    weights = tmp_path / "model" / "net.mfn"
    code = run(
        ["train", "--data", str(data), "--rho", "1", "--d-max", "3",
         "--epochs", "2", "--out", str(weights)]
    )
    assert code == 0
    assert weights.exists()
    log = weights.with_suffix(".log").read_text().strip().split("\n")
    assert len(log) == 2 and log[0].startswith("0,")
    out = tmp_path / "inf"
    code = run(
        ["infer", "--in", str(data / "scene_0000"), "--weights", str(weights),
         "--rho", "1", "--d-max", "3", "--out", str(out)]
    )
    assert code == 0
    dmap = read_image(str(out / "disp.pfm"))
    assert dmap.values.shape == (12, 16)
    assert (dmap.values >= 1.0).all() and (dmap.values <= 3.0).all()


def test_eval_file_pair(tmp_path, capsys):
    data = _synth(tmp_path)
    gt = data / "scene_0000" / "gt.pfm"
    capsys.readouterr()  # drop output of the synth step
    code = run(["eval", "--pred", str(gt), "--gt", str(gt)])
    assert code == 0
    table = capsys.readouterr().out
    lines = table.strip().split("\n")
    assert lines[0].startswith("scene\tRMS\tAvgErr")
    assert "\t0.0000\t0.0000\t" in lines[1]


def test_eval_directory_mode(tmp_path, capsys):
    data = _synth(tmp_path, scenes=2)
    pred = tmp_path / "preds"
    for scene in ("scene_0000", "scene_0001"):
        out = pred / scene
        assert run(["disparity", "--in", str(data / scene), "--rho", "1",
                    "--d-max", "3", "--out", str(out)]) == 0
    report = tmp_path / "metrics.tsv"
    capsys.readouterr()  # drop output of the preparation steps
    code = run(["eval", "--pred", str(pred), "--gt", str(data),
                "--bad", "0.5", "1", "--out", str(report)])
    assert code == 0
    table = report.read_text()
    lines = table.strip().split("\n")
    assert lines[0].split("\t") == ["scene", "RMS", "AvgErr", "Bad0.5", "Bad1"]
    assert len(lines) == 4  # two scenes + mean
    assert capsys.readouterr().out == table


def test_colorize(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "jet.ppm"
    code = run(["colorize", "--in", str(data / "scene_0000" / "gt.pfm"),
                "--d-max", "3", "--out", str(out)])
    assert code == 0
    img = read_image(str(out))
    assert img.pixels.shape == (12, 16, 3)


# ---------------------------------------------------------------- determinism


def test_synth_byte_identical_runs(tmp_path):
    a = _synth(tmp_path, name="a", scenes=2)
    b = _synth(tmp_path, name="b", scenes=2)
    ta, tb = _tree_bytes(a), _tree_bytes(b)
    # run manifests echo the output path; everything else must match exactly
    ta.pop("run.txt"), tb.pop("run.txt")
    assert ta.keys() == tb.keys()
    for rel in ta:
        assert ta[rel] == tb[rel], rel


def test_disparity_byte_identical_runs(tmp_path):
    data = _synth(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["disparity", "--in", str(data / "scene_0000"), "--rho", "1",
                    "--d-max", "3", "--out", str(out)]) == 0
        outs.append(out)
    for f in ("disp.pfm", "disp_jet.ppm"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


def test_run_manifest_is_sorted_and_complete(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "m"
    assert run(["disparity", "--in", str(data / "scene_0000"), "--rho", "1",
                "--d-max", "3", "--out", str(out)]) == 0
    lines = (out / "run.txt").read_text().strip().split("\n")
    assert lines[0] == "command=disparity"
    keys = [l.split("=", 1)[0] for l in lines[1:]]
    assert keys == sorted(keys)
    kv = dict(l.split("=", 1) for l in lines[1:])
    assert kv["rho"] == "1"
    assert kv["d_max"] == "3"
    assert kv["fusion"] == "heuristic"
    assert kv["subpixel"] == "1"


def _manifest_values(outdir):
    return dict(l.split("=", 1) for l in (outdir / "run.txt").read_text().split("\n")[1:] if l)


def test_seed_is_taken_where_a_command_is_random(tmp_path):
    data = _synth(tmp_path, scenes=2)  # with --seed 5
    assert _manifest_values(data)["seed"] == "5"
    gc_out = tmp_path / "gc"
    assert run(["gc", "--in", str(data / "scene_0000"), "--rho", "1", "--d-max", "3",
                "--upscale", "1", "--max-sweeps", "1", "--seed", "3",
                "--out", str(gc_out)]) == 0
    assert _manifest_values(gc_out)["seed"] == "3"
    weights = tmp_path / "model" / "net.mfn"
    assert run(["train", "--data", str(data), "--rho", "1", "--d-max", "3",
                "--epochs", "1", "--seed", "2", "--out", str(weights)]) == 0
    assert _manifest_values(weights.parent)["seed"] == "2"
    disp_out = tmp_path / "disp"
    assert run(["disparity", "--in", str(data / "scene_0000"), "--rho", "1",
                "--d-max", "3", "--out", str(disp_out)]) == 0
    assert "seed" not in _manifest_values(disp_out)


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--in", "scene", "--out", "out"],
        ["fuse", "--volumes", "a.mcv", "--out", "out.mcv"],
        ["disparity", "--in", "scene", "--out", "out"],
        ["infer", "--in", "scene", "--weights", "net.mfn", "--out", "out"],
        ["eval", "--pred", "disp.pfm", "--gt", "gt.pfm", "--out", "eval.txt"],
        ["colorize", "--in", "gt.pfm", "--out", "jet.ppm"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_rejected_where_nothing_is_random(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: multiscopic ")
    assert "unrecognized arguments: --seed 1" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not any(tmp_path.iterdir())


# ------------------------------------------------------------------- config


def test_config_file_supplies_defaults(tmp_path):
    data = _synth(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# defaults\nrho=0\nd_max=2\n")
    out = tmp_path / "c1"
    assert run(["disparity", "--config", str(cfg), "--in", str(data / "scene_0000"),
                "--out", str(out)]) == 0
    kv = dict(
        l.split("=", 1) for l in (out / "run.txt").read_text().strip().split("\n")[1:]
    )
    assert kv["rho"] == "0" and kv["d_max"] == "2"
    # explicit flags beat the config file
    out2 = tmp_path / "c2"
    assert run(["disparity", "--config", str(cfg), "--rho", "1",
                "--in", str(data / "scene_0000"), "--out", str(out2)]) == 0
    kv2 = dict(
        l.split("=", 1) for l in (out2 / "run.txt").read_text().strip().split("\n")[1:]
    )
    assert kv2["rho"] == "1" and kv2["d_max"] == "2"


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("rho 0\n")
    assert run(["disparity", "--config", str(cfg), "--out", "x"]) == 1
    assert "bad config line" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", [
    ["--config={}"],
    ["--conf", "{}"],
    ["--conf={}"],
], ids=["config-eq", "prefix", "prefix-eq"])
def test_config_applies_in_every_spelling_the_parser_accepts(tmp_path, spelling):
    data = _synth(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("rho=1\nd_max=5\n")

    def manifest(name, flags):
        out = tmp_path / name
        assert run(["disparity", *flags, "--in", str(data / "scene_0000"),
                    "--out", str(out)]) == 0
        return {k: v for k, v in _manifest_values(out).items() if k != "out"}

    want = manifest("plain", ["--config", str(cfg)])
    assert want["rho"] == "1" and want["d_max"] == "5"
    assert manifest("spelled", [f.format(cfg) for f in spelling]) == want


@pytest.mark.parametrize("flags", [["--config"], ["--config="]], ids=["last", "empty"])
def test_config_without_path_exits_one(tmp_path, capsys, flags):
    out = tmp_path / "x"
    assert run(["disparity", "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == "error: --config needs a path\n"
    assert not out.exists()


# ---------------------------------------------------------------- exit codes


def test_unknown_flag_exits_one(tmp_path, capsys):
    assert run(["disparity", "--bogus", "1", "--out", str(tmp_path)]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert run(["transmogrify"]) == 1
    capsys.readouterr()


def test_missing_required_flag_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    assert run(["infer", "--in", str(data / "scene_0000"), "--out", "x"]) == 1
    assert "--weights" in capsys.readouterr().err


def _assert_invalid_fusion_choice(capsys):
    err = capsys.readouterr().err
    assert err.startswith("usage: multiscopic ")
    assert "--fusion" in err and "invalid choice" in err and "Traceback" not in err


def test_disparity_refuses_net_fusion(tmp_path, capsys):
    # the network runs only through `infer`
    data = _synth(tmp_path)
    out = tmp_path / "n"
    code = run(["disparity", "--in", str(data / "scene_0000"), "--fusion", "net",
                "--rho", "1", "--d-max", "3", "--out", str(out)])
    assert code == 1
    _assert_invalid_fusion_choice(capsys)
    assert not out.exists()


def test_fuse_refuses_net_strategy(tmp_path, capsys):
    data = _synth(tmp_path)
    costs = tmp_path / "c"
    assert run(["cost", "--in", str(data / "scene_0000"), "--rho", "1",
                "--d-max", "3", "--out", str(costs)]) == 0
    capsys.readouterr()
    vol = str(next(costs.glob("cost_*.mcv")))
    out = tmp_path / "x.mcv"
    assert run(["fuse", "--volumes", vol, "--fusion", "net", "--out", str(out)]) == 1
    _assert_invalid_fusion_choice(capsys)
    assert not out.exists()


def _assert_one_error_line(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_config_that_is_not_text_reports_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"\xff\xfed_max=2\n")
    assert run(["colorize", "--config", str(cfg), "--in", "x.pfm", "--out", "x.ppm"]) == 1
    _assert_one_error_line(capsys, cfg)


def test_manifest_that_is_not_text_reports_path(tmp_path, capsys):
    data = _synth(tmp_path)
    manifest = data / "manifest.txt"
    manifest.write_bytes(b"\xff\xfescene_0000\n")
    assert run(["train", "--data", str(data), "--epochs", "1",
                "--out", str(tmp_path / "w.mfn")]) == 1
    _assert_one_error_line(capsys, manifest)


def test_infer_non_ascii_layer_name_reports_path(tmp_path, capsys):
    from multiscopic.net import init_network, save_net

    data = _synth(tmp_path)
    weights = tmp_path / "bad.mfn"
    save_net(init_network(0), weights)
    raw = bytearray(weights.read_bytes())
    # first byte of the first layer name: after the magic, uint32 version,
    # uint32 layer count and the name's u8 length
    raw[struct.calcsize("<4sII") + 1] = 0xFF
    weights.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run(["infer", "--in", str(data / "scene_0000"), "--weights", str(weights),
                "--rho", "1", "--d-max", "3", "--out", str(tmp_path / "inf")]) == 1
    _assert_one_error_line(capsys, weights)


def test_infer_non_finite_weights_reports_path(tmp_path, capsys):
    from multiscopic.net import init_network, save_net

    data = _synth(tmp_path)
    weights = tmp_path / "nan.mfn"
    save_net(init_network(0), weights)
    raw = bytearray(weights.read_bytes())
    raw[-4:] = np.array(np.nan, dtype="<f4").tobytes()  # the last weight, of head.w
    weights.write_bytes(bytes(raw))
    capsys.readouterr()
    out = tmp_path / "inf"
    assert run(["infer", "--in", str(data / "scene_0000"), "--weights", str(weights),
                "--rho", "1", "--d-max", "3", "--out", str(out)]) == 1
    _assert_one_error_line(capsys, weights)
    assert not (out / "disp.pfm").exists()


def _write_mcv(path, fill):
    """An MCV1 file of 2 x 3 x 4 costs, all `fill`, bypassing save_volume."""
    header = struct.pack("<4siiii", b"MCV1", 1, 2, 4, 3)
    path.write_bytes(header + np.full((2, 3, 4), fill, dtype="<f4").tobytes())


@pytest.mark.parametrize(
    "fills, fusion",
    [((np.nan,), "heuristic"), ((np.inf, -np.inf), "mean"), ((-0.0, 1.0), "min")],
    ids=["nan-heuristic", "inf-pair-mean", "negative-zero-min"],
)
def test_fuse_non_finite_volume_reports_path(tmp_path, capsys, fills, fusion):
    paths = [tmp_path / f"v{i}.mcv" for i in range(len(fills))]
    for path, fill in zip(paths, fills):
        _write_mcv(path, fill)
    out = tmp_path / "fused.mcv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["fuse", "--volumes", *map(str, paths), "--fusion", fusion,
                    "--out", str(out)])
    assert code == 1
    _assert_one_error_line(capsys, paths[0])
    assert not out.exists()


@pytest.mark.parametrize(
    "d_range, size, what",
    [
        ((2, 3), (3, 4), "disparity range [2, 3] differs from {first}'s [1, 2]"),
        ((1, 2), (3, 5), "shape (D, H, W) (2, 3, 5) differs from {first}'s (2, 3, 4)"),
    ],
    ids=["range", "shape"],
)
def test_fuse_mismatched_volumes_name_file_and_field(tmp_path, capsys, d_range, size, what):
    first, second = tmp_path / "a.mcv", tmp_path / "b.mcv"
    save_volume(first, CostVolume(np.zeros((2, 3, 4), dtype=np.float32), 1, 2))
    d_min, d_max = d_range
    costs = np.zeros((d_max - d_min + 1,) + size, dtype=np.float32)
    save_volume(second, CostVolume(costs, d_min, d_max))
    out = tmp_path / "fused.mcv"
    assert run(["fuse", "--volumes", str(first), str(second), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {second}: {what.format(first=first)}\n"
    assert not out.exists()


def test_colorize_truncated_pfm_reports_path(tmp_path, capsys):
    pfm = tmp_path / "short.pfm"
    pfm.write_bytes(b"Pf\n4 4\n-1.0\n\x00\x00")  # 2 of 64 payload bytes
    out = tmp_path / "jet.ppm"
    assert run(["colorize", "--in", str(pfm), "--out", str(out)]) == 1
    _assert_one_error_line(capsys, pfm)
    assert not out.exists()


def test_disparity_truncated_center_reports_path(tmp_path, capsys):
    data = _synth(tmp_path)
    center = data / "scene_0000" / "center.pgm"
    center.write_bytes(b"P5\n4 4\n255\n\x07")  # 1 of 16 payload bytes
    capsys.readouterr()
    out = tmp_path / "disp"
    assert run(["disparity", "--in", str(data / "scene_0000"), "--rho", "1",
                "--d-max", "3", "--out", str(out)]) == 1
    _assert_one_error_line(capsys, center)
    assert not out.exists()


@pytest.mark.parametrize("command, name", [
    ("train", "gt.pfm"),
    ("train", "left.pgm"),
    ("disparity", "top.pgm"),
])
def test_scene_file_of_another_shape_is_named(tmp_path, capsys, command, name):
    data = _synth(tmp_path)  # 12 x 16 views
    path = data / "scene_0000" / name
    small = np.ones((5, 7), dtype=np.float32)
    multiscopic.write_image(path, DisparityMap(small) if name == "gt.pfm" else Image(small))
    capsys.readouterr()
    out = tmp_path / "out"
    io_flags = {"train": ["--data", str(data), "--epochs", "1", "--out", str(out / "net.mfn")],
                "disparity": ["--in", str(data / "scene_0000"), "--out", str(out)]}[command]
    assert run([command, *io_flags, "--rho", "1", "--d-max", "3"]) == 1
    err = capsys.readouterr().err
    center = data / "scene_0000" / "center.pgm"
    assert err == f"error: {path}: shape (5, 7) differs from {center}'s (12, 16)\n"
    assert not out.exists()


@pytest.mark.parametrize("gt", ["garbage", "another-shape"])
@pytest.mark.parametrize("command", ["disparity", "gc", "cost", "infer"])
def test_commands_without_ground_truth_ignore_gt_pfm(tmp_path, command, gt):
    # only train reads gt.pfm; the others read the center and the views, so
    # a corrupt or mis-shaped gt.pfm changes neither their exit code nor
    # a byte they write
    data = _synth(tmp_path)
    scene = data / "scene_0000"
    argv = [command, "--in", str(scene), "--rho", "1", "--d-max", "3"]
    if command == "gc":
        argv += ["--upscale", "1", "--max-sweeps", "1"]
    if command == "infer":
        weights = tmp_path / "net.mfn"
        assert run(["train", "--data", str(data), "--rho", "1", "--d-max", "3", "--epochs", "1",
                    "--out", str(weights)]) == 0
        argv += ["--weights", str(weights)]
    assert run(argv + ["--out", str(tmp_path / "before")]) == 0
    if gt == "garbage":
        (scene / "gt.pfm").write_bytes(b"garbage")
    else:
        multiscopic.write_image(scene / "gt.pfm", DisparityMap(np.ones((5, 7), np.float32)))
    assert run(argv + ["--out", str(tmp_path / "after")]) == 0
    before, after = _tree_bytes(tmp_path / "before"), _tree_bytes(tmp_path / "after")
    before.pop("run.txt"), after.pop("run.txt")  # names the --out given
    assert before == after and before


@pytest.mark.parametrize("command", ["disparity", "gc", "cost"])
def test_view_file_of_another_shape_is_named(tmp_path, capsys, command):
    center, left, right = (tmp_path / f"{n}.pgm" for n in ("c", "l", "r"))
    rng = np.random.default_rng(0)
    multiscopic.write_image(center, Image(rng.integers(0, 256, (20, 24)).astype(np.float32)))
    multiscopic.write_image(left, Image(rng.integers(0, 256, (20, 24)).astype(np.float32)))
    multiscopic.write_image(right, Image(np.ones((5, 7), dtype=np.float32)))
    out = tmp_path / "out"
    assert run([command, "--center", str(center), "--left", str(left), "--right", str(right),
                "--rho", "1", "--d-max", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {right}: shape (5, 7) differs from {center}'s (20, 24)\n"
    assert not out.exists()


def test_scene_view_in_ppm_is_read_as_its_luma(tmp_path):
    # a scene directory's view may hold P6 bytes under its .pgm name: it is
    # read as its luma, as the same file named by --left is
    data = _synth(tmp_path)
    scene = data / "scene_0000"
    gray = read_image(scene / "left.pgm").pixels.astype(np.uint8)
    colour = tmp_path / "left.ppm"
    rgb = np.stack([gray, gray // 2, 255 - gray], axis=-1)
    multiscopic.write_image(colour, multiscopic.ColorImage(rgb))
    (scene / "left.pgm").write_bytes(colour.read_bytes())
    for view in ("right", "top", "bottom"):
        (scene / f"{view}.pgm").unlink()
    flags = ["--rho", "1", "--d-max", "3"]
    assert run(["disparity", "--in", str(scene), *flags, "--out", str(tmp_path / "dir")]) == 0
    assert run(["disparity", "--center", str(scene / "center.pgm"), "--left", str(colour),
                *flags, "--out", str(tmp_path / "named")]) == 0
    disp = [(tmp_path / out / "disp.pfm").read_bytes() for out in ("dir", "named")]
    assert disp[0] == disp[1]


@pytest.mark.parametrize("command", ["disparity", "cost"])
def test_scene_dir_and_named_views_give_the_same_bytes(tmp_path, command):
    data = _synth(tmp_path)
    scene = data / "scene_0000"
    flags = ["--rho", "1", "--d-max", "3"]
    named = ["--center", str(scene / "center.pgm")]
    for view in ("left", "right", "top", "bottom"):
        named += [f"--{view}", str(scene / f"{view}.pgm")]
    assert run([command, "--in", str(scene), *flags, "--out", str(tmp_path / "dir")]) == 0
    assert run([command, *named, *flags, "--out", str(tmp_path / "named")]) == 0
    by_dir, by_name = _tree_bytes(tmp_path / "dir"), _tree_bytes(tmp_path / "named")
    by_dir.pop("run.txt"), by_name.pop("run.txt")  # echoes the input flags
    assert by_dir == by_name and by_dir


@pytest.mark.parametrize(
    "command, flags, field",
    [
        ("disparity", ["--rho", "100000000000"], "rho"),
        ("cost", ["--rho", "100000000000"], "rho"),
        ("cost", ["--d-max", "10000000000000000000"], "d_max"),
        ("train", ["--d-max", "100000000000000000000"], "d_max"),
        # the value given, not the x2 upscaled one the volume is built for
        ("gc", ["--d-max", "100000000000000000"], "d_max 100000000000000000:"),
        ("gc", ["--d-cutoff", "1000000000000000000000"], "d_cutoff"),
        # a 1e11-wide scene alone stays under the limit: out of memory
        ("synth", ["--width", "100000000000", "--height", "100000000000"],
         "width 100000000000, height 100000000000:"),
    ],
    ids=["disparity-rho", "cost-rho", "cost-d-max", "train-d-max", "gc-d-max", "gc-d-cutoff",
         "synth-width-height"],
)
def test_sizes_numpy_cannot_hold_exit_one_naming_the_field(tmp_path, capsys, command, flags, field):
    # past np.iinfo(np.intp).max bytes NumPy refuses the array with a
    # ValueError, and past the int64 range d_cutoff overflows
    data = _synth(tmp_path)
    out = tmp_path / "out"
    if command == "train":
        io_flags = ["--data", str(data), "--epochs", "1", "--out", str(out / "net.mfn")]
    elif command == "synth":
        io_flags = ["--scenes", "1", "--out", str(out)]
    else:
        io_flags = ["--in", str(data / "scene_0000"), "--out", str(out)]
    capsys.readouterr()
    assert run([command, *io_flags, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1, err
    assert not out.exists()


def _assert_plain_error(capsys, what):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and what in err, err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, what", [
    (["eval", "--pred", "{scene}/gt.pfm", "--gt", "{data}"], "--pred and --gt"),
    (["eval", "--pred", "{scene}/center.pgm", "--gt", "{scene}/gt.pfm"],
     "{scene}/center.pgm: expected a PFM disparity map"),
    (["colorize", "--in", "{scene}/center.pgm"], "{scene}/center.pgm: expected a PFM disparity map"),
    (["train", "--data", "{no_gt}"], "{no_gt}/scene_0000: no gt.pfm"),
    (["train", "--data", "{center_only}"], "{center_only}: no manifest.txt"),
    (["disparity", "--center", "{scene}/center.pgm"], "--left/--right/--top/--bottom"),
    (["disparity", "--in", "{center_only}"], "{center_only}: no directional views"),
    (["gc", "--in", "{scene}", "--theta", "0"], "theta"),
    (["synth", "--scenes", "0"], "error: scenes 0: dataset size"),
    (["synth", "--scenes", "1", "--layers-min", "0", "--layers-max", "0"],
     "error: layer_count range (0, 0): need at least one layer"),
    (["synth", "--scenes", "1", "--disp-min", "-1"],
     "error: disparity range (-1, 12): disparities"),
    (["synth", "--scenes", "1", "--width", "1"],
     "error: width 1, height 64: scene must be at least 2x2"),
    # the settings are checked before the data: no manifest is looked for
    (["train", "--data", "{center_only}", "--epochs", "0"], "epochs"),
], ids=["eval-file-and-dir", "eval-pgm", "colorize-pgm", "train-no-gt", "train-no-manifest",
        "disparity-no-view", "disparity-center-only", "gc-theta", "synth-scenes",
        "synth-layers", "synth-disp-min", "synth-width", "train-epochs"])
def test_error_branches_exit_one_with_one_error_line(tmp_path, capsys, argv, what):
    data = _synth(tmp_path)
    paths = {"data": data, "scene": data / "scene_0000", "no_gt": tmp_path / "no_gt",
             "center_only": tmp_path / "center_only"}
    shutil.copytree(data, paths["no_gt"])
    (paths["no_gt"] / "scene_0000" / "gt.pfm").unlink()
    paths["center_only"].mkdir()
    shutil.copy(paths["scene"] / "center.pgm", paths["center_only"])
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in argv]
    assert run(argv + ["--out", str(out / "net.mfn" if argv[0] == "train" else out)]) == 1
    _assert_plain_error(capsys, what.format(**paths))
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, what",
    [
        (["--disp-min", "3", "--disp-max", "2"], "disparity"),
        (["--layers-min", "3", "--layers-max", "1"], "layer_count"),
        (["--noise-min", "5", "--noise-max", "1"], "noise"),
        (["--noise-min", "nan", "--noise-max", "nan"], "noise"),
        (["--noise-min", "0", "--noise-max", "inf"], "noise"),
        (["--noise-min", "-1", "--noise-max", "1"], "noise"),
    ],
    ids=["disparity", "layers", "noise", "noise-nan", "noise-inf", "noise-negative"],
)
def test_synth_rejects_bad_range(tmp_path, capsys, flags, what):
    out = tmp_path / "data"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["synth", "--scenes", "1", "--out", str(out), "--width", "16",
                    "--height", "16", *flags])
    assert code == 1
    _assert_plain_error(capsys, what)
    assert not out.exists()


def _synth_64(out, disp_min, seed, scenes=1):
    return run(["synth", "--scenes", str(scenes), "--out", str(out), "--width", "64",
                "--height", "64", "--disp-min", str(disp_min), "--disp-max", "40",
                "--seed", str(seed)])


@pytest.mark.parametrize(
    "disp_min, seed, scenes, refused",
    [(30, 0, 1, "scene_0000's max layer disparity 37"),
     # scene_0000 fits; scene_0001 does not, and scene_0000 is not written either
     (1, 3, 2, "scene_0001's max layer disparity 31")],
    ids=["first-scene", "later-scene"],
)
def test_synth_refuses_a_layer_past_a_quarter_width_before_it_writes(
        tmp_path, capsys, disp_min, seed, scenes, refused):
    out = tmp_path / "data"
    assert _synth_64(out, disp_min, seed, scenes) == 1
    err = capsys.readouterr().err
    assert err == f"error: disp_max 40: {refused} exceeds width/4 = 16.0\n", err
    assert not out.exists()


def test_synth_keeps_a_drawn_scene_within_a_quarter_width(tmp_path):
    # width/4 is a rule on each drawn scene, not on --disp-max: seed 3's one
    # scene has its largest layer at 10, and is written as before
    out = tmp_path / "data"
    assert _synth_64(out, 1, 3) == 0
    tree = _tree_bytes(out)
    del tree["run.txt"]  # it names the --out path
    digest = hashlib.sha256(b"".join(name.encode() + data for name, data in tree.items()))
    assert digest.hexdigest() == "b75862bcc3e6a9f862472138be8d48eb227e6794e5c57f0ad6ad71bcf6b0803a"


@pytest.mark.parametrize(
    "flags, what",
    [
        (["--k-occlusion", "nan"], "k_occlusion"),
        (["--k-occlusion", "-5"], "k_occlusion"),
        (["--k-occlusion", "inf"], "k_occlusion"),
        (["--lambda1", "inf", "--lambda2", "inf"], "lambda"),
        (["--lambda1", "9", "--lambda2", "nan"], "lambda"),
        # 1e308 times a pair's largest label gap, 2, is past float64's range
        (["--lambda1", "1e308", "--lambda2", "1e308"], "lambda1 1e+308, lambda2 1e+308"),
    ],
    ids=["k-nan", "k-negative", "k-inf", "lambdas-inf", "lambda2-nan", "lambdas-overflow"],
)
def test_gc_rejects_bad_energy_weight(tmp_path, capsys, flags, what):
    data = _synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "gc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["gc", "--in", str(data / "scene_0000"), "--rho", "1", "--d-max", "3",
                    "--upscale", "1", "--out", str(out), *flags])
    assert code == 1
    _assert_plain_error(capsys, what)
    assert not (out / "disp.pfm").exists()


def test_gc_runs_lambdas_whose_energy_stays_finite(tmp_path):
    # on the 12x16 grid (356 pairs, labels 1..3) no labeling's smoothness
    # energy passes 356 * 2 * 1e300, so these run as they always have
    data = _synth(tmp_path)
    out = tmp_path / "gc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["gc", "--in", str(data / "scene_0000"), "--rho", "1", "--d-max", "3",
                    "--upscale", "1", "--lambda1", "1e300", "--lambda2", "1e300",
                    "--out", str(out)]) == 0
    assert (out / "disp.pfm").exists()


@pytest.mark.parametrize("command", ["synth", "gc", "train"])
def test_negative_seed_is_rejected(tmp_path, capsys, command):
    data = _synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--scenes", "1", "--width", "16", "--height", "16"],
        "gc": ["gc", "--in", str(data / "scene_0000"), "--rho", "1", "--d-max", "3",
               "--upscale", "1"],
        "train": ["train", "--data", str(data), "--rho", "1", "--d-max", "3"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--seed", "-1", "--out", str(out)]) == 1
    _assert_plain_error(capsys, "seed must be >= 0, got -1")
    assert not out.exists()


@pytest.mark.parametrize("factor", ["inf", "-inf", "nan", "0"])
def test_bad_heuristic_factor_rejected(tmp_path, capsys, factor):
    data = _synth(tmp_path)
    costs = tmp_path / "c"
    assert run(["cost", "--in", str(data / "scene_0000"), "--rho", "1",
                "--d-max", "3", "--out", str(costs)]) == 0
    capsys.readouterr()
    vols = [str(v) for v in sorted(costs.glob("cost_*.mcv"))]
    out = tmp_path / "out"
    for argv in (
        ["disparity", "--in", str(data / "scene_0000"), "--rho", "1", "--d-max", "3",
         "--out", str(out)],
        ["fuse", "--volumes", *vols, "--out", str(out / "fused.mcv")],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + [f"--heuristic-factor={factor}"]) == 1
        _assert_plain_error(capsys, "heuristic_factor")
        assert not out.exists()


def test_overflowing_heuristic_factor_is_silent(tmp_path):
    # 1e308 * c2 overflows to inf wherever c2 > 1.8; c3 > inf is False
    # there, as it is for any factor above the largest cost ratio
    data = _synth(tmp_path)
    outs = []
    for factor in ("1e308", "1e30"):
        out = tmp_path / factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["disparity", "--in", str(data / "scene_0000"), "--rho", "1",
                        "--d-max", "3", "--heuristic-factor", factor, "--out", str(out)]) == 0
        outs.append((out / "disp.pfm").read_bytes())
    assert outs[0] == outs[1]


def test_disparity_with_one_disparity_zero(tmp_path):
    # [0, 0] is a valid range: the Jet rendering must not refuse it
    data = _synth(tmp_path)
    out = tmp_path / "d0"
    assert run(["disparity", "--in", str(data / "scene_0000"), "--rho", "1",
                "--d-min", "0", "--d-max", "0", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["disp.pfm", "disp_jet.ppm", "run.txt"]
    assert (read_image(str(out / "disp.pfm")).values == 0).all()


def test_disparity_d_max_past_the_image_writes_the_same_map(tmp_path):
    # every slice from the image extent (16 columns) on is all LARGE_COST:
    # the map is the one of --d-max 15, and run.txt keeps the range given
    data = _synth(tmp_path)
    outs = {}
    for d_max in ("15", "20000"):
        out = tmp_path / d_max
        assert run(["disparity", "--in", str(data / "scene_0000"), "--d-min", "0",
                    "--d-max", d_max, "--out", str(out)]) == 0
        assert f"d_max={d_max}\n" in (out / "run.txt").read_text()
        outs[d_max] = (out / "disp.pfm").read_bytes()
    assert outs["20000"] == outs["15"]


# sha256 of the files `cost` and `gc` write at --d-max 20 on the 16x12
# scene, whose views all leave the frame from disparity 16 on (32 on gc's
# grid upscaled x2), recorded before the matchers' slice stream learned to
# stop there: the volumes store LARGE_COST in the slices it does not reach
_PAST_THE_FRAME = {
    ("cost", "sad"): {
        "left": "dddb4a97b3c9ed38d41127e90be8f0a6f291449c0301797d70716f063fcbdd40",
        "right": "c783cb293c7c4ced94602c15fa8967e944222b3459c0924fdb608cbb305f51dd",
        "top": "09156bec90fe011869736ac923392c1b3818e47c9048e1012c97e37a097c7a9b",
        "bottom": "70f3289a378972851c90164fe1bfa1279b4445e81c029d4ddcd67e6e8804ac7d",
    },
    ("cost", "bt"): {
        "left": "f6ce1da36906d009e07ee688a05e878dc83e77d32ce190c6a11757e31a16246b",
        "right": "a44bd66d01c646790188fc5eb5c94c7d0c1403c95441a66e10f073136da278a8",
        "top": "660add8312edb06ce26f905ef9f93c045ca383b51f317ecf1d3718ea52514f65",
        "bottom": "8ea1f1d6002e47d174945b696b79cfcaf1c937b2bebecbaa7dff8fba3220791e",
    },
    ("gc", "bt"): {"disp": "c6c7a23621c3ff457fcb848bda60ccec045a5fb4178d2b87655e2831eb9571ab"},
}


@pytest.mark.parametrize("command, matcher", sorted(_PAST_THE_FRAME))
def test_d_max_past_the_frame_output_digests(tmp_path, command, matcher):
    data = _synth(tmp_path)
    out = tmp_path / "out"
    assert run([command, "--in", str(data / "scene_0000"), "--matcher", matcher, "--d-min", "0",
                "--d-max", "20", "--out", str(out)]) == 0
    got = {
        path.stem.removeprefix("cost_"): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.glob("*.pfm" if command == "gc" else "*.mcv")
    }
    assert got == _PAST_THE_FRAME[command, matcher]


def test_missing_input_reports_error(capsys):
    assert run(["disparity", "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert "--center" in err or "--in" in err



def test_eval_missing_prediction_reports_path(tmp_path, capsys):
    data = _synth(tmp_path)
    missing = tmp_path / "nope.pfm"
    gt = data / "scene_0000" / "gt.pfm"
    assert gt.exists()
    assert run(["eval", "--pred", str(missing), "--gt", str(gt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_fuse_missing_volume_reports_path(tmp_path, capsys):
    missing = tmp_path / "nope.mcv"
    assert run(["fuse", "--volumes", str(missing), "--out", str(tmp_path / "f.mcv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: ")
    assert err.count("\n") == 1 and "Traceback" not in err

# pyproject.toml of the checkout under test; its [project.scripts] table is
# what an install turns into the `multiscopic` command.
_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What a console-script wrapper does: import `module:attr`, then
# sys.exit(attr()). The first argument names the target; the rest are the
# command's own arguments.
_WRAPPER = """\
import importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
func = importlib.import_module(module)
for name in attr.split("."):
    func = getattr(func, name)
sys.argv[0] = "multiscopic"
sys.exit(func())
"""

_SYNTH_ARGS = ["synth", "--scenes", "1", "--seed", "1", "--width", "16",
               "--height", "12", "--disp-max", "3"]


def _run_child(argv, **kw):
    """Run argv with a PYTHONPATH that puts the package under test first;
    kw goes to subprocess.run."""
    src_root = str(Path(multiscopic.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (os.pathsep + inherited if inherited else "")
    return subprocess.run(argv, capture_output=True, text=True, env=env, **kw)


def _assert_usage_error(proc):
    assert proc.returncode == 1, proc.stderr
    assert "usage: multiscopic" in proc.stderr
    assert "Traceback" not in proc.stderr


def _assert_behaves_like_run(command, tmp_path):
    _assert_usage_error(_run_child(command))
    out = tmp_path / "s"
    proc = _run_child(command + _SYNTH_ARGS + ["--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert (out / "scene_0000" / "gt.pfm").exists()


def test_console_entry_point(tmp_path):
    _assert_usage_error(_run_child([sys.executable, "-m", "multiscopic.cli"]))

    tomllib = pytest.importorskip("tomllib")
    with open(_PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["multiscopic"]
    _assert_behaves_like_run([sys.executable, "-c", _WRAPPER, target], tmp_path)


@pytest.mark.skipif(
    shutil.which("multiscopic") is None,
    reason="multiscopic console script not installed",
)
def test_installed_console_script(tmp_path):
    _assert_behaves_like_run(["multiscopic"], tmp_path)


# run(argv) in a child process whose address space is capped at its size
# after the imports plus 256 MiB, so an allocation that does not fit raises
# MemoryError instead of succeeding on lazily mapped pages.
_CAPPED_RUN = """\
import resource, sys
from multiscopic.cli import run

with open("/proc/self/status") as fh:
    vm = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (vm + (256 << 20), resource.RLIM_INFINITY))
sys.exit(run(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_out_of_memory_exits_one_with_one_error_line(tmp_path):
    # rho 100000 edge-pads a 16 x 12 image to ~200000 x 200000 pixels
    data = _synth(tmp_path)
    out = tmp_path / "disp"
    proc = _run_child([sys.executable, "-c", _CAPPED_RUN, "disparity",
                       "--in", str(data / "scene_0000"), "--rho", "100000",
                       "--d-min", "1", "--d-max", "4", "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: out of memory"), proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not out.exists()


# run(argv) for each argv of a JSON list, in one process, printing one JSON
# line [exit code, stdout, stderr] per command
_RUN_EACH = """\
import contextlib, io, json, sys
from multiscopic.cli import run

for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def test_commands_in_one_process_match_fresh_processes(tmp_path):
    # the parser is built once per process; no command may leave state in
    # it that changes a later one, so every command's exit code, output and
    # files equal those of a fresh process (outputs are relative to the
    # working directory, so run.txt compares byte for byte)
    scene = str(_synth(tmp_path) / "scene_0000")
    cfg = tmp_path / "gc.cfg"
    cfg.write_text("max_sweeps=1\nupscale=1\nlambda1=4\n")
    commands = [
        ["disparity", "--in", scene, "--rho", "1", "--d-max", "3", "--out", "disp"],
        ["disparity", "--in", scene, "--bogus", "1", "--out", "bad"],
        ["gc", "--config", str(cfg), "--in", scene, "--d-max", "3", "--out", "gc_cfg"],
        ["gc", "--in", scene, "--d-max", "3", "--out", "gc"],
    ]
    one, fresh = tmp_path / "one", tmp_path / "fresh"
    one.mkdir()
    fresh.mkdir()

    def results(argvs, cwd):
        proc = _run_child([sys.executable, "-c", _RUN_EACH, json.dumps(argvs)], cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line) for line in proc.stdout.splitlines()]

    together = results(commands, one)
    apart = [r for argv in commands for r in results([argv], fresh)]
    assert together == apart
    assert [code for code, _, _ in together] == [0, 1, 0, 0]
    bad_err = together[1][2]
    assert [line for line in bad_err.splitlines() if line.startswith("error:")] == [
        "error: unrecognized arguments: --bogus 1"
    ]
    assert _tree_bytes(one) == _tree_bytes(fresh)
    assert sorted(p.name for p in one.iterdir()) == ["disp", "gc", "gc_cfg"]
    assert "max_sweeps=1" in (one / "gc_cfg" / "run.txt").read_text()
    assert "max_sweeps=8" in (one / "gc" / "run.txt").read_text()


def test_train_refuses_out_that_the_loss_log_would_overwrite(tmp_path, capsys):
    # the loss log goes to out.with_suffix(".log"); with out already *.log
    # the log would replace the weights
    data = _synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "model" / "W.log"
    assert run(["train", "--data", str(data), "--rho", "1", "--d-max", "3",
                "--epochs", "1", "--out", str(out)]) == 1
    _assert_one_error_line(capsys, out)
    assert not out.parent.exists()
    # refused before the dataset is read: a missing dataset is not reached
    assert run(["train", "--data", str(tmp_path / "none"), "--out", str(out)]) == 1
    _assert_one_error_line(capsys, out)


@pytest.mark.parametrize("how", ["flag", "config"])
def test_train_has_no_norm_mode(tmp_path, capsys, how):
    data = _synth(tmp_path)
    capsys.readouterr()
    argv = ["train", "--data", str(data), "--rho", "1", "--d-max", "3",
            "--epochs", "1", "--out", str(tmp_path / "model" / "net.mfn")]
    if how == "flag":
        argv += ["--norm-mode", "standardize"]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("norm_mode=standardize\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: unrecognized arguments: --norm-mode standardize"
    ]
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize("flags, what", [
    (["--lr", "inf"], "learning_rate"),
    (["--lr", "1e308"], "parameter stem1.w non-finite after the Adam step at epoch 0"),
    (["--d-min", "5", "--d-max", "5"], "scene_0000: no ground-truth pixel in the disparity range [5, 5]"),
], ids=["lr-inf", "lr-overflow", "empty-range"])
def test_train_rejects_bad_run_without_warnings(tmp_path, capsys, flags, what):
    data = _synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "model"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["train", "--data", str(data), "--rho", "1", "--d-max", "3",
                    "--epochs", "1", "--out", str(out / "net.mfn"), *flags])
    assert code == 1
    _assert_plain_error(capsys, what)
    assert not out.exists()


@pytest.mark.parametrize("argv, what", [
    (["eval", "--bad", "nan"], "threshold"),
    (["eval", "--bad", "-1"], "threshold"),
    (["eval", "--bad", "inf"], "threshold"),
    (["colorize", "--d-max", "inf"], "d_max"),
], ids=["bad-nan", "bad-negative", "bad-inf", "d-max-inf"])
def test_eval_and_colorize_reject_meaningless_values(tmp_path, capsys, argv, what):
    data = _synth(tmp_path)
    capsys.readouterr()
    gt = str(data / "scene_0000" / "gt.pfm")
    out = tmp_path / "out.txt"
    io_flags = {"eval": ["--pred", gt, "--gt", gt], "colorize": ["--in", gt]}[argv[0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([argv[0], *io_flags, *argv[1:], "--out", str(out)]) == 1
    _assert_plain_error(capsys, what)
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "colorize"])
def test_eval_and_colorize_create_the_out_parent(tmp_path, command):
    # as fuse, train and disparity do
    data = _synth(tmp_path)
    gt = str(data / "scene_0000" / "gt.pfm")
    out = tmp_path / "new" / "dir" / "out"
    io_flags = {"eval": ["--pred", gt, "--gt", gt], "colorize": ["--in", gt]}[command]
    assert run([command, *io_flags, "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_colorize_tiny_d_max_is_silent(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "jet.ppm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["colorize", "--in", str(data / "scene_0000" / "gt.pfm"),
                    "--d-max", "1e-300", "--out", str(out)]) == 0
    assert read_image(str(out)).pixels.shape == (12, 16, 3)
