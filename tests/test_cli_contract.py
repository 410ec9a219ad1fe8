"""One sweep over every subcommand's numeric flags: each boundary value, one
flag at a time, exits 0 or 1 with no traceback and no warning, and an exit
1 prints one `error:` line naming the flag's field."""

import json
import shutil
import sys
import warnings
from pathlib import Path

import pytest

from multiscopic.cli import run
from multiscopic.net import init_network, save_net

from test_cli import _CAP_MEMORY, _RUN_EACH, _run_child

VALUES = ["0", "-1", "2147483648", "9223372036854775808", "100000000000000000000",
          "inf", "-inf", "nan", "1e308", "1e-320"]
BIG = {"2147483648", "9223372036854775808", "100000000000000000000"}

# the numeric flags of each subcommand
FLAGS = {
    "synth": ["--seed", "--scenes", "--width", "--height", "--layers-min", "--layers-max",
              "--disp-min", "--disp-max", "--noise-min", "--noise-max"],
    "cost": ["--rho", "--d-min", "--d-max"],
    "fuse": ["--heuristic-factor"],
    "disparity": ["--rho", "--d-min", "--d-max", "--heuristic-factor", "--subpixel"],
    "gc": ["--seed", "--rho", "--d-min", "--d-max", "--k-occlusion", "--lambda1", "--lambda2",
           "--theta", "--d-cutoff", "--upscale", "--max-sweeps", "--recheck-weights"],
    "train": ["--seed", "--rho", "--d-min", "--d-max", "--lr", "--epochs"],
    "infer": ["--rho", "--d-min", "--d-max"],
    "eval": ["--bad", "--penalize-invalid"],
    "colorize": ["--d-max"],
}

# flags whose large values size an array: run in a child process whose
# address space is capped, where they may also end in `out of memory`
SIZE_FLAGS = {"--rho", "--d-min", "--d-max", "--d-cutoff", "--width", "--height",
              "--disp-min", "--disp-max"}

# large values here only ask for a long run (so many scenes, epochs, sweeps
# or layers), which is what they mean; they are not swept
LONG_RUNS = {"--scenes", "--epochs", "--max-sweeps"}

# the field an error names, where it is not the flag's own name
FIELD = {"--layers-min": "layer_count", "--layers-max": "layer_count",
         "--disp-min": "disparity", "--disp-max": "disparity",
         "--noise-min": "noise_sigma", "--noise-max": "noise_sigma",
         "--lr": "learning_rate", "--bad": "threshold"}


def _cases(in_child):
    for command, flags in FLAGS.items():
        for flag in flags:
            for value in VALUES:
                if value in BIG and (flag in LONG_RUNS
                                     or (flag == "--layers-max" and value == "2147483648")):
                    continue
                if (value in BIG and flag in SIZE_FLAGS) == in_child:
                    yield command, flag, value


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    data = root / "data"
    assert run(["synth", "--scenes", "1", "--seed", "5", "--out", str(data), "--width", "16",
                "--height", "12", "--disp-max", "3", "--noise-max", "0.5"]) == 0
    scene = data / "scene_0000"
    assert run(["cost", "--in", str(scene), "--rho", "1", "--d-max", "3",
                "--out", str(root / "costs")]) == 0
    save_net(init_network(0), root / "net.mfn")
    return {"root": root, "data": data, "scene": scene,
            "volumes": [str(v) for v in sorted((root / "costs").glob("cost_*.mcv"))]}


def _argv(inputs, command, flag, value, out):
    """The command on the 16x12 scene with small, quick settings, then
    flag=value, which wins over any earlier setting of that flag."""
    scene, gt = str(inputs["scene"]), str(inputs["scene"] / "gt.pfm")
    small = ["--rho", "1", "--d-max", "3"]
    argv = {
        "synth": ["--scenes", "1", "--width", "16", "--height", "12", "--disp-max", "3",
                  "--out", str(out)],
        "cost": ["--in", scene, *small, "--out", str(out)],
        "fuse": ["--volumes", *inputs["volumes"], "--out", str(out / "fused.mcv")],
        "disparity": ["--in", scene, *small, "--out", str(out)],
        "gc": ["--in", scene, *small, "--upscale", "1", "--max-sweeps", "1", "--out", str(out)],
        "train": ["--data", str(inputs["data"]), *small, "--epochs", "1",
                  "--out", str(out / "net.mfn")],
        "infer": ["--in", scene, *small, "--weights", str(inputs["root"] / "net.mfn"),
                  "--out", str(out)],
        "eval": ["--pred", gt, "--gt", gt, "--out", str(out / "table.txt")],
        "colorize": ["--in", gt, "--out", str(out / "jet.ppm")],
    }[command]
    return [command, *argv, f"{flag}={value}"]


def _problem(case, code, err):
    """What breaks the contract in a run of case, or None."""
    command, flag, value = case
    if code not in (0, 1) or "Traceback" in err:
        return f"{case}: exit {code}, {err!r}"
    if code == 1:
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        names = {flag, flag[2:].replace("-", "_"), FIELD.get(flag)}
        if flag in SIZE_FLAGS and value in BIG:
            names.add("out of memory")
        if len(errors) != 1 or not any(name and name in errors[0] for name in names):
            return f"{case}: {err!r} names none of {sorted(filter(None, names))}"
    return None


def test_numeric_flags_exit_cleanly_in_process(inputs, capsys):
    problems = []
    for i, case in enumerate(_cases(in_child=False)):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = run(_argv(inputs, *case, inputs["root"] / f"out{i}"))
            except Exception as exc:  # a warning raised as an error, say
                code = f"Traceback: {exc!r}"
        problems.append(_problem(case, code, capsys.readouterr().err))
    assert [p for p in problems if p] == []


# _RUN_EACH under the memory cap with warnings as errors: an exception that
# run lets through ends the child with its traceback
_CAPPED_EACH = _CAP_MEMORY + "import warnings\nwarnings.simplefilter('error')\n" + _RUN_EACH


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_size_flags_exit_cleanly_under_a_memory_cap(inputs):
    cases = list(_cases(in_child=True))
    argvs = [_argv(inputs, *case, inputs["root"] / f"big{i}") for i, case in enumerate(cases)]
    proc = _run_child([sys.executable, "-c", _CAPPED_EACH, json.dumps(argvs)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(cases)
    problems = [_problem(case, code, err) for case, (code, _, err) in zip(cases, results)]
    assert [p for p in problems if p] == []


# the path and string flags of each subcommand, and --config on all of them
VIEW_FLAGS = ["--center", "--left", "--right", "--top", "--bottom"]
PATH_FLAGS = {
    "synth": ["--out"],
    "cost": ["--in", *VIEW_FLAGS, "--out"],
    "fuse": ["--volumes", "--out"],
    "disparity": ["--in", *VIEW_FLAGS, "--out"],
    "gc": ["--in", *VIEW_FLAGS, "--out"],
    "train": ["--data", "--out"],
    "infer": ["--in", *VIEW_FLAGS, "--weights", "--out"],
    "eval": ["--pred", "--gt", "--out"],
    "colorize": ["--in", "--out"],
}
SCENE = "data/scene_0000"
GT = f"{SCENE}/gt.pfm"
# relative only, and no system path: the suite may run as root
PATH_VALUES = ["", ".", "file", "file/x", "missing/x", "dir", GT]


@pytest.fixture(scope="module")
def path_inputs(tmp_path_factory, inputs):
    """The inputs fixture's scene, volumes and weights under relative
    names, beside a text file and an empty directory."""
    base = tmp_path_factory.mktemp("paths")
    shutil.copytree(inputs["data"], base / "data")
    shutil.copytree(inputs["root"] / "costs", base / "costs")
    shutil.copy(inputs["root"] / "net.mfn", base / "net.mfn")
    (base / "file").write_text("neither an image nor a flag\n")
    (base / "dir").mkdir()
    return base


def _path_argv(command, flag, value):
    """The command on relative inputs with small, quick settings, then
    flag=value; the views come as --center/--left/... when one of those is
    the flag under test, else as --in."""
    small = ["--rho", "1", "--d-max", "3"]
    views = ([f"{f}={SCENE}/{f[2:]}.pgm" for f in VIEW_FLAGS] if flag in VIEW_FLAGS
             else ["--in", SCENE])
    argv = {
        "synth": ["--scenes", "1", "--width", "16", "--height", "12", "--disp-max", "3",
                  "--out", "out"],
        "cost": [*views, *small, "--out", "out"],
        "fuse": ["--volumes", *(f"costs/cost_{d}.mcv" for d in ("left", "right", "top", "bottom")),
                 "--out", "out/fused.mcv"],
        "disparity": [*views, *small, "--out", "out"],
        "gc": [*views, *small, "--upscale", "1", "--max-sweeps", "1", "--out", "out"],
        "train": ["--data", "data", *small, "--epochs", "1", "--out", "out/net.mfn"],
        "infer": [*views, *small, "--weights", "net.mfn", "--out", "out"],
        "eval": ["--pred", GT, "--gt", GT, "--out", "out/table.txt"],
        "colorize": ["--in", GT, "--out", "out/jet.ppm"],
    }[command]
    return [command, *argv, f"{flag}={value}"]


def test_path_flags_exit_cleanly_in_process(path_inputs, tmp_path, monkeypatch, capsys):
    # every case runs in its own copy of the inputs, since an output flag
    # may name one of them
    problems = []
    cases = [(command, flag, value) for command, flags in PATH_FLAGS.items()
             for flag in [*flags, "--config"] for value in PATH_VALUES]
    for i, case in enumerate(cases):
        shutil.copytree(path_inputs, tmp_path / f"case{i}")
        monkeypatch.chdir(tmp_path / f"case{i}")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = run(_path_argv(*case))
            except Exception as exc:  # a warning raised as an error, say
                code = f"Traceback: {exc!r}"
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if code not in (0, 1) or "Traceback" in err or (code == 1 and len(errors) != 1):
            problems.append(f"{case}: exit {code}, {err!r}")
    assert len(cases) == 336
    assert problems == []
