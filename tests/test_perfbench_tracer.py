"""The benchmark tracer patches package functions by module and name.

perfbench/tracing.py wraps, for example, cli.read_image and
graphcut.max_flow where their callers look them up.  Renaming, moving or
no longer calling one of those names breaks a traced benchmark run; these
tests make it break the test suite too.
"""

import importlib.util
import io
import contextlib
from pathlib import Path

import pytest

from multiscopic import cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_put_every_original_back(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        for module, attr, orig in patched:
            assert getattr(module, attr) is not orig, f"{module.__name__}.{attr}"
    finally:
        tracer.restore()
    for module, attr, orig in patched:
        assert getattr(module, attr) is orig, f"{module.__name__}.{attr}"


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run([str(a) for a in argv]) == 0, argv


def test_traced_commands_reach_the_wrapped_names(tmp_path, tracing):
    # every span the benchmark's per-layer metrics read must be produced by
    # a real CLI run, so a name that is still bound but no longer called
    # through its module shows up here
    data = tmp_path / "data"
    _run(["synth", "--scenes", 1, "--out", data, "--width", 12, "--height", 10,
          "--disp-min", 1, "--disp-max", 2])
    scene = data / "scene_0000"
    weights = tmp_path / "net.mfn"
    with tracing.Tracer() as tracer:
        _run(["disparity", "--in", scene, "--rho", 1, "--d-max", 2,
              "--out", tmp_path / "wta"])
        _run(["gc", "--in", scene, "--rho", 1, "--d-max", 2, "--upscale", 1,
              "--max-sweeps", 1, "--out", tmp_path / "gc"])
        _run(["train", "--data", data, "--rho", 1, "--d-max", 2, "--epochs", 1,
              "--out", weights])
        _run(["infer", "--in", scene, "--rho", 1, "--d-max", 2, "--weights", weights,
              "--out", tmp_path / "net"])
    assert tracer.problems == []
    names = {span.name for span in tracer.spans}
    expected = {
        "costvol.sad", "costvol.bt", "fusion.fuse", "fusion.wta",
        "maxflow.max_flow", "graphcut.expansion", "graphcut.energy",
        "graphcut.occlusion", "graphcut.upscale", "graphcut.gc",
        "net.init", "net.load", "net.train", "net.backward", "net.forward",
        "layers.softmax_neg_backward", "imagery.read", "imagery.write",
        "imagery.colorize", "synthscene.load",
    }
    assert expected <= names, sorted(expected - names)
    assert any(n.startswith("layers.conv3d_forward_ms.") for n in names)
    assert any(n.startswith("layers.conv3d_backward_ms.") for n in names)


def test_named_view_files_are_read_through_the_wrapped_name(tmp_path, tracing):
    # --center/--left/--right reach the same wrapped read_image as --in:
    # one imagery.read span per image file read
    data = tmp_path / "data"
    _run(["synth", "--scenes", 1, "--out", data, "--width", 12, "--height", 10,
          "--disp-min", 1, "--disp-max", 2])
    scene = data / "scene_0000"
    with tracing.Tracer() as tracer:
        _run(["disparity", "--center", scene / "center.pgm", "--left", scene / "left.pgm",
              "--right", scene / "right.pgm", "--rho", 1, "--d-max", 2, "--out", tmp_path / "wta"])
    assert tracer.problems == []
    assert [span.name for span in tracer.spans].count("imagery.read") == 3


def test_train_and_infer_spans_count_the_net_calls(tmp_path, tracing):
    # training runs the forward for its backward without the public
    # net.forward; inference on 4 views runs 2 stem convs per view and 6
    # trunk convs, and no backward
    data = tmp_path / "data"
    _run(["synth", "--scenes", 1, "--out", data, "--width", 12, "--height", 10,
          "--disp-min", 1, "--disp-max", 2])
    weights = tmp_path / "net.mfn"
    with tracing.Tracer() as tracer:
        _run(["train", "--data", data, "--rho", 1, "--d-max", 2, "--epochs", 1,
              "--out", weights])
    assert tracer.problems == []
    names = [span.name for span in tracer.spans]
    assert names.count("net.backward") == 1 and "net.forward" not in names

    with tracing.Tracer() as tracer:
        _run(["infer", "--in", data / "scene_0000", "--rho", 1, "--d-max", 2,
              "--weights", weights, "--out", tmp_path / "net"])
    assert tracer.problems == []
    names = [span.name for span in tracer.spans]
    assert names.count("net.forward") == 1
    assert sum(n.startswith("layers.conv3d_forward_ms.") for n in names) == 2 * 4 + 6
    assert not any("backward" in n for n in names)
