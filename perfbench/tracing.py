"""Outside-in tracing of the multiscopic layers.

The tracer replaces public functions with timing wrappers at the module
attribute where the caller looks them up, records one span per call (name,
parent span, wall time, counters) in memory, and puts every original back
on restore().  Nothing under src/ knows it is being traced.

Where the lookup happens matters:

* cli calls costvol.multiscopic_volumes, fusion.fuse, fusion.wta_disparity
  and graphcut.multiscopic_gc through their modules, but binds load_scene,
  read_image, write_image and colorize_jet by name;
* graphcut binds multiscopic_volumes, fuse, wta_disparity and max_flow by
  name at import, so those are wrapped on graphcut, not on their home
  modules;
* costvol._MATCHERS holds sad_cost_volume itself, so SAD and BT are told
  apart by the matcher argument of multiscopic_volumes;
* net looks up init_network, backward and layers.* at call time.

Conv spans are named by the identity of their weight array: mid and up have
the same shape, so shape cannot tell them apart.  Every FusionNet comes
from net.init_network (train) or net.load_net (infer), and both are wrapped
to register their weights.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from multiscopic import cli, costvol, fusion, graphcut, layers, net, synthscene
from multiscopic.net import LAYER_SPECS

CONV_NAMES = tuple(spec[0] for spec in LAYER_SPECS)

# The acceptance gate allows float noise of this size in the energy trace.
_ENERGY_TOL = 1e-9


class Span:
    __slots__ = ("name", "parent", "ms", "counts")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.ms = 0.0
        self.counts: dict[str, float] = {}


class Tracer:
    """Span recorder plus the set of installed wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.problems: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._convs: dict[int, tuple[str, np.ndarray]] = {}

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, span)."""
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span.ms = (time.perf_counter() - t0) * 1e3
            self._stack.pop()

    def _wrap(self, module, attr: str, name, note=None):
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            out, span = self.call(label, orig, *args, **kwargs)
            if note is not None:
                note(span, args, kwargs, out)
            return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    # -- installation --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for mod in (costvol, graphcut):
            self._wrap(mod, "multiscopic_volumes", _matcher_span, _note_cells)
        for mod in (fusion, graphcut):
            self._wrap(mod, "fuse", "fusion.fuse", _note_fuse_bytes)
            self._wrap(mod, "wta_disparity", "fusion.wta", _note_invalid)
        self._wrap(graphcut, "max_flow", "maxflow.max_flow", _note_graph)
        self._wrap(graphcut, "expansion_move", "graphcut.expansion", _note_useful)
        self._wrap(graphcut, "gc_energy", "graphcut.energy")
        self._wrap(graphcut, "occlusion_pass", "graphcut.occlusion", _note_flips)
        self._wrap(graphcut, "upscale_image", "graphcut.upscale")
        self._wrap_gc()
        self._wrap(layers, "conv3d_forward", self._conv_span("forward", lambda a: a[1]),
                   _note_conv_forward)
        self._wrap(layers, "conv3d_backward", self._conv_span("backward", lambda a: a[1][1]),
                   _note_conv_backward)
        self._wrap(layers, "softmax_neg_backward", "layers.softmax_neg_backward")
        self._wrap(net, "init_network", "net.init", self._register)
        self._wrap(net, "load_net", "net.load", self._register)
        self._wrap(net, "train", "net.train", _note_samples)
        self._wrap(net, "backward", "net.backward")
        self._wrap(net, "forward", "net.forward")
        for mod in (cli, synthscene):
            self._wrap(mod, "read_image", "imagery.read")
            self._wrap(mod, "write_image", "imagery.write", _note_file_size)
        self._wrap(cli, "colorize_jet", "imagery.colorize")
        self._wrap(cli, "load_scene", "synthscene.load")
        self._wrap(synthscene, "generate_dataset", "synthscene.generate")

    def restore(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap_gc(self):
        """Collect the energy sequence through the public energy_trace=
        argument and check that it never increases."""
        orig = graphcut.multiscopic_gc

        def wrapper(*args, **kwargs):
            energies = kwargs.get("energy_trace")
            if energies is None and len(args) < 5:
                energies = kwargs["energy_trace"] = []
            out, span = self.call("graphcut.gc", orig, *args, **kwargs)
            if energies:
                span.counts["final_energy"] = energies[-1]
                rises = int((np.diff(energies) > _ENERGY_TOL).sum())
                if rises:
                    self.problems.append(f"gc energy increased at {rises} steps")
            return out

        graphcut.multiscopic_gc = wrapper
        self._patches.append((graphcut, "multiscopic_gc", orig))

    def _register(self, span, args, kwargs, model):
        for name, conv in model.convs.items():
            # Keeping the array alive keeps its id from being reused.
            self._convs[id(conv.w)] = (name, conv.w)

    def _conv_span(self, direction: str, weight_of):
        def label(args, kwargs):
            entry = self._convs.get(id(weight_of(args)))
            if entry is None:
                self.problems.append("conv call on weights of no registered FusionNet")
                return f"layers.conv3d_{direction}_ms.unregistered"
            return f"layers.conv3d_{direction}_ms.{entry[0]}"

        return label


def _matcher_span(args, kwargs):
    matcher = kwargs["matcher"] if "matcher" in kwargs else args[1]
    return f"costvol.{matcher}"


def _note_cells(span, args, kwargs, volumes):
    span.counts["cells"] = sum(v.costs.size for v in volumes)


def _note_fuse_bytes(span, args, kwargs, fused):
    # fuse stacks the n input volumes into one float64 array before sorting.
    n = len(args[0] if args else kwargs["volumes"])
    span.counts["bytes"] = n * fused.costs.size * 8 if n > 1 else 0


def _note_invalid(span, args, kwargs, dmap):
    span.counts["px"] = dmap.values.size
    span.counts["invalid"] = int((~dmap.valid_mask).sum())


def _note_graph(span, args, kwargs, out):
    g = args[0]
    span.counts["nodes"] = g.num_nodes
    span.counts["arcs"] = g.num_arcs()


def _note_useful(span, args, kwargs, labels):
    span.counts["useful"] = int(not np.array_equal(labels, args[0]))


def _note_flips(span, args, kwargs, out):
    span.counts["flips"] = out[1]


def _conv_flops(w: np.ndarray, out_shape) -> float:
    c_out, c_in, k = w.shape[:3]
    return 2.0 * c_out * c_in * k**3 * float(np.prod(out_shape[1:]))


def _note_conv_forward(span, args, kwargs, out):
    span.counts["flops"] = _conv_flops(args[1], out[0].shape)


def _note_conv_backward(span, args, kwargs, out):
    # dW and dX each cost one forward's worth of multiply-adds.
    span.counts["flops"] = 2.0 * _conv_flops(args[1][1], args[0].shape)


def _note_samples(span, args, kwargs, out):
    dataset = args[0] if args else kwargs["dataset"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    span.counts["samples"] = len(dataset) * cfg.epochs


def _note_file_size(span, args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    span.counts["bytes"] = os.path.getsize(path)


# Per-layer metrics: (name, unit, computed).  "computed" marks work counts
# derived from array shapes rather than measured.
PER_LAYER = (
    [
        ("costvol.sad_ms", "ms", False),
        ("costvol.bt_ms", "ms", False),
        ("costvol.cells", "count", True),
        ("costvol.mcells_per_s", "Mcell/s", True),
        ("fusion.fuse_ms", "ms", False),
        ("fusion.wta_ms", "ms", False),
        ("fusion.bytes_computed", "B", True),
        ("fusion.wta_invalid_frac", "ratio", False),
        ("maxflow.max_flow_ms", "ms", False),
        ("maxflow.calls", "count", False),
        ("maxflow.nodes_mean", "count", False),
        ("maxflow.arcs_mean", "count", False),
        ("graphcut.build_ms", "ms", False),
        ("graphcut.energy_ms", "ms", False),
        ("graphcut.occlusion_ms", "ms", False),
        ("graphcut.upscale_ms", "ms", False),
        ("graphcut.moves", "count", False),
        ("graphcut.moves_useful_ratio", "ratio", False),
        ("graphcut.sweeps", "count", False),
        ("graphcut.occlusion_flips", "count", False),
        ("graphcut.final_energy", "energy", False),
    ]
    + [(f"layers.conv3d_forward_ms.{n}", "ms", False) for n in CONV_NAMES]
    + [(f"layers.conv3d_backward_ms.{n}", "ms", False) for n in CONV_NAMES]
    + [
        ("layers.softmax_neg_backward_ms", "ms", False),
        ("layers.conv_gflops_s", "GFLOP/s", True),
        ("net.train_ms", "ms", False),
        ("net.backward_ms", "ms", False),
        ("net.forward_ms", "ms", False),
        ("net.adam_ms", "ms", False),
        ("net.samples", "count", False),
        ("net.load_ms", "ms", False),
        ("imagery.read_ms", "ms", False),
        ("imagery.write_ms", "ms", False),
        ("imagery.bytes_written", "B", False),
        ("imagery.colorize_ms", "ms", False),
        ("synthscene.generate_ms", "ms", False),
        ("synthscene.load_ms", "ms", False),
        ("cli.run_ms", "ms", False),
        ("cli.self_ms", "ms", False),
        ("trace.overhead_pct", "%", False),
    ]
)


def layer_metrics(
    tracer: Tracer, passes: int, setup: Tracer, overhead_pct: float
) -> dict[str, float]:
    """Per-layer values from the spans of `passes` traced passes.

    Times and counts are totals per pass; *_mean, *_ratio, *_frac and rates
    are taken over all traced calls.  synthscene.generate_ms comes from the
    setup tracer, which saw the dataset generation.
    """
    ms = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    child_ms = defaultdict(float)
    for span in tracer.spans:
        ms[span.name] += span.ms
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[span.name, key] += value
        if span.parent is not None:
            child_ms[span.parent] += span.ms
    cli_self = sum(
        s.ms - child_ms[i] for i, s in enumerate(tracer.spans) if s.name == "cli.run"
    )

    def per_pass(value):
        return value / passes

    def ratio(num, den):
        return num / den if den else 0.0

    conv_names = [n for n in ms if n.startswith("layers.conv3d_")]
    conv_flops = sum(counts[n, "flops"] for n in conv_names)
    conv_ms = sum(ms[n] for n in conv_names)
    cost_ms = ms["costvol.sad"] + ms["costvol.bt"]
    cells = counts["costvol.sad", "cells"] + counts["costvol.bt", "cells"]
    gc_calls = calls["graphcut.gc"]
    wta_px = counts["fusion.wta", "px"]

    values = {
        "costvol.sad_ms": per_pass(ms["costvol.sad"]),
        "costvol.bt_ms": per_pass(ms["costvol.bt"]),
        "costvol.cells": per_pass(cells),
        "costvol.mcells_per_s": ratio(cells / 1e6, cost_ms / 1e3),
        "fusion.fuse_ms": per_pass(ms["fusion.fuse"]),
        "fusion.wta_ms": per_pass(ms["fusion.wta"]),
        "fusion.bytes_computed": per_pass(counts["fusion.fuse", "bytes"]),
        "fusion.wta_invalid_frac": ratio(counts["fusion.wta", "invalid"], wta_px),
        "maxflow.max_flow_ms": per_pass(ms["maxflow.max_flow"]),
        "maxflow.calls": per_pass(calls["maxflow.max_flow"]),
        "maxflow.nodes_mean": ratio(
            counts["maxflow.max_flow", "nodes"], calls["maxflow.max_flow"]
        ),
        "maxflow.arcs_mean": ratio(
            counts["maxflow.max_flow", "arcs"], calls["maxflow.max_flow"]
        ),
        "graphcut.build_ms": per_pass(ms["graphcut.expansion"] - ms["maxflow.max_flow"]),
        "graphcut.energy_ms": per_pass(ms["graphcut.energy"]),
        "graphcut.occlusion_ms": per_pass(ms["graphcut.occlusion"]),
        "graphcut.upscale_ms": per_pass(ms["graphcut.upscale"]),
        "graphcut.moves": per_pass(calls["graphcut.expansion"]),
        "graphcut.moves_useful_ratio": ratio(
            counts["graphcut.expansion", "useful"], calls["graphcut.expansion"]
        ),
        "graphcut.sweeps": per_pass(calls["graphcut.occlusion"]),
        "graphcut.occlusion_flips": per_pass(counts["graphcut.occlusion", "flips"]),
        "graphcut.final_energy": ratio(counts["graphcut.gc", "final_energy"], gc_calls),
    }
    for direction in ("forward", "backward"):
        for name in CONV_NAMES:
            key = f"layers.conv3d_{direction}_ms.{name}"
            values[key] = per_pass(ms[key])
    values.update(
        {
            "layers.softmax_neg_backward_ms": per_pass(ms["layers.softmax_neg_backward"]),
            "layers.conv_gflops_s": ratio(conv_flops / 1e9, conv_ms / 1e3),
            "net.train_ms": per_pass(ms["net.train"]),
            "net.backward_ms": per_pass(ms["net.backward"]),
            "net.forward_ms": per_pass(ms["net.forward"]),
            "net.adam_ms": per_pass(ms["net.train"] - ms["net.backward"]),
            "net.samples": per_pass(counts["net.train", "samples"]),
            "net.load_ms": per_pass(ms["net.load"]),
            "imagery.read_ms": per_pass(ms["imagery.read"]),
            "imagery.write_ms": per_pass(ms["imagery.write"]),
            "imagery.bytes_written": per_pass(counts["imagery.write", "bytes"]),
            "imagery.colorize_ms": per_pass(ms["imagery.colorize"]),
            "synthscene.generate_ms": sum(
                s.ms for s in setup.spans if s.name == "synthscene.generate"
            ),
            "synthscene.load_ms": per_pass(ms["synthscene.load"]),
            "cli.run_ms": per_pass(ms["cli.run"]),
            "cli.self_ms": per_pass(cli_self),
            "trace.overhead_pct": overhead_pct,
        }
    )
    return values
