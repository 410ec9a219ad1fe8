"""Disparity evaluation: RMS, AvgErr and Bad-threshold percentages.

RMS and AvgErr are computed over pixels valid in both maps.  Bad[t] is the
percentage of ground-truth-valid pixels whose absolute error strictly
exceeds t; by default a pixel the prediction abstained on (invalid/occluded
output where GT is valid) counts as error +inf, so abstention cannot game
the thresholds.  Pass penalize_invalid=False to mask those pixels out
instead (parity experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .imagery import DisparityMap

DEFAULT_THRESHOLDS = (0.5, 1.0, 2.0)


@dataclass
class MetricsReport:
    rms: float
    avg_err: float
    bad: dict[float, float]  # threshold -> percentage in [0, 100]
    count: int  # jointly valid pixels behind rms/avg_err


def _check_thresholds(thresholds) -> None:
    """A Bad threshold is an error bound in pixels: finite and >= 0."""
    for t in thresholds:
        if not (np.isfinite(t) and t >= 0):
            raise InputError(f"bad-pixel threshold must be finite and >= 0, got {t}")


def evaluate(
    pred: DisparityMap,
    gt: DisparityMap,
    thresholds=DEFAULT_THRESHOLDS,
    penalize_invalid: bool = True,
) -> MetricsReport:
    """Compare a prediction against ground truth."""
    _check_thresholds(thresholds)
    if pred.values.shape != gt.values.shape:
        raise InputError(
            f"shape mismatch: pred {pred.values.shape} vs gt {gt.values.shape}"
        )
    gt_valid = gt.valid_mask
    both = gt_valid & pred.valid_mask
    n_both = int(both.sum())
    if n_both == 0:
        raise InputError("no pixels are valid in both maps")
    e = np.abs(
        pred.values.astype(np.float64)[both] - gt.values.astype(np.float64)[both]
    )
    rms = float(np.sqrt(np.mean(e * e)))
    avg = float(np.mean(e))

    n_missing = int((gt_valid & ~pred.valid_mask).sum())
    denom = n_both + n_missing if penalize_invalid else n_both
    bad = {}
    for t in thresholds:
        fails = int((e > t).sum())
        if penalize_invalid:
            fails += n_missing  # e = +inf beats every threshold
        bad[float(t)] = 100.0 * fails / denom
    return MetricsReport(rms=rms, avg_err=avg, bad=bad, count=n_both)


def _aggregate(reports: list[MetricsReport]) -> MetricsReport:
    thresholds = sorted(reports[0].bad)
    return MetricsReport(
        rms=float(np.mean([r.rms for r in reports])),
        avg_err=float(np.mean([r.avg_err for r in reports])),
        bad={t: float(np.mean([r.bad[t] for r in reports])) for t in thresholds},
        count=sum(r.count for r in reports),
    )


def format_table(
    reports: list[MetricsReport], names: list[str], aggregate: MetricsReport
) -> str:
    """Tab-separated table, one scene per row plus an unweighted mean row."""
    thresholds = sorted(aggregate.bad)
    header = ["scene", "RMS", "AvgErr"] + [f"Bad{t:g}" for t in thresholds]
    lines = ["\t".join(header)]
    for name, rep in zip(names, reports):
        cells = [name, f"{rep.rms:.4f}", f"{rep.avg_err:.4f}"]
        cells += [f"{rep.bad[t]:.2f}" for t in thresholds]
        lines.append("\t".join(cells))
    cells = ["mean", f"{aggregate.rms:.4f}", f"{aggregate.avg_err:.4f}"]
    cells += [f"{aggregate.bad[t]:.2f}" for t in thresholds]
    lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def evaluate_dataset(
    pairs: list[tuple[DisparityMap, DisparityMap]],
    thresholds=DEFAULT_THRESHOLDS,
    names: list[str] | None = None,
    penalize_invalid: bool = True,
) -> tuple[MetricsReport, list[MetricsReport], str]:
    """Per-scene reports, their unweighted mean, and a text table.

    A scene that cannot be evaluated aborts the run with its identifier.
    """
    if not pairs:
        raise InputError("no prediction/ground-truth pairs")
    _check_thresholds(thresholds)
    if names is None:
        names = [f"{i:04d}" for i in range(len(pairs))]
    reports = []
    for name, (pred, gt) in zip(names, pairs):
        try:
            reports.append(evaluate(pred, gt, thresholds, penalize_invalid))
        except InputError as err:
            raise InputError(f"scene {name}: {err}") from None
    agg = _aggregate(reports)
    return agg, reports, format_table(reports, names, agg)
