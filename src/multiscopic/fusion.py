"""Cost-volume fusion and winner-take-all disparity extraction.

Fusion reduces n per-view volumes to one.  All strategies operate per cell:

* MEAN: arithmetic mean;
* MIN: minimum;
* HEURISTIC: keep the three smallest costs c1 <= c2 <= c3 and output
  (c1+c2)/2 when c3 > factor*c2 (the third view is likely occluded),
  otherwise their mean; two volumes reduce to the smaller cost, one volume
  passes through.

Cells at the LARGE_COST sentinel simply sort last, so a view whose sample
left the frame never wins a fused cell.

Each disparity slice is fused on its own.  Its n float32 costs per cell are
ordered by an adjacent compare-exchange network that swaps only a strictly
smaller later value, or a non-NaN later value past a NaN: a stable
ascending order with NaN last, the order a stable sort gives, down to the
relative order of -0.0 and +0.0.

Internals run in float64 with ascending-order summation so the pointwise
ordering MIN <= HEURISTIC <= MEAN survives the final float32 cast (rounding
is monotone).
"""

from __future__ import annotations

import enum

import numpy as np

from .costvol import LARGE_COST, CostVolume, check_volumes
from .errors import InputError
from .imagery import INVALID_DISPARITY, DisparityMap


class FusionStrategy(enum.Enum):
    MEAN = "mean"
    MIN = "min"
    HEURISTIC = "heuristic"


def _order_cells(rows: np.ndarray) -> np.ndarray:
    """Sort (n, H, W) rows ascending per cell, stable and NaN last, in place.

    Odd-even transposition: n rounds of compare-exchange on adjacent rows.
    """
    n = rows.shape[0]
    for rnd in range(n):
        for i in range(rnd % 2, n - 1, 2):
            lo, hi = rows[i], rows[i + 1]
            # hi < lo, or lo is NaN, provided hi is not NaN
            swap = (hi == hi) & ~(lo <= hi)
            rows[i], rows[i + 1] = np.where(swap, hi, lo), np.where(swap, lo, hi)
    return rows


def _fuse_slice(srt: np.ndarray, strategy: FusionStrategy, heuristic_factor: float):
    """Fused float64 costs of one disparity slice from its ordered rows."""
    n = srt.shape[0]
    if strategy is FusionStrategy.MIN or (strategy is FusionStrategy.HEURISTIC and n == 2):
        return srt[0].astype(np.float64)
    if strategy is FusionStrategy.MEAN:
        total = srt[0].astype(np.float64)
        for i in range(1, n):
            total += srt[i]
        return total / n
    c1, c2, c3 = (row.astype(np.float64) for row in srt[:3])
    pair = c1 + c2
    triple = pair + c3
    return np.where(c3 > heuristic_factor * c2, pair / 2.0, triple / 3.0)


def fuse(
    volumes: list[CostVolume],
    strategy: FusionStrategy,
    heuristic_factor: float = 3.0,
) -> CostVolume:
    """Reduce per-view cost volumes to a single volume, cell by cell."""
    if not isinstance(strategy, FusionStrategy):
        raise InputError(f"unknown fusion strategy {strategy!r}")
    check_volumes(volumes, "fuse")
    if not heuristic_factor > 0:
        raise InputError(f"heuristic_factor must be positive, got {heuristic_factor}")
    first = volumes[0]
    if len(volumes) == 1:
        return CostVolume(first.costs.copy(), first.d_min, first.d_max)

    fused = np.empty_like(first.costs)
    for k in range(first.num_disparities):
        srt = _order_cells(np.stack([v.costs[k] for v in volumes]))
        fused[k] = _fuse_slice(srt, strategy, heuristic_factor)
    return CostVolume(fused, first.d_min, first.d_max)


def wta_disparity(volume: CostVolume, subpixel: bool = True) -> DisparityMap:
    """Per-pixel argmin disparity, optionally refined by a parabola fit.

    Ties break toward the smaller disparity.  Pixels whose costs are all
    sentinels come out invalid.  The refinement fits a parabola through the
    costs at d*-1, d*, d*+1 and returns its vertex

        d* + (c(d*-1) - c(d*+1)) / (2 c(d*-1) + 2 c(d*+1) - 4 c(d*))

    only when d* is interior, the denominator is positive and neither
    neighbor cost is a sentinel; otherwise the integer winner stands.
    The offset magnitude is at most 1/2 by the argmin property.
    """
    costs = volume.costs
    depth = volume.num_disparities
    k_star = np.argmin(costs, axis=0)
    k_idx = k_star[None, ...]
    c0 = np.take_along_axis(costs, k_idx, axis=0)[0]
    invalid = c0 >= LARGE_COST

    disp = (volume.d_min + k_star).astype(np.float64)
    if subpixel and depth >= 3:
        lo = np.take_along_axis(costs, np.maximum(k_idx - 1, 0), axis=0)[0]
        hi = np.take_along_axis(costs, np.minimum(k_idx + 1, depth - 1), axis=0)[0]
        c_lo = lo.astype(np.float64)
        c_hi = hi.astype(np.float64)
        denom = 2.0 * c_lo + 2.0 * c_hi - 4.0 * c0.astype(np.float64)
        ok = (
            (k_star > 0)
            & (k_star < depth - 1)
            & (denom > 0)
            & (lo < LARGE_COST)
            & (hi < LARGE_COST)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = (c_lo - c_hi) / denom
        disp = np.where(ok, disp + offset, disp)

    disp = disp.astype(np.float32)
    disp[invalid] = INVALID_DISPARITY
    return DisparityMap(disp)
