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

Each disparity slice is fused on its own.  Its rows hold float32 costs in
[+0.0, +inf] (costvol.check_costs, run on each row read; anything else is
an InputError), or uint32 integer costs from SAD's exact path, which need
no check.  Either way the n costs per cell are ordered ascending by
Batcher's odd-even merge network (Batcher, "Sorting networks and their
applications", AFIPS 1968) of uint32 minimum/maximum on the bit patterns:
on both that order is the cost order and equal costs have equal bits, so
the result has the bits of any ascending sort.  The network is built once
per fusion loop and pruned to the ranks the strategy reads (_network):
rank 0 for MIN, ranks 0 to 2 for HEURISTIC, all for MEAN, whose float64
sum runs in ascending order.

One fusion loop, fuse_slices, runs over per-disparity lists of the n
views' slices and yields float32.  fuse feeds it from whole volumes; the
dense pipeline feeds it from the matchers (costvol.multiscopic_slices) and
its fused slices go straight into the running-argmin WTA (wta_slices), so
that pipeline never holds a volume.

MEAN and HEURISTIC arithmetic runs in float64 with ascending-order
summation and one rounding to float32, so the pointwise ordering MIN <=
HEURISTIC <= MEAN survives the cast (rounding is monotone).  HEURISTIC
takes a shorter path with the same bits on uint32 rows when the factor f
is an integer below 2**24 and (f+2)*c2 < 2**24 in every cell: one dtype
test and one maximum.  Then f*c2 and every sum that is kept are exact
integers below 2**24, computed in uint32 and converted to float32
exactly, so the comparison c3 > f*c2 has the float64 outcome whatever c3
holds (LARGE_COST included), an outlier's (c1+c2)/2 is exact (and taken
at the outliers only), and a non-outlier's c1 + c2 + c3 <= (f+2)*c2 is
exact, so its /3 is one correctly rounded float32 division.  That equals
the float64 quotient rounded to float32, since 53 >= 2*24 + 2 (Figueroa,
"When is double rounding innocuous?", SIGNUM 1995).  SAD's costs meet the
bound at the default factor 3 while the second-smallest cost stays below
2**24/5 (on 8-bit images, any block up to rho 56 when that cost is no
sentinel).

The WTA keeps its running minimum with np.minimum: equal costs have equal
bits, so it does not matter which of two equal costs it keeps.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

import numpy as np

from .costvol import LARGE_COST, CostVolume, check_costs, check_volumes
from .errors import InputError
from .imagery import INVALID_DISPARITY, DisparityMap


class FusionStrategy(enum.Enum):
    MEAN = "mean"
    MIN = "min"
    HEURISTIC = "heuristic"


class _Scratch:
    """Arrays the fusion loop reuses for every slice of one shape, so that it
    allocates nothing per slice."""

    def __init__(self, shape: tuple[int, ...]):
        self.x = np.empty(shape, dtype=np.uint32)
        self.outlier = np.empty(shape, dtype=bool)
        self.f64 = np.empty((3,) + shape, dtype=np.float64)
        self.sums = np.empty(shape, dtype=np.uint32)  # never one of the ordered rows
        self.out = np.empty(shape, dtype=np.float32)


def _select(dst: np.ndarray, src: np.ndarray, mask: np.ndarray, x: np.ndarray) -> None:
    """dst = src where mask, in place, as raw bits and without a branch.

    x is scratch of the unsigned integer type as wide as dst's items:
    x = dst ^ src, zeroed where mask is False, then dst ^= x.
    """
    bits = dst.view(x.dtype)
    np.bitwise_xor(bits, src.view(x.dtype), out=x)
    x *= mask
    bits ^= x


def _network(n: int, strategy: FusionStrategy) -> list[tuple[int, int, bool]]:
    """Batcher's odd-even merge sorting network for n rows, pruned to the
    comparators that the ranks the strategy reads depend on.

    The network is built for the next power of two and its comparators on
    rows past n dropped, as if those rows held +inf.  Walked backwards, a
    comparator (i, j), i < j, is kept when row i or row j is read later,
    and then both its inputs are; where only row i is read, it keeps only
    its minimum.  MIN reads rank 0 and keeps n - 1 minima, one pass each.
    HEURISTIC on n >= 3 rows reads ranks 0 to 2: at n = 4 that keeps
    (0,1), (2,3), (0,2) and (1,2) whole and the minimum of (1,3), 9 passes
    where the whole network takes 10.  MEAN reads every rank.  Returns
    (i, j, exchange) triples, exchange False for a minimum only.
    """
    size = 1 << max(n - 1, 0).bit_length()
    comparators = []
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, j + k):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < n:
                        comparators.append((i, i + k))
            k //= 2
        p *= 2
    if strategy is FusionStrategy.MEAN:
        read = set(range(n))
    else:
        read = set(range(3 if strategy is FusionStrategy.HEURISTIC and n >= 3 else 1))
    kept = []
    for i, j in reversed(comparators):
        if i in read or j in read:
            kept.append((i, j, j in read))
            read |= {i, j}
    return kept[::-1]


def _order_cells(
    rows: list[np.ndarray], network: list[tuple[int, int, bool]], work: _Scratch
) -> list[np.ndarray]:
    """Order n rows of costs ascending per cell on the ranks the network
    keeps (_network), and return the n arrays, of the rows' dtype: float32
    in [+0.0, +inf] or uint32, that hold rank 0, 1, ... where it is kept.

    Each comparator is a uint32 minimum and maximum on the bit patterns: a
    compare-exchange takes the minimum into a spare array (first work.x)
    and the maximum in place, after which the spare and the old lower row
    trade places; a minimum only is taken in place.  The result is some n
    of the rows and work.x, and the rows' old contents are used up.
    """
    bits = [row.view(np.uint32) for row in rows]
    spare = work.x
    for i, j, exchange in network:
        if exchange:
            np.minimum(bits[i], bits[j], out=spare)
            np.maximum(bits[i], bits[j], out=bits[j])
            bits[i], spare = spare, bits[i]
        else:
            np.minimum(bits[i], bits[j], out=bits[i])
    return [b.view(rows[0].dtype) for b in bits]


def _fuse_slice(
    srt: list[np.ndarray],
    strategy: FusionStrategy,
    heuristic_factor: float,
    int_factor: int | None,
    work: _Scratch,
) -> None:
    """Fused costs of one disparity slice from its ordered rows into
    work.out: computed in float64 and rounded once, or for HEURISTIC on
    uint32 rows within the module's bound in uint32 sums and float32
    divisions, which give the same bits."""
    n = len(srt)
    heuristic = strategy is FusionStrategy.HEURISTIC
    if n == 1 or strategy is FusionStrategy.MIN or (heuristic and n == 2):
        np.copyto(work.out, srt[0])
        return
    if heuristic and srt[0].dtype == np.uint32 and int_factor is not None and (
        int(srt[1].max()) * (int_factor + 2) < 2**24
    ):
        c1, c2, c3 = srt[:3]  # used-up scratch, overwritten here
        x = work.sums
        np.multiply(c2, np.uint32(int_factor), out=x)
        np.greater(c3, x, out=work.outlier)
        np.add(c1, c2, out=c1)
        np.add(c1, c3, out=x)  # may wrap only where outlier drops it
        # every kept sum is below 2**24, so its int32 view holds it, and
        # NumPy casts int32 to float32 faster than uint32
        np.copyto(work.out, x.view(np.int32))
        work.out /= np.float32(3.0)
        np.divide(c1.view(np.int32), np.float32(2.0), out=work.out, where=work.outlier,
                  dtype=np.float32)
        return
    c1, c2, c3 = work.f64
    np.copyto(c1, srt[0])
    if strategy is FusionStrategy.MEAN:
        for i in range(1, n):
            c1 += srt[i]
        c1 /= n
        np.copyto(work.out, c1)
        return
    np.copyto(c2, srt[1])
    np.copyto(c3, srt[2])
    outlier = work.outlier
    np.add(c1, c2, out=c1)
    # c2 is float64, so the product is too; a product past the float64 range
    # is inf, the exact outcome of the comparison
    with np.errstate(over="ignore"):
        np.multiply(heuristic_factor, c2, out=c2)
    np.greater(c3, c2, out=outlier)
    np.add(c1, c3, out=c3)
    c1 /= 2.0
    c3 /= 3.0
    np.copyto(c3, c1, where=outlier)
    np.copyto(work.out, c3)


def fuse_slices(
    slice_lists: Iterable[list[np.ndarray]],
    strategy: FusionStrategy,
    heuristic_factor: float = 3.0,
) -> Iterator[np.ndarray]:
    """The fusion loop: one fused float32 (H, W) slice per list of the n
    views' slices of one disparity, in order.

    A list holds arrays of one dtype: float32 costs, or uint32 integer
    costs (SAD's exact path).  Its arrays are used up as ordering scratch,
    so they must be arrays the caller is done with.  Each yielded slice is
    scratch as well, valid until the next is asked for.  The strategy and
    heuristic_factor (positive and finite) are checked before any slice is
    read, and every float32 slice read must hold costs in [+0.0, +inf]
    (InputError naming the slice and view otherwise).
    """
    if not isinstance(strategy, FusionStrategy):
        raise InputError(f"unknown fusion strategy {strategy!r}")
    if not 0 < heuristic_factor < np.inf:
        raise InputError(f"heuristic_factor must be positive and finite, got {heuristic_factor}")

    # the factor the uint32 path takes: an integer below 2**24
    int_factor = None
    if float(heuristic_factor).is_integer() and heuristic_factor < 2**24:
        int_factor = int(heuristic_factor)

    def stream():
        work = None
        for k, rows in enumerate(slice_lists):
            if rows[0].dtype != np.uint32:
                for i, row in enumerate(rows):
                    check_costs(row, f"fusion slice {k}, view {i}")
            if work is None:
                work = _Scratch(rows[0].shape)
                network = _network(len(rows), strategy)
            srt = _order_cells(rows, network, work)
            _fuse_slice(srt, strategy, heuristic_factor, int_factor, work)
            yield work.out

    return stream()


def fuse(
    volumes: list[CostVolume],
    strategy: FusionStrategy,
    heuristic_factor: float = 3.0,
) -> CostVolume:
    """Reduce per-view cost volumes to a single volume, cell by cell: the
    fusion loop of fuse_slices fed with the volumes' slices.

    heuristic_factor must be positive and finite.
    """
    check_volumes(volumes, "fuse")
    first = volumes[0]
    rows = list(np.empty((len(volumes),) + first.costs.shape[1:], dtype=np.float32))

    def copies():
        for k in range(first.num_disparities):
            for row, v in zip(rows, volumes):
                row[...] = v.costs[k]
            yield rows

    fused = np.empty_like(first.costs)
    for k, fused_slice in enumerate(fuse_slices(copies(), strategy, heuristic_factor)):
        fused[k] = fused_slice
    return CostVolume(fused, first.d_min, first.d_max)


def wta_slices(slices: Iterable[np.ndarray], d_min: int, subpixel: bool = True) -> DisparityMap:
    """Per-pixel argmin disparity over cost slices read one at a time
    (slice k holds disparity d_min + k), optionally refined by a parabola fit.

    Ties break toward the smaller disparity.  Pixels whose costs are all
    sentinels come out invalid.  The refinement fits a parabola through the
    costs at d*-1, d*, d*+1 and returns its vertex

        d* + (c(d*-1) - c(d*+1)) / (2 c(d*-1) + 2 c(d*+1) - 4 c(d*))

    only when d* is interior, the denominator is positive and neither
    neighbor cost is a sentinel; otherwise the integer winner stands.
    The offset magnitude is at most 1/2 by the argmin property.

    The running argmin keeps np.argmin's rule: a later slice takes a pixel
    only if its cost is strictly smaller, so the first minimum wins.  For
    the parabola each pixel keeps the costs of the slices before and after
    its current best.  Slices may be scratch: what is kept is copied.
    Every slice must hold costs in [+0.0, +inf] (InputError naming the
    slice otherwise).
    """
    it = iter(slices)
    first = next(it, None)
    if first is None:
        raise InputError("WTA needs at least one cost slice")
    best = np.array(first, dtype=np.float32)
    check_costs(best, "WTA slice 0")
    k_star = np.zeros(best.shape, dtype=np.uint32)
    k_new = np.empty_like(k_star)
    better = np.empty(best.shape, dtype=bool)
    # better as uint32 0/1: the selects multiply by it without a type cast
    take = np.empty_like(k_star)
    x = np.empty_like(k_star)
    if subpixel:
        lo = best.copy()  # cost at max(k* - 1, 0)
        # cost at k* + 1 once that slice is read; stale where k* is the last
        # slice, which the refinement leaves out
        hi = best.copy()
        prev = best.copy()
        fresh = np.ones_like(k_star)  # k* is the slice read last
    depth = 1
    for k, s in enumerate(it, start=1):
        s = np.asarray(s, dtype=np.float32)
        check_costs(s, f"WTA slice {k}")
        depth += 1
        if subpixel:
            _select(hi, s, fresh, x)
        np.less(s, best, out=better)
        np.copyto(take, better)
        # equal costs have equal bits, so this is the select on take
        np.minimum(best, s, out=best)
        # k exceeds every index so far: max(k*, k * take) is k where taken
        np.maximum(k_star, np.multiply(take, k, out=k_new), out=k_star)
        if subpixel:
            _select(lo, prev, take, x)
            np.copyto(prev, s)
            fresh, take = take, fresh
    c0 = best
    invalid = c0 >= LARGE_COST

    disp = k_star.astype(np.float64)
    disp += d_min
    if subpixel and depth >= 3:
        c_lo = lo.astype(np.float64)
        c_hi = hi.astype(np.float64)
        # a pixel at +inf makes inf - inf here, which ok leaves out
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = 2.0 * c_lo + 2.0 * c_hi - 4.0 * c0.astype(np.float64)
            offset = (c_lo - c_hi) / denom
        ok = (
            (k_star > 0)
            & (k_star < depth - 1)
            & (denom > 0)
            & (lo < LARGE_COST)
            & (hi < LARGE_COST)
        )
        disp = np.where(ok, disp + offset, disp)

    disp = disp.astype(np.float32)
    disp[invalid] = INVALID_DISPARITY
    return DisparityMap(disp)


def wta_disparity(volume: CostVolume, subpixel: bool = True) -> DisparityMap:
    """WTA (wta_slices) over the slices of a volume."""
    return wta_slices(volume.costs, volume.d_min, subpixel)
