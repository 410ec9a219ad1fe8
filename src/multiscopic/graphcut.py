"""Disparity labeling by alpha-expansion graph cuts with an explicit
occlusion label.

The energy over a labeling f (integer disparity per pixel, or OCCLUDED) is

    E(f) = sum_p c_gc(p, f_p)                        (assigned pixels)
         + K * #{p : f_p = OCCLUDED}
         + sum_{4-neighbor pairs} w(p,q) * V(f_p, f_q)

with V(a, b) = min(|a - b|, d_cutoff), V(OCCLUDED, .) = 0, and
w(p,q) = lambda1 where the center intensities differ by less than theta
(penalize breaks inside smooth regions more) else lambda2.  Uniqueness is
structural: a labeling assigns exactly one label per center pixel.

Each expansion move solves one min-cut exactly.  Convention: a pixel on the
source side of the cut keeps its label, on the sink side it switches to
alpha.  The move graph has one node per pixel: unary costs go on the t-links
(keep on p->t, switch on s->p) and every pairwise table becomes unary terms
plus one arc p->q, following Kolmogorov & Zabih, "What energy functions can
be minimized via graph cuts?", PAMI 2004 (see expansion_move).  The cut is
computed by the Boykov-Kolmogorov max-flow in maxflow.py (PAMI 2004).
OCCLUDED is never an expansion alpha: with V(OCCLUDED, .) = 0 that move's
pair terms are not submodular (the arc capacity B + C - A would be -A), so
occlusions are introduced by a greedy per-pixel pass that only ever lowers
the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costvol import BlockMatchParams, CostVolume, multiscopic_volumes
from .errors import InputError, check_size
from .fusion import FusionStrategy, fuse, wta_disparity
from .imagery import INVALID_DISPARITY, Direction, Image, MultiscopicSet, DisparityMap
from .maxflow import ArcLayout, FlowState, LayoutGraph, max_flow

OCCLUDED = -1

# Acceptance margin for float energies: a move must beat this to be kept.
_IMPROVE_EPS = 1e-9


@dataclass
class GcParams:
    """Energy weights and solver controls."""

    k_occlusion: float = 10.0
    lambda1: float = 9.0
    lambda2: float = 3.0
    theta: float = 8.0
    d_cutoff: int = 5
    upscale: int = 2
    max_sweeps: int = 8
    rng_seed: int = 0
    # Re-derive pair weights from all views at the current labeling between
    # sweeps.  Breaks the fixed-weight monotonicity guarantee; off by default.
    recheck_smoothness_weights: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.k_occlusion) and self.k_occlusion >= 0):
            raise InputError(f"k_occlusion must be finite and >= 0, got {self.k_occlusion}")
        if not (math.isfinite(self.lambda1) and math.isfinite(self.lambda2)):
            raise InputError("lambda1 and lambda2 must be finite")
        if not self.lambda1 >= self.lambda2 >= 0:
            raise InputError("need lambda1 >= lambda2 >= 0")
        if not self.theta > 0:
            raise InputError("theta must be positive")
        if not 1 <= self.d_cutoff <= np.iinfo(np.int64).max:
            raise InputError(f"d_cutoff must be in [1, 2^63 - 1], got {self.d_cutoff}")
        if self.upscale not in (1, 2, 4):
            raise InputError(f"upscale must be 1, 2 or 4, got {self.upscale}")
        if self.max_sweeps < 1:
            raise InputError("max_sweeps must be >= 1")
        if self.rng_seed < 0:
            raise InputError(f"seed must be >= 0, got {self.rng_seed}")


def pair_weights(center: Image, p: GcParams) -> tuple[np.ndarray, np.ndarray]:
    """lambda1/lambda2 weights for horizontal and vertical neighbor pairs.

    Returns (w_h, w_v): w_h[y, x] weights the pair (x,y)-(x+1,y) and
    w_v[y, x] the pair (x,y)-(x,y+1).
    """
    a = center.pixels
    w_h = np.where(np.abs(a[:, :-1] - a[:, 1:]) < p.theta, p.lambda1, p.lambda2)
    w_v = np.where(np.abs(a[:-1, :] - a[1:, :]) < p.theta, p.lambda1, p.lambda2)
    return w_h.astype(np.float64), w_v.astype(np.float64)


def _check_labels(labels: np.ndarray, vol: CostVolume) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (vol.height, vol.width):
        raise InputError(f"labeling shape {labels.shape} does not match volume")
    assigned = labels != OCCLUDED
    bad = assigned & ((labels < vol.d_min) | (labels > vol.d_max))
    if np.any(bad):
        raise InputError("labeling contains disparities outside the volume range")
    return labels.astype(np.int64)


def _pair_smoothness(fa: np.ndarray, fb: np.ndarray, w: np.ndarray, cutoff: int) -> np.ndarray:
    both = (fa != OCCLUDED) & (fb != OCCLUDED)
    v = np.minimum(np.abs(fa - fb), cutoff)
    return np.where(both, w * v, 0.0)


def _terms(labels: np.ndarray, c_gc: CostVolume, center: Image, p: GcParams, weights):
    """The energy's terms at a labeling: the checked labels, the pair
    weights (pair_weights when none are given), each pixel's float64 unary
    term (its data cost, or K where OCCLUDED) and the smoothness terms s_h,
    s_v of its horizontal and vertical pairs."""
    labels = _check_labels(labels, c_gc)
    w_h, w_v = pair_weights(center, p) if weights is None else weights
    assigned = labels != OCCLUDED
    yy, xx = np.nonzero(assigned)
    unary = np.full(labels.shape, p.k_occlusion, dtype=np.float64)
    unary[assigned] = c_gc.costs[labels[assigned] - c_gc.d_min, yy, xx]
    s_h = _pair_smoothness(labels[:, :-1], labels[:, 1:], w_h, p.d_cutoff)
    s_v = _pair_smoothness(labels[:-1, :], labels[1:, :], w_v, p.d_cutoff)
    return labels, (w_h, w_v), unary, s_h, s_v


def gc_energy(
    labels: np.ndarray,
    c_gc: CostVolume,
    center: Image,
    p: GcParams,
    weights: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Total labeling energy (data + occlusion + smoothness), in float64."""
    labels, _, unary, s_h, s_v = _terms(labels, c_gc, center, p, weights)
    assigned = labels != OCCLUDED
    data = float(unary[assigned].sum())
    occ = p.k_occlusion * float(np.count_nonzero(~assigned))
    return data + occ + float(s_h.sum() + s_v.sum())


class MoveReuse:
    """What the expansion moves on one labeling grid keep between solves.

    All their graphs share one ArcLayout, built here once: every
    4-neighbor pair with row-major pixel ids, the horizontal pairs
    (x,y)-(x+1,y) first, then the vertical (x,y)-(x,y+1).  states[alpha] is
    the FlowState that alpha's last solve left; the next solve of alpha
    starts from it (Kohli & Torr, ICCV 2005).
    """

    def __init__(self, height: int, width: int):
        ids = np.arange(height * width).reshape(height, width)
        self.shape = (height, width)
        self.layout = ArcLayout(
            height * width,
            np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()]),
            np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()]),
        )
        self.states: dict[int, FlowState] = {}


def expansion_move(
    labels: np.ndarray,
    alpha: int,
    c_gc: CostVolume,
    center: Image,
    p: GcParams,
    weights: tuple[np.ndarray, np.ndarray] | None = None,
    reuse: MoveReuse | None = None,
) -> np.ndarray:
    """Optimal single expansion: each pixel keeps its label or takes alpha.

    Returns a new labeling attaining the minimum energy over all 2^N
    keep/switch assignments (exact via min-cut).

    The graph has one node per pixel and no auxiliary nodes.  Each pair's
    table A = w*V(fp,fq), B = w*V(fp,alpha), C = w*V(alpha,fq), D = 0 is
    reparameterized as in Kolmogorov & Zabih, "What energy functions can be
    minimized via graph cuts?", PAMI 2004: A joins keep(p), C joins
    switch(p) and keep(q), and one arc p->q carries B + C - A, which the
    triangle inequality of truncated-linear V keeps non-negative (and which
    is C when fp or fq is OCCLUDED).  Each pixel's t-links are then netted
    to at most one.  All of this is array arithmetic over every pair at
    once.  Every 4-neighbor pair is an arc, of capacity 0 where B + C - A
    is 0, so all moves on one grid share one arc layout.  The kept pixels are
    the source side that maxflow.max_flow returns, the minimal one: of all
    optimal moves, this one switches every pixel that any of them switches.

    With reuse, the solve starts from the flow and search trees that the
    last solve of alpha in reuse left, and leaves its own there.  The move
    is the same as a fresh solve's.
    """
    labels, (w_h, w_v), keep, s_h, s_v = _terms(labels, c_gc, center, p, weights)
    if not c_gc.d_min <= alpha <= c_gc.d_max:
        raise InputError(f"alpha {alpha} outside volume range")
    height, width = labels.shape
    if reuse is None:
        reuse = MoveReuse(height, width)
    elif reuse.shape != labels.shape:
        raise InputError(f"reuse was made for a {reuse.shape} grid, not {labels.shape}")
    switch = c_gc.costs[alpha - c_gc.d_min].astype(np.float64)

    cap = []
    for sl_p, sl_q, w, a in (
        (np.s_[:, :-1], np.s_[:, 1:], w_h, s_h),
        (np.s_[:-1, :], np.s_[1:, :], w_v, s_v),
    ):
        fp, fq = labels[sl_p], labels[sl_q]
        b = _pair_smoothness(fp, alpha, w, p.d_cutoff)
        c = _pair_smoothness(alpha, fq, w, p.d_cutoff)
        keep[sl_p] += a
        switch[sl_p] += c
        keep[sl_q] += c
        cap.append(np.maximum(b + c - a, 0.0).ravel())

    # A pixel on the source side keeps its label and pays keep on p->t; on
    # the sink side it switches and pays switch on s->p.
    keep, switch = keep.ravel(), switch.ravel()
    both = np.minimum(keep, switch)
    g = LayoutGraph(
        reuse.layout, np.concatenate(cap), switch - both, keep - both,
        resume=reuse.states.get(alpha),
    )
    _, kept = max_flow(g)
    reuse.states[alpha] = g.state
    return np.where(kept.reshape(height, width), labels, alpha)


def occlusion_pass(
    labels: np.ndarray,
    c_gc: CostVolume,
    center: Image,
    p: GcParams,
    weights: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, int]:
    """Greedy raster-order pass switching pixels to OCCLUDED.

    A pixel flips when dropping its assignment strictly lowers the energy:
    K - c_gc(p, f_p) - sum of its current smoothness terms < 0.  Neighbors
    already flipped earlier in the scan are seen as OCCLUDED.  Returns the
    new labeling and the number of flips.

    A flip only drops terms >= 0 from its neighbors' sums, so a pixel that
    would not flip with all of its input neighbors still assigned never
    flips.  That test runs on every pixel at once, adding the terms in the
    scalar order (left, right, up, down) so its floats are the scan's; the
    raster scan then visits only the pixels that pass it.
    """
    labels, _, unary, s_h, s_v = _terms(labels, c_gc, center, p, weights)
    height, width = labels.shape
    out = labels.copy()
    all_smooth = np.zeros((height, width))
    all_smooth[:, 1:] += s_h
    all_smooth[:, :-1] += s_h
    all_smooth[1:, :] += s_v
    all_smooth[:-1, :] += s_v
    rest = np.where(labels != OCCLUDED, p.k_occlusion - unary, np.inf)  # K - c_gc(p, f_p)
    flips = 0
    for y, x in zip(*np.nonzero(rest - all_smooth < -_IMPROVE_EPS)):
        # a pair term with a neighbor not yet flipped is the input's
        smooth = 0.0
        if x > 0 and out[y, x - 1] != OCCLUDED:
            smooth += s_h[y, x - 1]
        if x + 1 < width and out[y, x + 1] != OCCLUDED:
            smooth += s_h[y, x]
        if y > 0 and out[y - 1, x] != OCCLUDED:
            smooth += s_v[y - 1, x]
        if y + 1 < height and out[y + 1, x] != OCCLUDED:
            smooth += s_v[y, x]
        if rest[y, x] - smooth < -_IMPROVE_EPS:
            out[y, x] = OCCLUDED
            flips += 1
    return out, flips


def upscale_image(img: Image, factor: int) -> Image:
    """Bilinear upscale by an integer factor; out[i*f, j*f] == in[i, j].

    Factor 1 takes the same formula with zero weights, so it returns a copy
    of the pixels except that a -0.0 pixel comes out +0.0 (no PGM, PPM luma
    or synthesized image holds one).
    """
    a = img.pixels.astype(np.float64)
    height, width = a.shape
    ys = np.arange(height * factor) / factor
    xs = np.arange(width * factor) / factor
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, height - 1)
    x1 = np.minimum(x0 + 1, width - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    rows = a[:, x0] * (1 - wx) + a[:, x1] * wx
    return Image((rows[y0] * (1 - wy) + rows[y1] * wy).astype(np.float32))


def _recheck_weights(
    mset: MultiscopicSet, labels: np.ndarray, p: GcParams
) -> tuple[np.ndarray, np.ndarray]:
    """Full multi-view weight rule: compare corresponding pixels in every
    view at the current labels; lambda1 only when all views look similar."""
    height, width = labels.shape

    def sampled(img: Image, direction: Direction | None) -> tuple[np.ndarray, np.ndarray]:
        if direction is None:
            return img.pixels.astype(np.float64), np.ones_like(labels, dtype=bool)
        yy, xx = np.mgrid[0:height, 0:width]
        d = np.where(labels == OCCLUDED, 0, labels)
        unit_x, unit_y = direction.offset(1)
        ox, oy = d * unit_x, d * unit_y
        sy, sx = yy + oy, xx + ox
        ok = (labels != OCCLUDED) & (sy >= 0) & (sy < height) & (sx >= 0) & (sx < width)
        vals = img.pixels[np.clip(sy, 0, height - 1), np.clip(sx, 0, width - 1)]
        return vals.astype(np.float64), ok

    views = [sampled(mset.center, None)]
    views += [sampled(img, direction) for direction, img in mset.surround]

    def weight(sl_a, sl_b):
        maxdiff = np.zeros(labels[sl_a].shape, dtype=np.float64)
        for vals, ok in views:
            both = ok[sl_a] & ok[sl_b]
            maxdiff = np.maximum(maxdiff, np.where(both, np.abs(vals[sl_a] - vals[sl_b]), 0.0))
        return np.where(maxdiff < p.theta, p.lambda1, p.lambda2).astype(np.float64)

    w_h = weight(np.s_[:, :-1], np.s_[:, 1:])
    w_v = weight(np.s_[:-1, :], np.s_[1:, :])
    return w_h, w_v


def multiscopic_gc(
    mset: MultiscopicSet,
    p: GcParams | None = None,
    matcher: str = "bt",
    bm: BlockMatchParams | None = None,
    energy_trace: list | None = None,
) -> DisparityMap:
    """Full pipeline: upscale, BT volumes, heuristic fusion, WTA init, then
    alpha-expansion sweeps with greedy occlusion passes until convergence.

    The returned map is at the input resolution (disparities divided by the
    upscale factor); OCCLUDED pixels come out invalid.  A move is kept only
    if the recomputed energy strictly drops, so the energy trace (initial
    energy, then one entry after every move and occlusion pass) is
    non-increasing.  A move that switches no pixel is rejected without
    computing its energy, which is the current one.

    A move is a deterministic function of the labels and the pair weights,
    so an alpha whose move was rejected is not solved again until an
    accepted move, an occlusion pass with flips or a weight recheck has
    changed one of them; its trace entry is still written.

    The moves share one MoveReuse, so each solve of an alpha resumes from
    the flow and search trees of that alpha's previous solve.  After the
    first sweep a move changes few pixels, so little of its graph changes.
    """
    p = p or GcParams()
    bm = bm or BlockMatchParams()
    s = p.upscale
    up_center = upscale_image(mset.center, s)
    up_set = MultiscopicSet(
        up_center,
        [(direction, upscale_image(img, s)) for direction, img in mset.surround],
    )
    bm_up = BlockMatchParams(rho=bm.rho, d_min=bm.d_min * s, d_max=bm.d_max * s)
    h, w = up_center.pixels.shape
    check_size(f"d_max {bm.d_max}: the cost volume upscaled x{s}", (bm_up.num_disparities, h, w),
               np.float32)
    # each energy and move capacity sums data costs and at most the worst
    # labeling's smoothness energy, so that must be a finite float64
    v_max = min(p.d_cutoff, bm_up.d_max - bm_up.d_min)
    if not math.isfinite(p.lambda1 * v_max * (2 * h * w - h - w)):
        raise InputError(
            f"lambda1 {p.lambda1}, lambda2 {p.lambda2}: the smoothness energy of a labeling "
            f"of the {h}x{w} upscaled grid can pass the float64 range"
        )
    # the per-view volumes are dead once fused: hold no name for them
    c_gc = fuse(multiscopic_volumes(up_set, matcher, bm_up), FusionStrategy.HEURISTIC)

    init = wta_disparity(c_gc, subpixel=False)
    init_vals = np.where(init.valid_mask, init.values, 0)
    labels = np.where(init.valid_mask, np.rint(init_vals), OCCLUDED).astype(np.int64)

    weights = pair_weights(up_center, p)
    energy = gc_energy(labels, c_gc, up_center, p, weights)
    if energy_trace is not None:
        energy_trace.append(energy)

    rng = np.random.default_rng(p.rng_seed)
    all_alphas = np.arange(bm_up.d_min, bm_up.d_max + 1)
    version = 0  # bumped whenever labels or weights change
    rejected_at: dict[int, int] = {}  # alpha -> version its move was rejected at
    reuse = MoveReuse(*labels.shape)
    for _ in range(p.max_sweeps):
        changed = False
        for alpha in rng.permutation(all_alphas).tolist():
            if rejected_at.get(alpha) != version:
                cand = expansion_move(labels, alpha, c_gc, up_center, p, weights, reuse)
                # energy is gc_energy(labels, weights): a move that switches
                # no pixel cannot lower it
                cand_energy = (energy if np.array_equal(cand, labels)
                               else gc_energy(cand, c_gc, up_center, p, weights))
                if cand_energy < energy - _IMPROVE_EPS:
                    labels = cand
                    energy = cand_energy
                    changed = True
                    version += 1
                else:
                    rejected_at[alpha] = version
            if energy_trace is not None:
                energy_trace.append(energy)
        labels, flips = occlusion_pass(labels, c_gc, up_center, p, weights)
        if flips:
            changed = True
            version += 1
            energy = gc_energy(labels, c_gc, up_center, p, weights)
        if energy_trace is not None:
            energy_trace.append(energy)
        if p.recheck_smoothness_weights:
            rechecked = _recheck_weights(up_set, labels, p)
            if not all(map(np.array_equal, rechecked, weights)):
                weights = rechecked
                version += 1
                energy = gc_energy(labels, c_gc, up_center, p, weights)
        if not changed:
            break

    coarse = labels[::s, ::s]
    disp = np.where(
        coarse == OCCLUDED, INVALID_DISPARITY, coarse.astype(np.float32) / np.float32(s)
    ).astype(np.float32)
    return DisparityMap(disp)
