"""Independent brute-force oracles used by the unit and acceptance tests.

These are deliberately naive re-derivations (scalar loops, exhaustive
enumeration, finite differences); they share no code with the package.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

LARGE = np.float32(1e9)

_OFFSETS = {
    "left": lambda d: (d, 0),
    "right": lambda d: (-d, 0),
    "top": lambda d: (0, d),
    "bottom": lambda d: (0, -d),
}


def sad_oracle(ref, tgt, direction_name, rho, d_min, d_max, exact_f32=False):
    """Triple loop over (u, v, d) with row-major block accumulation.

    With exact_f32 the running sum is kept in np.float32 (bit-for-bit the
    production accumulation order); otherwise Python floats are used, which
    are exact whenever the images are integer-valued.
    """
    ref = np.asarray(ref, dtype=np.float32)
    tgt = np.asarray(tgt, dtype=np.float32)
    h, w = ref.shape
    offset = _OFFSETS[direction_name]
    out = np.empty((d_max - d_min + 1, h, w), dtype=np.float32)
    for d in range(d_min, d_max + 1):
        ox, oy = offset(d)
        for v in range(h):
            for u in range(w):
                if not (0 <= u + ox < w and 0 <= v + oy < h):
                    out[d - d_min, v, u] = LARGE
                    continue
                acc = np.float32(0.0) if exact_f32 else 0.0
                for dy in range(-rho, rho + 1):
                    ry = min(max(v + dy, 0), h - 1)
                    ty = min(max(v + dy + oy, 0), h - 1)
                    for dx in range(-rho, rho + 1):
                        rx = min(max(u + dx, 0), w - 1)
                        tx = min(max(u + dx + ox, 0), w - 1)
                        if exact_f32:
                            acc = acc + np.abs(ref[ry, rx] - tgt[ty, tx])
                        else:
                            acc += abs(float(ref[ry, rx]) - float(tgt[ty, tx]))
                out[d - d_min, v, u] = acc
    return out


def bt_oracle(ref, tgt, direction_name, d_min, d_max):
    """Scalar Birchfield-Tomasi dissimilarity against the target image."""
    ref = np.asarray(ref, dtype=np.float32)
    tgt = np.asarray(tgt, dtype=np.float32)
    h, w = ref.shape
    offset = _OFFSETS[direction_name]
    sigma = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
    out = np.empty((d_max - d_min + 1, h, w), dtype=np.float32)
    for d in range(d_min, d_max + 1):
        ox, oy = offset(d)
        for v in range(h):
            for u in range(w):
                qx, qy = u + ox, v + oy
                if not (0 <= qx < w and 0 <= qy < h):
                    out[d - d_min, v, u] = LARGE
                    continue
                cands = []
                for sx, sy in sigma:
                    nx = min(max(qx + sx, 0), w - 1)
                    ny = min(max(qy + sy, 0), h - 1)
                    cands.append(
                        np.float32(0.5) * (tgt[qy, qx] + tgt[ny, nx])
                    )
                lo, hi = min(cands), max(cands)
                r = ref[v, u]
                out[d - d_min, v, u] = max(np.float32(0.0), r - hi, lo - r)
    return out


def min_cut_oracle(num_nodes, arcs, source, sink):
    """Exhaustive enumeration of all s-t partitions; returns min cut value.

    arcs: list of (u, v, cap) directed arcs.  Only feasible for small node
    counts (2^(n-2) partitions).
    """
    others = [u for u in range(num_nodes) if u not in (source, sink)]
    best = float("inf")
    for bits in itertools.product((0, 1), repeat=len(others)):
        side = {source: 0, sink: 1}
        side.update({u: b for u, b in zip(others, bits)})
        cut = sum(cap for u, v, cap in arcs if side[u] == 0 and side[v] == 1)
        best = min(best, cut)
    return best


def edmonds_karp_oracle(num_nodes, arcs, source, sink):
    """Edmonds-Karp on a dense residual matrix; returns (flow, source side).

    arcs: list of (u, v, cap, rev_cap) arcs; parallel arcs add up.  Each
    round augments one shortest path found by BFS.  The source side is the
    set of nodes reachable from the source in the final residual graph, the
    unique minimal source set of a minimum cut.  Exact for capacities whose
    sums are exact in float (e.g. small integers).
    """
    n = num_nodes
    res = [[0.0] * n for _ in range(n)]
    for u, v, cap, rev_cap in arcs:
        res[u][v] += cap
        res[v][u] += rev_cap
    flow = 0.0
    while True:
        prev = [-1] * n
        prev[source] = source
        queue = deque([source])
        while queue and prev[sink] < 0:
            u = queue.popleft()
            for v in range(n):
                if prev[v] < 0 and res[u][v] > 0.0:
                    prev[v] = u
                    queue.append(v)
        if prev[sink] < 0:
            return flow, {v for v in range(n) if prev[v] >= 0}
        path = []
        v = sink
        while v != source:
            path.append((prev[v], v))
            v = prev[v]
        push = min(res[u][v] for u, v in path)
        for u, v in path:
            res[u][v] -= push
            res[v][u] += push
        flow += push


def expansion_oracle(labels, alpha, costs, d_min, k_occ, w_h, w_v, cutoff, occluded=-1):
    """Minimum energy over all 2^N keep/switch-to-alpha assignments.

    labels: (H, W) ints (occluded allowed); costs: (D, H, W).
    Returns the optimal energy value.
    """
    h, w = labels.shape
    pix = [(y, x) for y in range(h) for x in range(w)]
    best = float("inf")
    for bits in itertools.product((0, 1), repeat=len(pix)):
        lab = [[labels[y, x] for x in range(w)] for y in range(h)]
        for (y, x), bit in zip(pix, bits):
            if bit:
                lab[y][x] = alpha
        best = min(best, energy_oracle(lab, costs, d_min, k_occ, w_h, w_v, cutoff, occluded))
    return best


def energy_oracle(labels, costs, d_min, k_occ, w_h, w_v, cutoff, occluded=-1):
    """Labeling energy by scalar loops: each pixel's data cost (k_occ where
    occluded), then w * min(|a - b|, cutoff) for every horizontal and then
    every vertical pair of assigned pixels.

    labels: (H, W) ints, read as labels[y][x]; costs: (D, H, W).
    """
    h, w = len(labels), len(labels[0])
    e = 0.0
    for y in range(h):
        for x in range(w):
            f = labels[y][x]
            e += k_occ if f == occluded else float(costs[f - d_min, y, x])
    for y in range(h):
        for x in range(w - 1):
            a, b = labels[y][x], labels[y][x + 1]
            if a != occluded and b != occluded:
                e += w_h[y, x] * min(abs(a - b), cutoff)
    for y in range(h - 1):
        for x in range(w):
            a, b = labels[y][x], labels[y + 1][x]
            if a != occluded and b != occluded:
                e += w_v[y, x] * min(abs(a - b), cutoff)
    return e


def pair_weights_oracle(center, theta, lambda1, lambda2):
    """(w_h, w_v): lambda1 for a 4-neighbor pair whose center intensities
    differ by less than theta, else lambda2; w_h[y, x] weights the pair
    (x, y)-(x+1, y) and w_v[y, x] the pair (x, y)-(x, y+1)."""
    h, w = center.shape
    w_h, w_v = np.empty((h, w - 1)), np.empty((h - 1, w))
    for y in range(h):
        for x in range(w):
            if x + 1 < w:
                near = abs(float(center[y, x]) - float(center[y, x + 1])) < theta
                w_h[y, x] = lambda1 if near else lambda2
            if y + 1 < h:
                near = abs(float(center[y, x]) - float(center[y + 1, x])) < theta
                w_v[y, x] = lambda1 if near else lambda2
    return w_h, w_v


def conv3d_oracle(x, w, b, stride=1, pad=1):
    """Scalar-loop 3-D convolution for tiny shapes."""
    c_in, d, h, wd = x.shape
    c_out, _, k, _, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    d_out = (d + 2 * pad - k) // stride + 1
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, d_out, h_out, w_out), dtype=np.float64)
    for co in range(c_out):
        for z in range(d_out):
            for y in range(h_out):
                for xx in range(w_out):
                    acc = 0.0
                    for ci in range(c_in):
                        for dz in range(k):
                            for dy in range(k):
                                for dx in range(k):
                                    acc += float(
                                        xp[ci, z * stride + dz, y * stride + dy, xx * stride + dx]
                                    ) * float(w[co, ci, dz, dy, dx])
                    out[co, z, y, xx] = acc + float(b[co])
    return out


def conv3d_reference(x, w, b, stride=1, pad=1):
    """Vectorised 3-D convolution in float64 for shapes too large for the
    scalar loop: every k^3 window of the zero-padded input, taken with
    sliding_window_view at the stride, contracted with the kernel."""
    k = w.shape[2]
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0),) + ((pad, pad),) * 3)
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    win = win[:, ::stride, ::stride, ::stride]
    out = np.einsum("czyxijl,ocijl->ozyx", win, np.asarray(w, dtype=np.float64), optimize=True)
    return out + np.asarray(b, dtype=np.float64)[:, None, None, None]


def heuristic_oracle(costs, factor=3.0):
    """Scalar fusion rule for one cell."""
    n = len(costs)
    if n == 1:
        return float(costs[0])
    srt = sorted(float(c) for c in costs)
    if n == 2:
        return srt[0]
    c1, c2, c3 = srt[0], srt[1], srt[2]
    if c3 > factor * c2:
        return (c1 + c2) / 2.0
    return (c1 + c2 + c3) / 3.0


def wta_reference(costs, d_min, subpixel=True):
    """Whole-volume WTA on (D, H, W) float32 costs: np.argmin over the
    disparity axis (first minimum, a NaN counts as the minimum), the winner
    and its neighbours gathered with take_along_axis, then the parabola
    vertex where the winner is interior, the denominator is positive and
    neither neighbour is a sentinel.  Pixels whose winner is a sentinel
    come out +inf.  Returns the float32 (H, W) disparities.
    """
    costs = np.asarray(costs, dtype=np.float32)
    depth = costs.shape[0]
    k_star = np.argmin(costs, axis=0)
    k_idx = k_star[None, ...]
    c0 = np.take_along_axis(costs, k_idx, axis=0)[0]
    invalid = c0 >= LARGE

    disp = (d_min + k_star).astype(np.float64)
    if subpixel and depth >= 3:
        lo = np.take_along_axis(costs, np.maximum(k_idx - 1, 0), axis=0)[0]
        hi = np.take_along_axis(costs, np.minimum(k_idx + 1, depth - 1), axis=0)[0]
        c_lo = lo.astype(np.float64)
        c_hi = hi.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = 2.0 * c_lo + 2.0 * c_hi - 4.0 * c0.astype(np.float64)
            offset = (c_lo - c_hi) / denom
        ok = (k_star > 0) & (k_star < depth - 1) & (denom > 0) & (lo < LARGE) & (hi < LARGE)
        disp = np.where(ok, disp + offset, disp)

    disp = disp.astype(np.float32)
    disp[invalid] = np.float32(np.inf)
    return disp


def occlusion_oracle(labels, costs, d_min, k_occ, w_h, w_v, cutoff, eps, occluded=-1):
    """Greedy raster scan over every pixel, flipping to occluded whenever
    k_occ - cost - (smoothness to the current assigned neighbors) < -eps.

    Neighbors flipped earlier in the scan count as occluded.  The terms are
    added left, right, up, down.  Returns (new labels, number of flips).
    """
    out = np.array(labels, dtype=np.int64)
    h, w = out.shape
    flips = 0
    for y in range(h):
        for x in range(w):
            f = out[y, x]
            if f == occluded:
                continue
            smooth = 0.0
            for (ny, nx), wt in (
                ((y, x - 1), w_h[y, x - 1] if x > 0 else None),
                ((y, x + 1), w_h[y, x] if x + 1 < w else None),
                ((y - 1, x), w_v[y - 1, x] if y > 0 else None),
                ((y + 1, x), w_v[y, x] if y + 1 < h else None),
            ):
                if wt is not None and out[ny, nx] != occluded:
                    smooth += wt * min(abs(f - out[ny, nx]), cutoff)
            if k_occ - float(costs[f - d_min, y, x]) - smooth < -eps:
                out[y, x] = occluded
                flips += 1
    return out, flips


def value_noise_reference(rng, height, width, base_cell, octaves):
    """The 2-D bilinear value-noise formula: per octave, gather the four
    lattice corners of every pixel and blend them in float64."""
    out = np.zeros((height, width), dtype=np.float64)
    amp = 1.0
    total = 0.0
    for o in range(octaves):
        cell = max(base_cell >> o, 1)
        ny = height // cell + 2
        nx = width // cell + 2
        lattice = rng.random((ny, nx))
        ys = np.arange(height) / cell
        xs = np.arange(width) / cell
        y0 = ys.astype(int)
        x0 = xs.astype(int)
        fy = (ys - y0)[:, None]
        fx = (xs - x0)[None, :]
        a = lattice[y0][:, x0]
        b = lattice[y0][:, x0 + 1]
        c = lattice[y0 + 1][:, x0]
        d = lattice[y0 + 1][:, x0 + 1]
        out += amp * ((a * (1 - fx) + b * fx) * (1 - fy) + (c * (1 - fx) + d * fx) * fy)
        total += amp
        amp *= 0.5
    return out / total
