"""Minimal 3-D network primitives on (C, D, H, W) arrays.

Each op comes as a forward function returning (output, cache) and a matching
backward taking (grad_out, cache).  No autodiff: net.py wires these by hand,
and records the caches only for its backward, which pops them in reverse.
All ops preserve the dtype of their inputs, except that softmax_neg_forward
returns float64 probabilities (see there); reductions that feed scalar
losses happen in float64 at the call site.

The convolution works on flat shifts: the zero-padded input is split into
stride^3 phase grids (one for stride 1) flattened on one common layout, so
every kernel offset is a (phase, flat offset) pair and the convolution is
one small GEMM per offset on a strided view, with no column matrix.

The flat run is walked in column blocks of about _BLOCK_BYTES of input (in
the backward, of the wider of input and output), and all k^3 offsets of one
block run before the next block starts.  So each offset's GEMM reads a
block that the previous offsets left in cache, where an unblocked run streams
the whole run from memory k^3 times.  The block width follows from the byte
budget and the channel count, never from a fixed column count.

Results are rounding-level, not bit-for-bit, equal to an unblocked run: BLAS
picks other kernels for other GEMM widths (at FusionNet shapes the 1-row
float32 head and the 16-channel float64 dec forward differ in the last bits;
the other forwards are equal), dW sums its blocks in turn, and dx adds an
input cell's taps in block order (relative differences ~1e-7 in float32,
~1e-15 in float64).  Reruns on the same input give the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

# Bytes of one column block.  Measured on FusionNet layer shapes on a 2-core
# Xeon with 2 MiB of L2 per core: 64 KiB gained nothing (per-call overhead),
# 256 KiB left the 16-channel float64 layer slower than no blocking, and
# 512 KiB or more lost most of the float32 gain.
_BLOCK_BYTES = 384 * 1024
_MIN_BLOCK_COLS = 256


def _phase_layout(shape, k: int, stride: int):
    """Geometry shared by conv3d_forward and conv3d_backward, whose input is
    zero-padded by k // 2 on every side.

    Returns the output size (d_out, h_out, w_out), the phase grid size
    (dq, hq, wq), the length of the flat output run (first to last output
    cell) and, per kernel offset in (dz, dy, dx) order, its phase index and
    flat offset into a flattened phase grid.
    """
    _, d, h, wd = shape
    s, pad = stride, k // 2
    d_out, h_out, w_out = ((n + 2 * pad - k) // s + 1 for n in (d, h, wd))
    dq, hq, wq = (-(-(n + 2 * pad) // s) for n in (d, h, wd))
    span = ((d_out - 1) * hq + h_out - 1) * wq + w_out
    taps = [
        ((dz % s * s + dy % s) * s + dx % s, (dz // s * hq + dy // s) * wq + dx // s)
        for dz in range(k)
        for dy in range(k)
        for dx in range(k)
    ]
    return (d_out, h_out, w_out), (dq, hq, wq), span, taps


def _blocks(span: int, channels: int, dtype) -> list[tuple[int, int]]:
    """Column ranges (c0, c1) covering [0, span), each about _BLOCK_BYTES of
    `channels` rows of `dtype`, and at least _MIN_BLOCK_COLS wide."""
    width = max(_MIN_BLOCK_COLS, _BLOCK_BYTES // (channels * np.dtype(dtype).itemsize))
    return [(c0, min(c0 + width, span)) for c0 in range(0, span, width)]


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.  np.matmul runs an inner dimension of 1 (an outer product) in a
    plain C loop several times slower than BLAS; the broadcast product is
    the same result there."""
    return a * b if a.shape[1] == 1 else a @ b


def conv3d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int = 1):
    """3-D convolution, kernel (C_out, C_in, k, k, k), zero padding k // 2,
    plus the bias b (C_out,) unless b is None.

    The padded input is split into stride^3 phases, phase (pz, py, px)
    holding the samples at (stride*i + pz, stride*j + py, stride*l + px);
    each phase is flattened on the same (dq, hq, wq) grid.  Output cell
    (i, j, l) sits at flat index (i*hq + j)*wq + l, and kernel offset
    (dz, dy, dx) reads its phase at that index plus one fixed flat offset.
    So the output is the sum of k^3 GEMMs W_o @ phase[:, off_o : off_o + span],
    accumulated in one flat run whose wrap-around columns are cropped at the
    end.  The run is cut into column blocks [c0, c1) sized from C_in (see the
    module docstring); each block takes all k^3 GEMMs
    W_o @ phase[:, off_o + c0 : off_o + c1] before the next one starts.  The
    cache keeps the phases (about the size of the padded input) for the
    backward; its entry 1 is `w` itself.
    """
    c_in, d, h, wd = x.shape
    c_out, c_in2, k, k2, k3 = w.shape
    if c_in != c_in2 or not (k == k2 == k3):
        raise InputError(f"kernel {w.shape} does not fit input {x.shape}")
    (d_out, h_out, w_out), (dq, hq, wq), span, taps = _phase_layout(x.shape, k, stride)
    s, pad = stride, k // 2
    xq = np.zeros((c_in, s * dq, s * hq, s * wq), dtype=x.dtype)
    xq[:, pad : pad + d, pad : pad + h, pad : pad + wd] = x
    phases = (
        xq.reshape(c_in, dq, s, hq, s, wq, s)
        .transpose(2, 4, 6, 0, 1, 3, 5)
        .reshape(s**3, c_in, dq * hq * wq)
    )
    w_taps = w.transpose(2, 3, 4, 0, 1).reshape(k**3, c_out, c_in)
    acc = np.zeros((c_out, d_out * hq * wq), dtype=np.result_type(x, w))
    for c0, c1 in _blocks(span, c_in, acc.dtype):
        block = acc[:, c0:c1]
        for w_o, (p, off) in zip(w_taps, taps):
            block += _gemm(w_o, phases[p, :, off + c0 : off + c1])
    out = acc.reshape(c_out, d_out, hq, wq)[:, :, :h_out, :w_out]
    if b is not None:
        out = out + b[:, None, None, None]
    cache = (x.shape, w, stride, phases, b is not None)
    return out, cache


def conv3d_backward(grad_out: np.ndarray, cache):
    """Returns (dx, dw, db) for conv3d_forward, in grad_out's dtype; db is
    None when the forward had no bias.

    The mirror of the forward on the same flat layout: grad_out is spread
    onto the output run (zeros in the cropped columns), then per column
    block g[:, c0:c1] (sized from max(C_in, C_out)) and kernel offset
    dW_o += g_blk @ view_o.T and dphase[view_o] += W_o.T @ g_blk, where
    view_o = phase[:, off_o + c0 : off_o + c1].
    """
    x_shape, w, stride, phases, has_bias = cache
    c_in, d, h, wd = x_shape
    c_out, _, k = w.shape[:3]
    (d_out, h_out, w_out), (dq, hq, wq), span, taps = _phase_layout(x_shape, k, stride)
    s, pad = stride, k // 2
    g_flat = np.zeros((c_out, d_out * hq * wq), dtype=grad_out.dtype)
    g_flat.reshape(c_out, d_out, hq, wq)[:, :, :h_out, :w_out] = grad_out
    db = grad_out.reshape(c_out, -1).sum(axis=1) if has_bias else None

    w_taps = w.transpose(2, 3, 4, 0, 1).reshape(k**3, c_out, c_in)
    dw_taps = np.zeros(w_taps.shape, dtype=grad_out.dtype)
    dphases = np.zeros(phases.shape, dtype=grad_out.dtype)
    for c0, c1 in _blocks(span, max(c_in, c_out), g_flat.dtype):
        g = g_flat[:, c0:c1]
        for o, (p, off) in enumerate(taps):
            dw_taps[o] += _gemm(g, phases[p, :, off + c0 : off + c1].T)
            dphases[p, :, off + c0 : off + c1] += _gemm(w_taps[o].T, g)
    dw = dw_taps.reshape(k, k, k, c_out, c_in).transpose(3, 4, 0, 1, 2).copy()

    dxq = (
        dphases.reshape(s, s, s, c_in, dq, hq, wq)
        .transpose(3, 4, 0, 5, 1, 6, 2)
        .reshape(c_in, s * dq, s * hq, s * wq)
    )
    dx = dxq[:, pad : pad + d, pad : pad + h, pad : pad + wd]
    return dx, dw, db


def relu_forward(x: np.ndarray):
    out = np.maximum(x, 0)
    return out, (x > 0)


def relu_backward(grad_out: np.ndarray, cache):
    return grad_out * cache


def upsample_nearest_forward(x: np.ndarray, target_shape: tuple[int, int, int]):
    """Nearest-neighbor x2 upsampling to an exact target (D, H, W).

    out[c, i, j, l] = x[c, i//2, j//2, l//2]; the target may be one short of
    2x the input on odd axes (the U-Net skip connection fixes the shape).
    """
    td, th, tw = target_shape
    sd, sh, sw = x.shape[1:]
    if not (sd <= td <= 2 * sd and sh <= th <= 2 * sh and sw <= tw <= 2 * sw):
        raise InputError(f"cannot upsample {x.shape[1:]} to {target_shape}")
    iz = np.arange(td) // 2
    iy = np.arange(th) // 2
    ix = np.arange(tw) // 2
    out = x[:, iz[:, None, None], iy[None, :, None], ix[None, None, :]]
    return out, x.shape


def upsample_nearest_backward(grad_out: np.ndarray, cache):
    c, sd, sh, sw = cache
    td, th, tw = grad_out.shape[1:]
    g = np.zeros((c, 2 * sd, 2 * sh, 2 * sw), dtype=grad_out.dtype)
    g[:, :td, :th, :tw] = grad_out
    return g.reshape(c, sd, 2, sh, 2, sw, 2).sum(axis=(2, 4, 6))


def concat_forward(xs: list[np.ndarray]):
    out = np.concatenate(xs, axis=0)
    return out, [x.shape[0] for x in xs]


def concat_backward(grad_out: np.ndarray, cache):
    splits = np.cumsum(cache)[:-1]
    return np.split(grad_out, splits, axis=0)


def softmax_neg_forward(scores: np.ndarray):
    """Softmax of -scores along axis 0 (low score -> high probability).

    Computed in float64: float32 exp underflows to an exact zero once score
    gaps pass ~104, which kills the gradient and freezes training when the
    distribution sharpens.
    """
    z = -scores.astype(np.float64)
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=0, keepdims=True)
    return p, p


def softmax_neg_backward(grad_p: np.ndarray, cache):
    p = cache
    g = grad_p.astype(np.float64)
    inner = (g * p).sum(axis=0, keepdims=True)
    # d/dscores = -dsoftmax: scores enter negated.
    return (-(p * (g - inner))).astype(grad_p.dtype)
