"""Per-view matching cost volumes (SAD block matching and BT dissimilarity).

A cost volume stores float32 costs indexed (d, v, u); slice k corresponds
to disparity d_min + k.  Cells whose disparity-shifted sample falls outside
the target image hold the LARGE_COST sentinel and are excluded from WTA.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import FormatError, InputError
from .imagery import Direction, Image, MultiscopicSet

LARGE_COST = np.float32(1e9)

# Half-sample interpolation offsets: the pixel itself plus its 4 neighbors.
BT_NEIGHBORHOOD = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))

_MAGIC = b"MCV1"
_HEADER = struct.Struct("<4siiii")


@dataclass
class BlockMatchParams:
    """Block radius and inclusive disparity search range."""

    rho: int = 2
    d_min: int = 1
    d_max: int = 60

    def __post_init__(self):
        if self.rho < 0:
            raise InputError(f"rho must be >= 0, got {self.rho}")
        if not 0 <= self.d_min <= self.d_max:
            raise InputError(f"need 0 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")

    @property
    def num_disparities(self) -> int:
        return self.d_max - self.d_min + 1


@dataclass(eq=False)
class CostVolume:
    """float32 costs of shape (D, H, W); slice k holds disparity d_min + k."""

    costs: np.ndarray
    d_min: int
    d_max: int

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float32)
        if self.costs.ndim != 3:
            raise InputError(f"costs must be (D, H, W), got shape {self.costs.shape}")
        if not 0 <= self.d_min <= self.d_max:
            raise InputError(f"need 0 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if self.costs.shape[0] != self.d_max - self.d_min + 1:
            raise InputError(
                f"{self.costs.shape[0]} slices for range [{self.d_min}, {self.d_max}]"
            )

    @property
    def num_disparities(self) -> int:
        return self.costs.shape[0]

    @property
    def height(self) -> int:
        return self.costs.shape[1]

    @property
    def width(self) -> int:
        return self.costs.shape[2]


def check_volumes(volumes: list[CostVolume], caller: str):
    """Raise InputError unless there is a volume and all volumes share one
    shape and disparity range; caller names the step in the message."""
    if not volumes:
        raise InputError(f"{caller} needs at least one volume")
    first = volumes[0]
    for v in volumes[1:]:
        if v.costs.shape != first.costs.shape or (v.d_min, v.d_max) != (first.d_min, first.d_max):
            raise InputError("volumes differ in shape or disparity range")


def _check_pair(ref: Image, target: Image):
    if ref.pixels.shape != target.pixels.shape:
        raise InputError(
            f"image sizes differ: {ref.pixels.shape} vs {target.pixels.shape}"
        )


def _inbounds_mask(height: int, width: int, ox: int, oy: int) -> np.ndarray:
    """True where (x + ox, y + oy) stays inside the image."""
    ys = np.arange(height) + oy
    xs = np.arange(width) + ox
    row_ok = (ys >= 0) & (ys < height)
    col_ok = (xs >= 0) & (xs < width)
    return row_ok[:, None] & col_ok[None, :]


def sad_cost_volume(
    ref: Image, target: Image, direction: Direction, p: BlockMatchParams
) -> CostVolume:
    """Sum of absolute differences over a (2*rho+1)^2 block.

    Block coordinates clamp at image borders.  The reference is clamped and
    padded by rho on every side once; each disparity then builds one
    absolute-difference plane against the equally padded, shifted target,
    and sums the (2*rho+1)^2 shifted windows of that plane.  Every cell
    accumulates the same terms in row-major block order (dy outer, dx inner)
    in float32, so a scalar oracle with the same order reproduces the result
    bit for bit.
    """
    _check_pair(ref, target)
    a = ref.pixels
    b = target.pixels
    height, width = a.shape
    r = p.rho
    pw = width + 2 * r
    ys = np.arange(-r, height + r)
    xs = np.arange(-r, width + r)
    a_pad = a[np.clip(ys, 0, height - 1)][:, np.clip(xs, 0, width - 1)]
    out = np.empty((p.num_disparities, height, width), dtype=np.float32)

    for k in range(p.num_disparities):
        d = p.d_min + k
        ox, oy = direction.offset(d)
        b_pad = b[np.clip(ys + oy, 0, height - 1)][:, np.clip(xs + ox, 0, width - 1)]
        diff = np.abs(a_pad - b_pad).ravel()
        # Each window is one flat run of the padded plane: cell (v, u) sits at
        # v*pw + u and its (dy, dx) term at (v+dy)*pw + u+dx.  The run's
        # padding columns (u >= width) are summed too and dropped below.
        acc = np.zeros(height * pw, dtype=np.float32)
        run = acc[: height * pw - 2 * r]
        for dy in range(2 * r + 1):
            for dx in range(2 * r + 1):
                start = dy * pw + dx
                run += diff[start : start + run.size]
        sums = acc.reshape(height, pw)[:, :width]
        out[k] = np.where(_inbounds_mask(height, width, ox, oy), sums, LARGE_COST)
    return CostVolume(out, p.d_min, p.d_max)


def bt_cost_volume(
    ref: Image, target: Image, direction: Direction, p: BlockMatchParams
) -> CostVolume:
    """Sampling-insensitive pixel dissimilarity against the target image.

    Around each target sample q the half-sample candidates 0.5*(I(q)+I(q+s))
    for s in BT_NEIGHBORHOOD span an interval [I_min, I_max] (offsets clamp
    at borders); the cost is max{0, ref - I_max, I_min - ref}, zero whenever
    the reference intensity lies inside the interval.  One-sided: only the
    target is interpolated.  The block radius is not used.
    """
    _check_pair(ref, target)
    a = ref.pixels
    b = target.pixels
    height, width = a.shape
    ys = np.arange(height)
    xs = np.arange(width)

    cand = np.empty((len(BT_NEIGHBORHOOD), height, width), dtype=np.float32)
    for i, (sx, sy) in enumerate(BT_NEIGHBORHOOD):
        shifted = b[np.clip(ys + sy, 0, height - 1)][:, np.clip(xs + sx, 0, width - 1)]
        cand[i] = np.float32(0.5) * (b + shifted)
    lo = cand.min(axis=0)
    hi = cand.max(axis=0)

    out = np.empty((p.num_disparities, height, width), dtype=np.float32)
    zero = np.float32(0.0)
    for k in range(p.num_disparities):
        d = p.d_min + k
        ox, oy = direction.offset(d)
        rows = np.clip(ys + oy, 0, height - 1)
        cols = np.clip(xs + ox, 0, width - 1)
        lo_s = lo[rows][:, cols]
        hi_s = hi[rows][:, cols]
        cost = np.maximum(zero, np.maximum(a - hi_s, lo_s - a))
        out[k] = np.where(_inbounds_mask(height, width, ox, oy), cost, LARGE_COST)
    return CostVolume(out, p.d_min, p.d_max)


_MATCHERS = {"sad": sad_cost_volume, "bt": bt_cost_volume}


def multiscopic_volumes(
    mset: MultiscopicSet, matcher: str, p: BlockMatchParams
) -> list[CostVolume]:
    """One cost volume per surrounding view, in set order."""
    if matcher not in _MATCHERS:
        raise InputError(f"matcher must be one of {sorted(_MATCHERS)}, got {matcher!r}")
    fn = _MATCHERS[matcher]
    return [fn(mset.center, img, direction, p) for direction, img in mset.surround]


def _check_costs(costs: np.ndarray, path, error: type[Exception]) -> None:
    """The stored-cost contract: every cost is finite and >= 0.

    Matchers write only such costs (the LARGE_COST sentinel is finite), and
    fusion and WTA assume them.  min/max propagate NaN, so the check needs
    no temporary array.
    """
    if costs.size and not (costs.min() >= 0 and np.isfinite(costs.max())):
        raise error(f"{path}: costs must be finite and >= 0")


def save_volume(path: Union[str, Path], vol: CostVolume) -> None:
    """Write the little-endian MCV1 container."""
    _check_costs(vol.costs, path, InputError)
    header = _HEADER.pack(_MAGIC, vol.d_min, vol.d_max, vol.width, vol.height)
    Path(path).write_bytes(header + vol.costs.astype("<f4").tobytes())


def load_volume(path: Union[str, Path]) -> CostVolume:
    """Read an MCV1 container written by save_volume."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, d_min, d_max, width, height = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if d_min < 0 or d_max < d_min or width <= 0 or height <= 0:
        raise FormatError(f"{path}: inconsistent header fields")
    count = (d_max - d_min + 1) * height * width
    payload = data[_HEADER.size :]
    if len(payload) != 4 * count:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, expected {4 * count}")
    costs = np.frombuffer(payload, dtype="<f4").reshape(d_max - d_min + 1, height, width)
    _check_costs(costs, path, FormatError)
    return CostVolume(costs.astype(np.float32), d_min, d_max)
