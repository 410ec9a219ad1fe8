"""Per-view matching cost volumes (SAD block matching and BT dissimilarity).

A cost volume stores float32 costs indexed (d, v, u); slice k corresponds
to disparity d_min + k.  Cells whose disparity-shifted sample falls outside
the target image hold the LARGE_COST sentinel and are excluded from WTA.

Every cost is in [+0.0, +inf]: no NaN, no -0.0, nothing negative.  The
matchers write only such costs, and check_costs is the one test of that
contract: CostVolume runs it on its costs, fusion and the WTA on every
slice they read, and the .mcv reader and writer, which also require the
costs finite, on the file's costs.  On such floats equal costs have equal
bits and the uint32 order of the bits is the float order.

Each SAD cost equals the float32 sum of its block's absolute differences
added in row-major order.  On integer-valued images (every PGM input) with
(2*rho+1)^2 * 255 < 2^24 every block sum is an integer that float32 holds
exactly, so the block is summed in integers, separably, rows then columns,
in 4*rho adds per slice: uint16 for rho <= 7, uint32 up to rho 127.  Any
other input (PPM luma, upscaled `gc` images, float images, rho >= 128) is
summed in float32 in the row-major order itself, (2*rho+1)^2 adds per
slice.  Volumes hold float32; multiscopic_slices streams uint32 slices
when every view's SAD takes the exact path, whose costs are integers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Union

import numpy as np

from .errors import FormatError, InputError
from .imagery import Direction, Image, MultiscopicSet

LARGE_COST = np.float32(1e9)

# Half-sample interpolation offsets: the pixel itself plus its 4 neighbors.
BT_NEIGHBORHOOD = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))

# +inf's bits: a float32 is in [+0.0, +inf] exactly when its bits, read as
# a uint32, are at most this
_INF_BITS = 0x7F800000

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
        check_costs(self.costs, "cost volume")

    @property
    def num_disparities(self) -> int:
        return self.costs.shape[0]

    @property
    def height(self) -> int:
        return self.costs.shape[1]

    @property
    def width(self) -> int:
        return self.costs.shape[2]


def check_costs(
    costs: np.ndarray, where, error: type[Exception] = InputError, finite: bool = False
) -> None:
    """Raise error, naming where, unless every cost of the float32 array is
    in [+0.0, +inf], or with finite in [+0.0, +inf): one uint32 maximum of
    the bits, with no temporary array."""
    if costs.view(np.uint32).max(initial=0) > (_INF_BITS - 1 if finite else _INF_BITS):
        bound = "+inf)" if finite else "+inf]"
        raise error(f"{where}: costs must be in [+0.0, {bound}, with no NaN or -0.0")


def check_volumes(volumes: list[CostVolume], caller: str, names: list | None = None):
    """Raise InputError unless there is a volume and all volumes share one
    disparity range and shape; caller names the step in the message, and
    names (default: positions) name the volumes."""
    if not volumes:
        raise InputError(f"{caller} needs at least one volume")
    names = names or [f"{caller} volume {i}" for i in range(len(volumes))]
    first = volumes[0]
    for name, v in zip(names[1:], volumes[1:]):
        if (v.d_min, v.d_max) != (first.d_min, first.d_max):
            raise InputError(
                f"{name}: disparity range [{v.d_min}, {v.d_max}] differs from "
                f"{names[0]}'s [{first.d_min}, {first.d_max}]"
            )
        if v.costs.shape != first.costs.shape:
            raise InputError(
                f"{name}: shape (D, H, W) {v.costs.shape} differs from "
                f"{names[0]}'s {first.costs.shape}"
            )


def _check_pair(ref: Image, target: Image):
    if ref.pixels.shape != target.pixels.shape:
        raise InputError(
            f"image sizes differ: {ref.pixels.shape} vs {target.pixels.shape}"
        )


def _inbounds_window(height: int, width: int, ox: int, oy: int) -> tuple[slice, slice]:
    """Rows and columns where (x + ox, y + oy) stays inside the image; the
    slices are empty when the shift leaves the frame."""
    rows = slice(max(0, -oy), max(0, min(height, height - oy)))
    cols = slice(max(0, -ox), max(0, min(width, width - ox)))
    return rows, cols


def _fill_outside(out: np.ndarray, rows: slice, cols: slice) -> None:
    """Write LARGE_COST to every cell of out outside the rows x cols window."""
    out[: rows.start] = LARGE_COST
    out[rows.stop :] = LARGE_COST
    out[:, : cols.start] = LARGE_COST
    out[:, cols.stop :] = LARGE_COST


# A matcher set up for one view: write(k, out) stores the (H, W) costs of
# disparity d_min + k in out, every cell of it.  write.dtype is the type
# its costs are exact in: uint32 on SAD's exact path, whose costs are
# integers, float32 on SAD's row-major path and on BT.  out may be float32
# or write.dtype.
SliceWriter = Callable[[int, np.ndarray], None]


def _integer_pads(a_pad: np.ndarray, b_pad: np.ndarray, rho: int):
    """The padded images converted for the exact SAD path and the type of
    its block sums, or None where that path does not apply.

    The exact path needs both images integer-valued and every block sum,
    at most (2*rho+1)^2 * 255, below 2^24 so it converts to float32
    exactly.  The sum type is the narrowest unsigned type that holds that
    bound; the images go to the signed type as wide, which holds the
    differences of [0, 255] samples and their absolute values.
    """
    bound = (2 * rho + 1) ** 2 * 255
    if bound >= 2**24:
        return None
    signed, unsigned = (np.int16, np.uint16) if bound < 2**16 else (np.int32, np.uint32)
    a_int, b_int = a_pad.astype(signed), b_pad.astype(signed)
    if not (np.array_equal(a_int, a_pad) and np.array_equal(b_int, b_pad)):
        return None
    return a_int, b_int, unsigned


def sad_slices(ref: Image, target: Image, direction: Direction, p: BlockMatchParams) -> SliceWriter:
    """Sum of absolute differences over a (2*rho+1)^2 block, one disparity
    slice per call of the returned writer.

    Block coordinates clamp at image borders.  The reference is edge-padded
    by rho on every side once.  The target is edge-padded once too: by rho
    across the shift axis and by rho + min(d_max, span) along it, where span
    is the image extent on that axis, so the padding is bounded by the image
    and not by d_max.  Each disparity's shifted target is then a slice view
    of that copy; a shift of span or more leaves the frame and gives an
    all-LARGE_COST slice without reading the target.  Each disparity builds
    one absolute-difference plane and sums its (2*rho+1)^2 block.

    Every cell equals the float32 sum of its block in row-major order (dy
    outer, dx inner), so a scalar oracle with that order reproduces the
    result bit for bit.  The writer picks one of two summations, once:

    * Exact (both images integer-valued and (2*rho+1)^2 * 255 < 2^24, i.e.
      rho <= 127): every block sum is an integer below 2^24, which float32
      holds exactly, so integer arithmetic in any order gives the
      row-major bits.  The padded images are converted once to int16
      (rho <= 7, sums up to 57,375 < 2^16) or int32; each slice's
      differences and their absolute values are taken in that type and
      summed in its unsigned twin (uint16 or uint32) separably, along rows
      and then down columns: 4*rho adds per slice.  The final copy into
      a float32 or uint32 slice is exact, and the writer's dtype is uint32.
    * Otherwise (a non-integer intensity in either image, or rho >= 128):
      the (2*rho+1)^2 windows are added in float32 in row-major order, the
      one order whose rounding matches.
    """
    _check_pair(ref, target)
    a = ref.pixels
    height, width = a.shape
    r = p.rho
    pw = width + 2 * r
    step_x, step_y = direction.offset(1)
    reach = min(p.d_max, width if step_x else height)
    px, py = r + reach * abs(step_x), r + reach * abs(step_y)
    a_pad = np.pad(a, r, mode="edge")
    b_pad = np.pad(target.pixels, ((py, py), (px, px)), mode="edge")
    exact = _integer_pads(a_pad, b_pad, r)
    if exact:
        a_pad, b_pad, sum_type = exact
    diff = np.empty((height + 2 * r, pw), dtype=a_pad.dtype)
    # Cell (v, u) of a padded plane sits at v*pw + u of its flat run, so a
    # shift by (dy, dx) is the run started dy*pw + dx later.  A run's
    # padding columns (u >= width) are summed too and never read.
    if exact:
        flat = diff.view(sum_type).ravel()
        acc = np.empty((height + 2 * r) * pw, dtype=sum_type)
        row_run = acc[: (height + 2 * r - 1) * pw + width]
        col_run = flat[: (height - 1) * pw + width]
        sums = flat.reshape(diff.shape)[:height, :width]

        def block_sum() -> None:
            # acc[i] = sum over dx of flat[i + dx], for every cell the column
            # pass reads; then flat[i] = sum over dy of acc[i + dy*pw]
            src = flat
            for dx in range(1, 2 * r + 1):
                np.add(src[: row_run.size], flat[dx : dx + row_run.size], out=row_run)
                src = row_run
            src = row_run
            for dy in range(1, 2 * r + 1):
                start = dy * pw
                np.add(src[: col_run.size], row_run[start : start + col_run.size], out=col_run)
                src = col_run

    else:
        flat = diff.ravel()
        acc = np.empty(height * pw, dtype=np.float32)
        run = acc[: height * pw - 2 * r]
        sums = acc.reshape(height, pw)[:, :width]

        def block_sum() -> None:
            acc.fill(0.0)
            for dy in range(2 * r + 1):
                for dx in range(2 * r + 1):
                    start = dy * pw + dx
                    np.add(run, flat[start : start + run.size], out=run)

    def write(k: int, out: np.ndarray) -> None:
        ox, oy = direction.offset(p.d_min + k)
        rows, cols = _inbounds_window(height, width, ox, oy)
        _fill_outside(out, rows, cols)
        if rows.start >= rows.stop or cols.start >= cols.stop:
            return
        y0, x0 = py - r + oy, px - r + ox
        np.subtract(a_pad, b_pad[y0 : y0 + height + 2 * r, x0 : x0 + pw], out=diff)
        np.abs(diff, out=diff)
        block_sum()
        out[rows, cols] = sums[rows, cols]

    write.dtype = np.uint32 if exact else np.float32
    return write


def bt_slices(ref: Image, target: Image, direction: Direction, p: BlockMatchParams) -> SliceWriter:
    """Sampling-insensitive pixel dissimilarity against the target image,
    one disparity slice per call of the returned writer.

    Around each target sample q the half-sample candidates 0.5*(I(q)+I(q+s))
    for s in BT_NEIGHBORHOOD span an interval [I_min, I_max] (offsets clamp
    at borders); the cost is max{0, ref - I_max, I_min - ref}, zero whenever
    the reference intensity lies inside the interval.  One-sided: only the
    target is interpolated.  The block radius is not used.

    The neighbour samples are slices of one copy of the target edge-padded
    by 1.  Each disparity's cost is computed only on its in-bounds window
    (the cells it keeps), where the shifted interval planes are plain slices
    of lo and hi: no shift there clamps, so no padding is needed.
    """
    _check_pair(ref, target)
    # adding +0.0 turns a -0.0 pixel into +0.0, so that no difference below
    # is -0.0 and no cost either
    a = ref.pixels + np.float32(0.0)
    b = target.pixels + np.float32(0.0)
    height, width = a.shape

    b_pad = np.pad(b, 1, mode="edge")
    cand = np.empty((len(BT_NEIGHBORHOOD), height, width), dtype=np.float32)
    for i, (sx, sy) in enumerate(BT_NEIGHBORHOOD):
        shifted = b_pad[1 + sy : 1 + sy + height, 1 + sx : 1 + sx + width]
        cand[i] = np.float32(0.5) * (b + shifted)
    lo = cand.min(axis=0)
    hi = cand.max(axis=0)
    zero = np.float32(0.0)
    below = np.empty_like(a)  # scratch for I_min - ref

    def write(k: int, out: np.ndarray) -> None:
        ox, oy = direction.offset(p.d_min + k)
        rows, cols = _inbounds_window(height, width, ox, oy)
        _fill_outside(out, rows, cols)
        if rows.start >= rows.stop or cols.start >= cols.stop:
            return
        moved = (slice(rows.start + oy, rows.stop + oy), slice(cols.start + ox, cols.stop + ox))
        a_w = a[rows, cols]
        dst = out[rows, cols]
        lo_gap = below[: rows.stop - rows.start, : cols.stop - cols.start]
        np.subtract(a_w, hi[moved], out=dst)
        np.subtract(lo[moved], a_w, out=lo_gap)
        np.maximum(dst, lo_gap, out=dst)
        np.maximum(zero, dst, out=dst)

    write.dtype = np.float32
    return write


_MATCHERS = {"sad": sad_slices, "bt": bt_slices}


def _volume(write: SliceWriter, shape: tuple[int, int], p: BlockMatchParams) -> CostVolume:
    """All of a writer's slices, written into one preallocated volume."""
    out = np.empty((p.num_disparities,) + shape, dtype=np.float32)
    for k in range(p.num_disparities):
        write(k, out[k])
    return CostVolume(out, p.d_min, p.d_max)


def sad_cost_volume(
    ref: Image, target: Image, direction: Direction, p: BlockMatchParams
) -> CostVolume:
    """The SAD volume of sad_slices."""
    return _volume(sad_slices(ref, target, direction, p), ref.pixels.shape, p)


def bt_cost_volume(
    ref: Image, target: Image, direction: Direction, p: BlockMatchParams
) -> CostVolume:
    """The BT volume of bt_slices."""
    return _volume(bt_slices(ref, target, direction, p), ref.pixels.shape, p)


def _matcher(matcher: str):
    if matcher not in _MATCHERS:
        raise InputError(f"matcher must be one of {sorted(_MATCHERS)}, got {matcher!r}")
    return _MATCHERS[matcher]


def multiscopic_volumes(
    mset: MultiscopicSet, matcher: str, p: BlockMatchParams
) -> list[CostVolume]:
    """One cost volume per surrounding view, in set order."""
    fn = _matcher(matcher)
    shape = mset.center.pixels.shape
    return [_volume(fn(mset.center, img, direction, p), shape, p) for direction, img in mset.surround]


def multiscopic_slices(
    mset: MultiscopicSet, matcher: str, p: BlockMatchParams
) -> Iterator[list[np.ndarray]]:
    """Per disparity, in order, the list of the n views' cost slices in set
    order: the slices of multiscopic_volumes without ever holding a volume.

    The slices, uint32 when every writer's dtype is, else float32, are
    scratch, refilled for the next disparity; a consumer is done with them
    (and may overwrite them) before it asks for the next list.
    """
    fn = _matcher(matcher)
    writers = [fn(mset.center, img, direction, p) for direction, img in mset.surround]
    dtype = np.uint32 if all(w.dtype == np.uint32 for w in writers) else np.float32
    rows = list(np.empty((len(writers),) + mset.center.pixels.shape, dtype=dtype))

    def stream():
        for k in range(p.num_disparities):
            for row, write in zip(rows, writers):
                write(k, row)
            yield rows

    return stream()


def save_volume(path: Union[str, Path], vol: CostVolume) -> None:
    """Write the little-endian MCV1 container of finite costs."""
    check_costs(vol.costs, path, finite=True)
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
    costs = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    check_costs(costs, path, FormatError, finite=True)
    return CostVolume(costs.reshape(d_max - d_min + 1, height, width), d_min, d_max)
