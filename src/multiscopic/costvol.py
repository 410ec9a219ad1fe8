"""Per-view matching cost volumes (SAD block matching and BT dissimilarity).

A cost volume stores float32 costs indexed (d, v, u); slice k corresponds
to disparity d_min + k.  Cells whose disparity-shifted sample falls outside
the target image hold the LARGE_COST sentinel and are excluded from WTA.

Every cost is in [+0.0, +inf]: no NaN, no -0.0, nothing negative.  The
matchers write only such costs, and check_costs is the one test of that
contract: CostVolume runs it on its costs, fusion on every float32 slice
it reads (uint32 slices hold SAD's integer costs and need none), the WTA
on every slice it reads, and the .mcv reader and writer, which also
require the costs finite, on the file's costs.  On such floats equal
costs have equal bits and the uint32 order of the bits is the float order.

Each SAD cost equals the float32 sum of its block's absolute differences
added in row-major order.  The matchers are set up once per view set
(multiscopic_slices, multiscopic_volumes), and SAD picks its summation
once for the set: when every image is integer-valued (every PGM input)
and (2*rho+1)^2 * 255 < 2^24, every block sum is an integer that float32
holds exactly, so blocks are summed in integers, separably, rows then
columns, each by doubling (3 adds per axis at rho 2): uint16 for rho <= 7,
uint32 up to rho 127.  Any other set (one PPM luma, upscaled `gc` or float
image in it, or rho >= 128) is summed in float32 in the row-major order
itself.  Volumes hold float32; multiscopic_slices streams the set's cost
dtype, uint32 on the exact path, whose costs are integers.
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


# A matcher set up for one view of a set: write(k, out) stores the (H, W)
# costs of disparity d_min + k in out, every cell of it.  The writers of a
# set share their buffers and run one after another.  out is float32 or
# the set's cost dtype (uint32 on SAD's exact path).
SliceWriter = Callable[[int, np.ndarray], None]

# A view set's writers, in set order, and the dtype their costs are exact in.
Writers = tuple[list[SliceWriter], type]


def _box_sums(src: np.ndarray, bufs: list[np.ndarray], length: int, step: int, n: int):
    """The adds that leave s[i] = src[i] + src[i + step] + ... +
    src[i + (length-1)*step] for i < n in one of bufs, by doubling.

    Read left to right, each binary digit of length after the first doubles
    the window (s_2m[i] = s_m[i] + s_m[i + m*step]) and, where it is 1,
    widens it by one (s_2m+1[i] = s_2m[i] + src[i + 2m*step]): that is
    floor(log2(length)) + popcount(length) - 1 adds.  Each add writes the
    buffer of bufs that the previous one did not, so src and the window
    being read are never written.  A window of width m is kept on the
    n + (length - m)*step entries the later adds read.  Returns the adds as
    (a, b, out) views and the buffer that ends up holding s.
    """
    adds = []
    cur, m = src, 1
    for digit in bin(length)[3:]:
        steps = [(cur, m)] + ([(src, 1)] if digit == "1" else [])
        for part, width in steps:
            out = bufs[len(adds) % 2]
            size = n + (length - m - width) * step
            adds.append((cur[:size], part[m * step : m * step + size], out[:size]))
            cur, m = out, m + width
    return adds, cur


def sad_slices(ref: Image, target: Image, direction: Direction, p: BlockMatchParams) -> SliceWriter:
    """Sum of absolute differences over a (2*rho+1)^2 block, one disparity
    slice per call of the returned writer: the writer of a one-view set
    (_sad_writers)."""
    _check_pair(ref, target)
    return _sad_writers(ref, [(direction, target)], p)[0][0]


def _sad_writers(
    center: Image, views: list[tuple[Direction, Image]], p: BlockMatchParams
) -> Writers:
    """SAD's writers for the views of one set.

    Block coordinates clamp at image borders: every image is edge-padded by
    rho, once.  Each target is laid out as one flat run with room for
    min(d_max, span) shifts at both ends, where span is the image extent on
    the shift axis, so the copy is bounded by the image and not by d_max.
    Each disparity's shifted target is then a contiguous slice of that run;
    a kept cell's block reads only the padded rows it would read in the
    target itself, and a shift of span or more leaves the frame and gives
    an all-LARGE_COST slice without reading the target.  Each slice takes
    one absolute-difference plane and sums its blocks by one list of adds,
    built once for the set over buffers the writers share.

    Every cell equals the float32 sum of its block in row-major order (dy
    outer, dx inner), so a scalar oracle with that order reproduces the
    result bit for bit.  The set takes one of two summations:

    * Exact, when every image of the set is integer-valued and
      (2*rho+1)^2 * 255 < 2^24 (rho <= 127): every block sum is an integer
      below 2^24, which float32 holds exactly, so integer arithmetic in any
      order gives the row-major bits.  The padded images are converted to
      int16 (rho <= 7, sums up to 57,375 < 2^16) or int32, the differences
      and their absolute values are taken in that type, and the blocks are
      summed in its unsigned twin, along rows and then down columns, each
      window by doubling (_box_sums): 3 adds per axis at rho 2.  The costs
      are integers, and their dtype is uint32.
    * Otherwise the (2*rho+1)^2 windows are added in float32 in row-major
      order, the one order whose rounding matches; the first add takes the
      first two windows, since 0 + x = x on costs >= +0.  Their dtype is
      float32.

    A set comes from one camera and holds one kind of image; one that mixes
    integer-valued and fractional images sums every view row-major.
    """
    r = p.rho
    height, width = center.pixels.shape
    pw = width + 2 * r
    pads = [np.pad(img.pixels, r, mode="edge") for img in [center] + [img for _, img in views]]
    bound = (2 * r + 1) ** 2 * 255
    signed, unsigned = (np.int16, np.uint16) if bound < 2**16 else (np.int32, np.uint32)
    ints = [pad.astype(signed) for pad in pads] if bound < 2**24 else []
    exact = bool(ints) and all(map(np.array_equal, ints, pads))
    if exact:
        pads = ints
    # Cell (v, u) of a padded plane sits at v*pw + u of its flat run, so a
    # shift by (dy, dx) is the run started dy*pw + dx later.  A run's
    # padding columns (u >= width) are summed too and never read.
    a_run = pads[0].ravel()
    diff = np.empty_like(a_run)
    if exact:
        flat = diff.view(unsigned)
        bufs = [np.empty_like(flat) for _ in range(2)]
        # rows: every cell the column pass reads; columns: every cell kept
        row_adds, row_sums = _box_sums(flat, bufs, 2 * r + 1, 1, (height + 2 * r - 1) * pw + width)
        free = [b for b in [flat] + bufs if b is not row_sums]
        col_adds, sums = _box_sums(row_sums, free, 2 * r + 1, pw, (height - 1) * pw + width)
        adds = row_adds + col_adds
    else:
        n = height * pw - 2 * r
        run = np.empty(height * pw, dtype=np.float32)
        adds, sums = [], diff
        for start in [dy * pw + dx for dy in range(2 * r + 1) for dx in range(2 * r + 1)][1:]:
            adds.append((sums[:n], diff[start : start + n], run[:n]))
            sums = run
    kept = sums[: height * pw].reshape(height, pw)[:, :width]

    def writer(direction: Direction, b_pad: np.ndarray) -> SliceWriter:
        step_x, step_y = direction.offset(1)
        reach = min(p.d_max, width if step_x else height)
        # room for every shift at both ends, read only for cells not kept
        slack = reach * (abs(step_x) + abs(step_y) * pw)
        b_run = np.zeros(2 * slack + b_pad.size, dtype=b_pad.dtype)
        b_run[slack : slack + b_pad.size] = b_pad.ravel()

        def write(k: int, out: np.ndarray) -> None:
            ox, oy = direction.offset(p.d_min + k)
            rows, cols = _inbounds_window(height, width, ox, oy)
            _fill_outside(out, rows, cols)
            if rows.start >= rows.stop or cols.start >= cols.stop:
                return
            start = slack + oy * pw + ox
            np.subtract(a_run, b_run[start : start + a_run.size], out=diff)
            np.abs(diff, out=diff)
            for a, b, total in adds:
                np.add(a, b, out=total)
            out[rows, cols] = kept[rows, cols]

        return write

    writers = [writer(direction, pad) for (direction, _), pad in zip(views, pads[1:])]
    return writers, np.uint32 if exact else np.float32


def bt_slices(ref: Image, target: Image, direction: Direction, p: BlockMatchParams) -> SliceWriter:
    """Sampling-insensitive pixel dissimilarity against the target image,
    one disparity slice per call of the returned writer: the writer of a
    one-view set (_bt_writers).

    Around each target sample q the half-sample candidates 0.5*(I(q)+I(q+s))
    for s in BT_NEIGHBORHOOD span an interval [I_min, I_max] (offsets clamp
    at borders); the cost is max{0, ref - I_max, I_min - ref}, zero whenever
    the reference intensity lies inside the interval.  One-sided: only the
    target is interpolated.  The block radius is not used.
    """
    _check_pair(ref, target)
    return _bt_writers(ref, [(direction, target)], p)[0][0]


def _bt_writers(
    center: Image, views: list[tuple[Direction, Image]], p: BlockMatchParams
) -> Writers:
    """BT's writers for the views of one set, over one converted center and
    one gap plane; their dtype is float32.

    The neighbour samples are slices of one copy of each target edge-padded
    by 1.  Each disparity's cost is computed only on its in-bounds window
    (the cells it keeps), where the shifted interval planes are plain slices
    of lo and hi: no shift there clamps, so no padding is needed.
    """
    # adding +0.0 turns a -0.0 pixel into +0.0, so that no difference below
    # is -0.0 and no cost either
    a = center.pixels + np.float32(0.0)
    height, width = a.shape
    zero = np.float32(0.0)
    below = np.empty_like(a)  # for I_min - ref

    def writer(direction: Direction, target: Image) -> SliceWriter:
        b = target.pixels + np.float32(0.0)
        b_pad = np.pad(b, 1, mode="edge")
        cand = np.empty((len(BT_NEIGHBORHOOD), height, width), dtype=np.float32)
        for i, (sx, sy) in enumerate(BT_NEIGHBORHOOD):
            shifted = b_pad[1 + sy : 1 + sy + height, 1 + sx : 1 + sx + width]
            cand[i] = np.float32(0.5) * (b + shifted)
        lo = cand.min(axis=0)
        hi = cand.max(axis=0)

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

        return write

    return [writer(direction, img) for direction, img in views], np.float32


_MATCHERS = {"sad": _sad_writers, "bt": _bt_writers}


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


def _writers(mset: MultiscopicSet, matcher: str, p: BlockMatchParams) -> Writers:
    """The matcher's writers for the n views of the set."""
    if matcher not in _MATCHERS:
        raise InputError(f"matcher must be one of {sorted(_MATCHERS)}, got {matcher!r}")
    return _MATCHERS[matcher](mset.center, mset.surround, p)


def multiscopic_volumes(
    mset: MultiscopicSet, matcher: str, p: BlockMatchParams
) -> list[CostVolume]:
    """One cost volume per surrounding view, in set order."""
    shape = mset.center.pixels.shape
    return [_volume(write, shape, p) for write in _writers(mset, matcher, p)[0]]


def multiscopic_slices(
    mset: MultiscopicSet, matcher: str, p: BlockMatchParams
) -> Iterator[list[np.ndarray]]:
    """Per disparity, in order, the list of the n views' cost slices in set
    order: the slices of multiscopic_volumes without ever holding a volume.

    The slices, in the set's cost dtype (uint32 on SAD's exact path, else
    float32), are scratch, refilled for the next disparity; a consumer is
    done with them (and may overwrite them) before it asks for the next
    list.
    """
    writers, dtype = _writers(mset, matcher, p)
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
