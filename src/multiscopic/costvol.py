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
each by doubling (3 adds per axis at rho 2): uint16 for rho <= 7, uint32
up to rho 127.  Any other input (PPM luma, upscaled `gc` images, float
images, rho >= 128) is summed in float32 in the row-major order itself,
(2*rho+1)^2 adds per slice.  Volumes hold float32; multiscopic_slices
streams uint32 slices when every view's SAD takes the exact path, whose
costs are integers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
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


class _Scratch:
    """What the writers of one view set share: the center, padded and
    converted once, and one buffer per name and dtype.

    The writers of a set run one after another, and each copies its costs
    out of the buffers before the next runs, so sharing changes no cost.
    A buffer is keyed by its dtype as well, so a writer on SAD's float32
    path never gets one of the exact path's integer buffers.
    """

    def __init__(self, center: Image, p: BlockMatchParams):
        self.center = center
        self.p = p
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def buffer(self, name: str, shape, dtype) -> np.ndarray:
        key = (name, np.dtype(dtype))
        if key not in self._buffers:
            self._buffers[key] = np.empty(shape, dtype=dtype)
        return self._buffers[key]

    @cached_property
    def center_pads(self) -> tuple[np.ndarray, tuple | None]:
        """The center edge-padded by rho, and for SAD's exact path that
        converted to the path's signed image type with the unsigned type of
        its sums, or None where the path does not apply to the center.

        The exact path needs every block sum, at most (2*rho+1)^2 * 255,
        below 2^24 so it converts to float32 exactly, and integer-valued
        images.  The sum type is the narrowest unsigned type that holds that
        bound; the images go to the signed type as wide, which holds the
        differences of [0, 255] samples and their absolute values.
        """
        pad = np.pad(self.center.pixels, self.p.rho, mode="edge")
        bound = (2 * self.p.rho + 1) ** 2 * 255
        if bound >= 2**24:
            return pad, None
        signed, unsigned = (np.int16, np.uint16) if bound < 2**16 else (np.int32, np.uint32)
        converted = pad.astype(signed)
        return pad, (converted, unsigned) if np.array_equal(converted, pad) else None


def _integer_pads(work: _Scratch, b_pad: np.ndarray):
    """The padded center and target converted for SAD's exact path and the
    type of its block sums, or None where that path does not apply: both
    images must be integer-valued and rho below 128."""
    exact = work.center_pads[1]
    if exact is None:
        return None
    a_int, unsigned = exact
    b_int = b_pad.astype(a_int.dtype)
    return (a_int, b_int, unsigned) if np.array_equal(b_int, b_pad) else None


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
    slice per call of the returned writer.

    The writer has a working set of its own; the writers of a view set
    (multiscopic_slices, multiscopic_volumes) share one: the reference
    edge-padded by rho on every side and converted, once per set, and one
    difference plane and one pair of sum buffers per dtype (_Scratch).

    Block coordinates clamp at image borders.  The target is edge-padded by
    rho as well, once, and laid out as one flat run with room for
    min(d_max, span) shifts at both ends, where span is the image extent on
    the shift axis, so the copy is bounded by the image and not by d_max.
    Each disparity's shifted target is then a contiguous slice of that run;
    a kept cell's block reads only the padded rows it would read in the
    target itself, and a shift of span or more leaves the frame and gives
    an all-LARGE_COST slice without reading the target.  Each disparity
    builds one absolute-difference plane and sums its (2*rho+1)^2 block.

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
      and then down columns, each window by doubling (_box_sums):
      floor(log2(2*rho+1)) + popcount(2*rho+1) - 1 adds per axis, 3 at
      rho 2 and 6 at rho 7.  The final copy into a float32 or uint32 slice
      is exact, and the writer's dtype is uint32.
    * Otherwise (a non-integer intensity in either image, or rho >= 128):
      the (2*rho+1)^2 windows are added in float32 in row-major order, the
      one order whose rounding matches.
    """
    return _sad_writer(_Scratch(ref, p), target, direction)


def _sad_writer(work: _Scratch, target: Image, direction: Direction) -> SliceWriter:
    """sad_slices' writer for one view over the set's shared scratch."""
    p = work.p
    _check_pair(work.center, target)
    height, width = target.pixels.shape
    r = p.rho
    pw = width + 2 * r
    plane = (height + 2 * r, pw)
    step_x, step_y = direction.offset(1)
    reach = min(p.d_max, width if step_x else height)
    b_pad = np.pad(target.pixels, r, mode="edge")
    exact = _integer_pads(work, b_pad)
    if exact:
        a_pad, b_pad, sum_type = exact
    else:
        a_pad = work.center_pads[0]
    # room for every shift at both ends, read only for cells not kept
    slack = reach * (abs(step_x) + abs(step_y) * pw)
    b_run = np.zeros(2 * slack + b_pad.size, dtype=b_pad.dtype)
    b_run[slack : slack + b_pad.size] = b_pad.ravel()
    a_run = a_pad.ravel()
    diff = work.buffer("diff", plane, a_pad.dtype)
    diff_run = diff.ravel()
    # Cell (v, u) of a padded plane sits at v*pw + u of its flat run, so a
    # shift by (dy, dx) is the run started dy*pw + dx later.  A run's
    # padding columns (u >= width) are summed too and never read.
    if exact:
        flat = diff.view(sum_type).ravel()
        bufs = [work.buffer(name, flat.size, sum_type) for name in ("rows", "doubling")]
        # rows: every cell the column pass reads; columns: every cell kept
        row_adds, row_sums = _box_sums(flat, bufs, 2 * r + 1, 1, (height + 2 * r - 1) * pw + width)
        free = [b for b in [flat] + bufs if b is not row_sums]
        col_adds, col_sums = _box_sums(row_sums, free, 2 * r + 1, pw, (height - 1) * pw + width)
        adds = row_adds + col_adds
        sums = col_sums.reshape(plane)[:height, :width]

        def block_sum() -> None:
            for a, b, out in adds:
                np.add(a, b, out=out)

    else:
        flat = diff_run
        acc = work.buffer("rows", height * pw, np.float32)
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
        start = slack + oy * pw + ox
        np.subtract(a_run, b_run[start : start + a_run.size], out=diff_run)
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
    return _bt_writer(_Scratch(ref, p), target, direction)


def _bt_writer(work: _Scratch, target: Image, direction: Direction) -> SliceWriter:
    """bt_slices' writer for one view over the set's shared scratch."""
    p = work.p
    _check_pair(work.center, target)
    # adding +0.0 turns a -0.0 pixel into +0.0, so that no difference below
    # is -0.0 and no cost either
    a = work.center.pixels + np.float32(0.0)
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
    below = work.buffer("below", a.shape, np.float32)  # for I_min - ref

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


_MATCHERS = {"sad": _sad_writer, "bt": _bt_writer}


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


def _writers(mset: MultiscopicSet, matcher: str, p: BlockMatchParams) -> list[SliceWriter]:
    """The n views' writers, in set order, over one scratch they share."""
    if matcher not in _MATCHERS:
        raise InputError(f"matcher must be one of {sorted(_MATCHERS)}, got {matcher!r}")
    work = _Scratch(mset.center, p)
    return [_MATCHERS[matcher](work, img, direction) for direction, img in mset.surround]


def multiscopic_volumes(
    mset: MultiscopicSet, matcher: str, p: BlockMatchParams
) -> list[CostVolume]:
    """One cost volume per surrounding view, in set order."""
    shape = mset.center.pixels.shape
    return [_volume(write, shape, p) for write in _writers(mset, matcher, p)]


def multiscopic_slices(
    mset: MultiscopicSet, matcher: str, p: BlockMatchParams
) -> Iterator[list[np.ndarray]]:
    """Per disparity, in order, the list of the n views' cost slices in set
    order: the slices of multiscopic_volumes without ever holding a volume.

    The slices, uint32 when every writer's dtype is, else float32, are
    scratch, refilled for the next disparity; a consumer is done with them
    (and may overwrite them) before it asks for the next list.
    """
    writers = _writers(mset, matcher, p)
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
