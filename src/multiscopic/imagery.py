"""Image containers and bit-exact Netpbm/PFM file IO.

Conventions used throughout the package:

* grayscale intensities are real-valued in [0, 255], stored row-major with
  y increasing downward;
* disparity maps are float32 with invalid/occluded pixels marked by the
  non-finite sentinel +inf (never 0);
* PGM/PPM are restricted to maxval 255; disparity ground truth is stored
  as single-channel PFM so it is never quantized.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import FormatError, InputError, UnsupportedError

INVALID_DISPARITY = np.float32(np.inf)

# ITU-R 601 luma weights; the matching pipeline operates on grayscale.
_LUMA_WEIGHTS = (0.299, 0.587, 0.114)


class Direction(enum.Enum):
    """View placement relative to the center image.

    Each direction carries the matching geometry for an equal-baseline rig:
    a center pixel (x, y) at disparity d corresponds to the target pixel
    (x, y) + offset(d) in that view.  The same offset is used when rendering
    synthetic views, so sampling inverts rendering exactly.
    """

    LEFT = "left"
    RIGHT = "right"
    TOP = "top"
    BOTTOM = "bottom"

    def offset(self, d: int) -> tuple[int, int]:
        """(dx, dy) displacement of the corresponding pixel at disparity d."""
        if self is Direction.LEFT:
            return (d, 0)
        if self is Direction.RIGHT:
            return (-d, 0)
        if self is Direction.TOP:
            return (0, d)
        return (0, -d)


@dataclass(eq=False)
class Image:
    """Single-channel intensity grid, real-valued in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float32)
        if self.pixels.ndim != 2 or 0 in self.pixels.shape:
            raise InputError(f"Image expects a non-empty 2-D array, got shape {self.pixels.shape}")
        if not np.all(np.isfinite(self.pixels)):
            raise InputError("Image intensities must be finite")
        if self.pixels.min(initial=0.0) < 0.0 or self.pixels.max(initial=0.0) > 255.0:
            raise InputError("Image intensities must lie in [0, 255]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(eq=False)
class ColorImage:
    """8-bit RGB image, row-major (H, W, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 3 or arr.shape[2] != 3 or 0 in arr.shape:
            raise InputError(f"ColorImage expects non-empty (H, W, 3), got shape {arr.shape}")
        if arr.dtype != np.uint8:
            if np.any(arr < 0) or np.any(arr > 255) or not np.all(arr == np.floor(arr)):
                raise InputError("ColorImage channels must be integers in [0, 255]")
            arr = arr.astype(np.uint8)
        self.pixels = arr

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(eq=False)
class DisparityMap:
    """Per-pixel real-valued disparity; invalid pixels are +inf, never 0."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float32).copy()
        if vals.ndim != 2 or 0 in vals.shape:
            raise InputError(f"DisparityMap expects a non-empty 2-D array, got shape {vals.shape}")
        vals[~np.isfinite(vals)] = INVALID_DISPARITY
        self.values = vals

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.values)


@dataclass(eq=False)
class MultiscopicSet:
    """One center image plus axis-aligned surrounding views at one shared baseline."""

    center: Image
    surround: list[tuple[Direction, Image]]

    def __post_init__(self):
        if not self.surround:
            raise InputError("a multiscopic set needs at least one surrounding view")
        dirs = [d for d, _ in self.surround]
        if len(set(dirs)) != len(dirs):
            raise InputError("at most one surrounding image per direction")
        shape = self.center.pixels.shape
        for d, img in self.surround:
            if img.pixels.shape != shape:
                raise InputError(
                    f"{d.value} view shape {img.pixels.shape} does not match center {shape}"
                )

    @property
    def width(self) -> int:
        return self.center.width

    @property
    def height(self) -> int:
        return self.center.height


AnyImage = Union[Image, ColorImage, DisparityMap]


def to_grayscale(color: ColorImage) -> Image:
    """ITU-R 601 luma conversion, kept real-valued (not rounded)."""
    rgb = color.pixels.astype(np.float64)
    wr, wg, wb = _LUMA_WEIGHTS
    gray = wr * rgb[..., 0] + wg * rgb[..., 1] + wb * rgb[..., 2]
    return Image(gray.astype(np.float32))


# Jet ramp anchors: blue -> cyan -> green -> yellow -> red, 4 linear segments.
_JET_POS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_JET_RGB = np.array([[0.0, 0.0, 255.0], [0.0, 255.0, 255.0], [0.0, 255.0, 0.0],
                     [255.0, 255.0, 0.0], [255.0, 0.0, 0.0]])
# each segment's slope per channel, as np.interp computes it
_JET_SLOPE = np.diff(_JET_RGB, axis=0) / np.diff(_JET_POS)[:, None]
_F32 = np.finfo(np.float32)
_F32_MAX = float(_F32.max)


def colorize_jet(disparity: DisparityMap, d_max: float) -> ColorImage:
    """Render a disparity map through the Jet ramp; invalid pixels come out black.

    The ramp position t is computed in float32, so d_max must be a positive
    float32 value.  One below float32's smallest step counts as that step;
    quotients past the float32 range clip to the ramp end as any above 1 do.
    Each channel is rint(slope * (t - pos[j]) + value[j]) on t's segment j,
    in float64: np.interp's arithmetic, found once for all three channels
    (t * 4 is exact, so its floor is the segment, and t = 1 takes the last
    segment's end).
    """
    if not 0 < d_max <= _F32_MAX:
        raise InputError(f"d_max must be positive and at most {_F32_MAX:g}, got {d_max}")
    valid = disparity.valid_mask
    step = max(np.float32(d_max), _F32.smallest_subnormal)
    with np.errstate(over="ignore"):
        t = np.clip(np.where(valid, disparity.values, 0.0) / step, 0.0, 1.0)
    seg = np.minimum((t * 4).astype(np.intp), 3)
    offset = t - _JET_POS[seg]
    rgb = np.empty(t.shape + (3,), dtype=np.uint8)
    for c in range(3):
        chan = _JET_SLOPE[:, c][seg]
        chan *= offset
        chan += _JET_RGB[:, c][seg]
        chan *= valid
        rgb[..., c] = np.rint(chan, out=chan)
    return ColorImage(rgb)


# ---------------------------------------------------------------------------
# Netpbm / PFM parsing


# A run of whitespace, then a comment (group 1: Netpbm's, from '#' to the
# end of the line; PFM has none, so its group 1 is always empty) or a token
# (group 2).  One match per comment: a pattern that skipped every comment
# in one match would keep state for each one, ~115 bytes per separator
# byte.  On bytes, \s is exactly the set that bytes.isspace() accepts.
_NETPBM_TOKEN = re.compile(rb"\s*(#[^\r\n]*)?([^\s#]*)")
_PFM_TOKEN = re.compile(rb"\s*()(\S*)")


class _ByteScanner:
    """Token scanner over raw file bytes, one pattern match per token."""

    def __init__(self, data: bytes, pattern: re.Pattern):
        self.data = data
        self.pos = 0
        self.pattern = pattern

    def token(self) -> bytes:
        match = self.pattern.match(self.data, self.pos)
        while match[1]:
            match = self.pattern.match(self.data, match.end())
        self.pos = match.end()
        if not match[2]:
            raise FormatError("unexpected end of header")
        return match[2]

    def int_token(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"bad {what} field {tok!r}") from None

    def begin_payload(self):
        # Exactly one whitespace byte separates the header from raw payload.
        if self.pos >= len(self.data) or not self.data[self.pos : self.pos + 1].isspace():
            raise FormatError("missing separator before payload")
        self.pos += 1

    def rest(self) -> bytes:
        return self.data[self.pos :]


def _read_dims(scanner: _ByteScanner) -> tuple[int, int]:
    width = scanner.int_token("width")
    height = scanner.int_token("height")
    if width <= 0 or height <= 0:
        raise FormatError(f"non-positive dimensions {width}x{height}")
    return width, height


def _read_maxval(scanner: _ByteScanner) -> int:
    maxval = scanner.int_token("maxval")
    if maxval != 255:
        raise UnsupportedError(f"only maxval 255 is supported, got {maxval}")
    return maxval


def _decode_ascii_samples(scanner: _ByteScanner, count: int) -> np.ndarray:
    # Each sample takes a digit and a separator, so the header cannot ask
    # for more samples than the remaining bytes can hold.
    left = len(scanner.data) - scanner.pos
    if 2 * count - 1 > left:
        raise FormatError(f"truncated payload: {count} samples cannot fit in {left} bytes")
    vals = np.empty(count, dtype=np.float32)
    for i in range(count):
        v = scanner.int_token("sample")
        if not 0 <= v <= 255:
            raise FormatError(f"sample {v} outside [0, 255]")
        vals[i] = v
    return vals


def _decode_binary_samples(scanner: _ByteScanner, count: int) -> np.ndarray:
    scanner.begin_payload()
    raw = scanner.rest()
    if len(raw) < count:
        raise FormatError(f"truncated payload: need {count} bytes, have {len(raw)}")
    return np.frombuffer(raw[:count], dtype=np.uint8).astype(np.float32)


# Netpbm magic <-> (channels, ASCII payload).
_NETPBM_MAGIC = {(1, True): b"P2", (1, False): b"P5", (3, True): b"P3", (3, False): b"P6"}
_NETPBM_LAYOUT = {magic: layout for layout, magic in _NETPBM_MAGIC.items()}


def read_image(path: Union[str, Path]) -> AnyImage:
    """Decode a PGM (P2/P5), PPM (P3/P6) or single-channel PFM (Pf) file.

    The container type follows the magic: PGM -> Image, PPM -> ColorImage,
    PFM -> DisparityMap.  PFM rows are stored bottom-to-top and are flipped
    to the package's top-down convention.  The scale must be finite and
    non-zero; its sign selects endianness and its magnitude is not kept
    (write_image always writes -1).  Decoding errors name the file.
    """
    data = Path(path).read_bytes()
    try:
        return _decode_image(data)
    except (FormatError, UnsupportedError) as err:
        raise type(err)(f"{path}: {err}") from None


def _decode_image(data: bytes) -> AnyImage:
    if len(data) < 2:
        raise FormatError("too short to contain a header")
    magic = data[:2]

    if magic in _NETPBM_LAYOUT:
        channels, ascii_payload = _NETPBM_LAYOUT[magic]
        scanner = _ByteScanner(data, _NETPBM_TOKEN)
        scanner.token()
        width, height = _read_dims(scanner)
        _read_maxval(scanner)
        decode = _decode_ascii_samples if ascii_payload else _decode_binary_samples
        flat = decode(scanner, channels * width * height)
        if channels == 1:
            return Image(flat.reshape(height, width))
        return ColorImage(flat.reshape(height, width, 3).astype(np.uint8))

    if magic == b"PF":
        raise UnsupportedError("3-channel PFM is not supported; store disparity as 'Pf'")

    if magic == b"Pf":
        scanner = _ByteScanner(data, _PFM_TOKEN)
        scanner.token()
        width, height = _read_dims(scanner)
        scale_tok = scanner.token()
        try:
            scale = float(scale_tok)
        except ValueError:
            raise FormatError(f"bad PFM scale field {scale_tok!r}") from None
        if not (np.isfinite(scale) and scale != 0.0):
            raise FormatError(f"PFM scale must be finite and non-zero, got {scale_tok!r}")
        scanner.begin_payload()
        raw = scanner.rest()
        need = 4 * width * height
        if len(raw) < need:
            raise FormatError(f"truncated PFM payload: need {need} bytes, have {len(raw)}")
        dtype = "<f4" if scale < 0 else ">f4"
        vals = np.frombuffer(raw[:need], dtype=dtype).reshape(height, width)
        # PFM stores the bottom row first.
        return DisparityMap(np.flipud(vals).astype(np.float32))

    raise FormatError(f"unknown magic {magic!r}")


def _quantize_255(pixels: np.ndarray, what: str) -> np.ndarray:
    q = np.rint(pixels)
    if np.any(q < 0) or np.any(q > 255):
        raise InputError(f"{what} values outside [0, 255] cannot be written")
    return q.astype(np.uint8)


def write_image(path: Union[str, Path], image: AnyImage, ascii_format: bool = False) -> None:
    """Encode to the format implied by the container type.

    Image -> PGM, ColorImage -> PPM, DisparityMap -> PFM (little-endian,
    scale -1.0, invalid pixels stored as +inf).  `ascii_format` selects
    P2/P3 instead of the raw P5/P6 variants; intensities are rounded to
    the nearest integer when quantizing for PGM/PPM.
    """
    path = Path(path)
    if isinstance(image, (Image, ColorImage)):
        if isinstance(image, Image):
            channels, payload = 1, _quantize_255(image.pixels, "PGM")
        else:
            channels, payload = 3, image.pixels
        magic = _NETPBM_MAGIC[channels, bool(ascii_format)].decode("ascii")
        header = f"{magic}\n{image.width} {image.height}\n255\n".encode("ascii")
        if ascii_format:
            rows = payload.reshape(image.height, -1)
            body = ("\n".join(" ".join(str(v) for v in row) for row in rows) + "\n").encode("ascii")
        else:
            body = payload.tobytes()
        path.write_bytes(header + body)
    elif isinstance(image, DisparityMap):
        if ascii_format:
            raise InputError("PFM has no ASCII variant")
        header = f"Pf\n{image.width} {image.height}\n-1\n"
        rows = np.flipud(image.values).astype("<f4")
        path.write_bytes(header.encode("ascii") + rows.tobytes())
    else:
        raise InputError(f"cannot write object of type {type(image).__name__}")
