"""Procedural multiscopic test scenes with exact ground-truth disparity.

A scene is a stack of fronto-parallel textured layers, each at one integer
disparity.  Rendering a view shifts every layer by Direction.offset(d) --
the same vector the matcher samples along, so matching exactly inverts
rendering.  Textures extend beyond the frame by the maximum disparity so
shifted layers never run out of content.  Ground truth is geometric (the
front-most layer per center pixel) and stays valid even where a pixel is
hidden in every surrounding view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import InputError, SpecError
from .imagery import Direction, DisparityMap, Image, MultiscopicSet, read_image, write_image

VIEW_ORDER = (Direction.LEFT, Direction.RIGHT, Direction.TOP, Direction.BOTTOM)
OCTAVES = 3  # value-noise octaves per layer texture
RECT_FRAC = (0.2, 0.6)  # occluder side as a fraction of the frame, dataset scenes

@dataclass
class SceneLayer:
    """One fronto-parallel layer: a disparity and an occluder rectangle.

    rect is (x0, y0, w, h) in center-view coordinates; None covers the whole
    frame (the background layer must use None so no view has holes).
    """

    disparity: int
    rect: Optional[tuple[int, int, int, int]] = None

    def __post_init__(self):
        if self.disparity < 0 or self.disparity != int(self.disparity):
            raise InputError(f"layer disparity must be a non-negative integer")
        if self.rect is not None:
            x0, y0, w, h = self.rect
            if w <= 0 or h <= 0:
                raise InputError(f"degenerate layer rect {self.rect}")


@dataclass
class SceneSpec:
    """Scene geometry plus texture and photometric-noise parameters."""

    width: int
    height: int
    layers: list[SceneLayer] = field(default_factory=list)
    noise_sigma: float = 0.0
    base_cell: int = 8
    flat_patches: int = 0

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise InputError("scene must be at least 2x2")
        if not self.layers:
            raise InputError("scene needs at least one layer")
        if self.layers[0].rect is not None:
            raise InputError("the back layer must cover the full frame (rect=None)")
        if self.noise_sigma < 0:
            raise InputError("noise sigma must be >= 0")
        if self.base_cell < 1:
            raise InputError("texture cell size must be positive")

    @property
    def max_disparity(self) -> int:
        return max(layer.disparity for layer in self.layers)


def _value_noise(rng: np.random.Generator, height: int, width: int,
                 base_cell: int) -> np.ndarray:
    """Seeded OCTAVES-octave value noise in [0, 1]."""
    out = np.zeros((height, width), dtype=np.float64)
    amp = 1.0
    total = 0.0
    for o in range(OCTAVES):
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


def _layer_texture(rng: np.random.Generator, spec: SceneSpec,
                   ext_h: int, ext_w: int) -> np.ndarray:
    """Texture over the extended domain, mapped to intensities [20, 235]."""
    noise = _value_noise(rng, ext_h, ext_w, spec.base_cell)
    lo, hi = noise.min(), noise.max()
    if hi - lo > 1e-12:
        noise = (noise - lo) / (hi - lo)
    tex = 20.0 + 215.0 * noise
    for _ in range(spec.flat_patches):
        pw = int(rng.integers(spec.base_cell, max(ext_w // 3, spec.base_cell + 1)))
        ph = int(rng.integers(spec.base_cell, max(ext_h // 3, spec.base_cell + 1)))
        px = int(rng.integers(0, max(ext_w - pw, 1)))
        py = int(rng.integers(0, max(ext_h - ph, 1)))
        tex[py : py + ph, px : px + pw] = float(rng.uniform(40.0, 215.0))
    return tex


def generate_scene(spec: SceneSpec, seed: int) -> tuple[MultiscopicSet, DisparityMap]:
    """Render center + LEFT/RIGHT/TOP/BOTTOM views and the exact GT map.

    Layers composite back to front; view v sees layer k shifted by
    Direction.offset(d_k).  Photometric Gaussian noise (seeded per view) is
    added after compositing and clipped to [0, 255].  The GT map is the
    same compositor's noise-free center view of planes holding each
    layer's disparity.
    """
    if spec.max_disparity > spec.width / 4:
        raise SpecError(
            f"max layer disparity {spec.max_disparity} exceeds width/4 = {spec.width / 4}"
        )
    height, width = spec.height, spec.width
    margin = spec.max_disparity
    ext_h, ext_w = height + 2 * margin, width + 2 * margin

    ss = np.random.SeedSequence(seed)
    tex_seeds, noise_seeds = ss.spawn(2)
    tex_rngs = [np.random.default_rng(s) for s in tex_seeds.spawn(len(spec.layers))]
    noise_rngs = [np.random.default_rng(s) for s in noise_seeds.spawn(5)]

    textures = [_layer_texture(r, spec, ext_h, ext_w) for r in tex_rngs]

    def render(planes: list[np.ndarray], direction: Optional[Direction]) -> np.ndarray:
        img = np.zeros((height, width), dtype=np.float64)
        for layer, plane in zip(spec.layers, planes):
            ox, oy = direction.offset(layer.disparity) if direction else (0, 0)
            # Layer texel visible at view pixel (x, y) is plane(x - ox, y - oy).
            sampled = plane[margin - oy : margin - oy + height,
                            margin - ox : margin - ox + width]
            if layer.rect is None:
                img[:] = sampled
            else:
                x0, y0, w, h = layer.rect
                xa = max(x0 + ox, 0)
                xb = min(x0 + ox + w, width)
                ya = max(y0 + oy, 0)
                yb = min(y0 + oy + h, height)
                if xa < xb and ya < yb:
                    img[ya:yb, xa:xb] = sampled[ya:yb, xa:xb]
        return img

    depth = [np.broadcast_to(float(layer.disparity), (ext_h, ext_w)) for layer in spec.layers]
    gt = render(depth, None)

    # center, then the views in VIEW_ORDER: noise_rngs[k] draws for image k
    images = [render(textures, direction) for direction in (None, *VIEW_ORDER)]
    if spec.noise_sigma > 0:
        images = [
            img + r.normal(0.0, spec.noise_sigma, img.shape)
            for img, r in zip(images, noise_rngs)
        ]
    center, *views = [Image(np.clip(img, 0.0, 255.0).astype(np.float32)) for img in images]

    mset = MultiscopicSet(center, list(zip(VIEW_ORDER, views)))
    return mset, DisparityMap(gt.astype(np.float32))


@dataclass
class DatasetRanges:
    """Sampling ranges for randomized dataset scenes (all bounds inclusive)."""

    width: int = 64
    height: int = 64
    layer_count: tuple[int, int] = (2, 4)
    disparity: tuple[int, int] = (1, 12)
    noise_sigma: tuple[float, float] = (0.0, 1.0)
    base_cell: tuple[int, int] = (5, 10)
    flat_patches: tuple[int, int] = (0, 1)

    def __post_init__(self):
        if not all(math.isfinite(s) and s >= 0 for s in self.noise_sigma):
            raise InputError(f"noise sigma range {self.noise_sigma} must be finite and >= 0")
        for name in ("layer_count", "disparity", "noise_sigma", "base_cell", "flat_patches"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise InputError(f"{name} range ({lo}, {hi}) needs min <= max")
        if self.layer_count[0] < 1:
            raise InputError("need at least one layer")
        if self.disparity[0] < 0:
            raise InputError("disparities must be >= 0")


def sample_spec(ranges: DatasetRanges, rng: np.random.Generator) -> SceneSpec:
    """Draw one SceneSpec from the ranges (deterministic given the rng state)."""
    n_layers = int(rng.integers(ranges.layer_count[0], ranges.layer_count[1] + 1))
    dis = sorted(
        int(rng.integers(ranges.disparity[0], ranges.disparity[1] + 1))
        for _ in range(n_layers)
    )
    layers = [SceneLayer(dis[0], None)]
    for d in dis[1:]:
        fw = rng.uniform(*RECT_FRAC)
        fh = rng.uniform(*RECT_FRAC)
        w = max(int(fw * ranges.width), 2)
        h = max(int(fh * ranges.height), 2)
        x0 = int(rng.integers(0, max(ranges.width - w, 1)))
        y0 = int(rng.integers(0, max(ranges.height - h, 1)))
        layers.append(SceneLayer(d, (x0, y0, w, h)))
    return SceneSpec(
        width=ranges.width,
        height=ranges.height,
        layers=layers,
        noise_sigma=float(rng.uniform(*ranges.noise_sigma)),
        base_cell=int(rng.integers(ranges.base_cell[0], ranges.base_cell[1] + 1)),
        flat_patches=int(rng.integers(ranges.flat_patches[0], ranges.flat_patches[1] + 1)),
    )


def generate_dataset(
    ranges: DatasetRanges, n: int, seed: int, outdir: Union[str, Path]
) -> list[str]:
    """Write n randomized scenes under outdir; returns the manifest.

    Layout per scene: scene_%04d/{center,left,right,top,bottom}.pgm, gt.pfm
    and meta.txt (d_max=, the largest layer disparity, and seed=, the
    generate_scene seed).  A manifest.txt with one scene directory per
    line is written alongside.  Byte-identical for identical (ranges, n,
    seed).
    """
    if n < 1:
        raise InputError("dataset size must be >= 1")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i in range(n):
        ss = np.random.SeedSequence([seed, i])
        rng = np.random.default_rng(ss)
        spec = sample_spec(ranges, rng)
        scene_seed = int(rng.integers(0, 2**63))
        mset, gt = generate_scene(spec, scene_seed)

        name = f"scene_{i:04d}"
        sdir = outdir / name
        sdir.mkdir(exist_ok=True)
        write_image(sdir / "center.pgm", mset.center)
        for direction, img in mset.surround:
            write_image(sdir / f"{direction.value}.pgm", img)
        write_image(sdir / "gt.pfm", gt)
        (sdir / "meta.txt").write_text(f"d_max={spec.max_disparity}\nseed={scene_seed}\n")
        manifest.append(name)
    (outdir / "manifest.txt").write_text("".join(m + "\n" for m in manifest))
    return manifest


def _read_as(path: Path, kind: type, what: str, shape: Optional[tuple[int, int]] = None):
    img = read_image(path)
    if not isinstance(img, kind):
        raise InputError(f"{path}: expected a {what}")
    if shape not in (None, (img.height, img.width)):
        raise InputError(f"{path}: shape {img.height, img.width} differs from center.pgm's {shape}")
    return img


def load_scene(scene_dir: Union[str, Path]) -> tuple[MultiscopicSet, Optional[DisparityMap]]:
    """Read a scene directory back into containers.

    Requires center.pgm and at least one directional view; gt.pfm is
    optional (None when absent) so user-supplied rectified sets load too.
    Every view and gt.pfm must have center.pgm's shape.
    """
    scene_dir = Path(scene_dir)
    center_path = scene_dir / "center.pgm"
    if not center_path.exists():
        raise InputError(f"{scene_dir}: no center.pgm")
    center = _read_as(center_path, Image, "grayscale image")
    shape = (center.height, center.width)
    surround = []
    for direction in VIEW_ORDER:
        path = scene_dir / f"{direction.value}.pgm"
        if path.exists():
            surround.append((direction, _read_as(path, Image, "grayscale image", shape)))
    if not surround:
        raise InputError(f"{scene_dir}: no directional views found")
    mset = MultiscopicSet(center, surround)
    gt_path = scene_dir / "gt.pfm"
    gt = _read_as(gt_path, DisparityMap, "disparity map", shape) if gt_path.exists() else None
    return mset, gt
