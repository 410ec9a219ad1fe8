"""Learned cost-volume fusion: a small 3-D CNN regressing disparity.

Architecture (all kernels 3x3x3, padding 1, ReLU on hidden layers):

* shared stem conv(1->4), conv(4->4) applied to every input volume;
* stem features averaged across volumes; because convolution is linear
  this equals a tied-weight conv over the 4n concatenated channels scaled
  by 1/n, so one model accepts any number of views at inference;
* U-Net trunk: enc1 conv(4->8), down conv(8->8, stride 2), mid conv(8->8),
  nearest x2 upsample + up conv(8->8), skip-concat dec conv(16->8);
* linear head conv(8->1) without a bias, producing a D x H x W score volume.

Scores are negated and softmaxed along D (low cost -> high probability);
the disparity estimate is the probability-weighted mean of d_min..d_max,
the soft-argmin of Kendall et al., "End-to-End Learning of Geometry and
Context for Deep Stereo Regression" (GC-Net, ICCV 2017).  A
zero-initialized head therefore starts from the uniform prior.  The
softmax cancels a constant added to every score, so a head bias could
change no output; the head has none.

Total parameter budget: 10,308 floats.

Everything here is plain numpy; backward passes are wired by hand through
the primitives in layers.py and validated by grad_check.  One private
_forward runs the layer ops for both jobs: backward hands it a tape, a list
on which each op's cache is recorded and which it pops in reverse, while
forward and grad_check pass none, so inference holds no backward state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .costvol import LARGE_COST, CostVolume, check_volumes
from .errors import FormatError, InputError, TrainingError
from .imagery import DisparityMap
from . import layers

# (name, c_in, c_out, stride, bias); order is fixed, and all but the bias
# flag is serialized.  Only the head has no bias (see the module docstring).
LAYER_SPECS = (
    ("stem1", 1, 4, 1, True),
    ("stem2", 4, 4, 1, True),
    ("enc1", 4, 8, 1, True),
    ("down", 8, 8, 2, True),
    ("mid", 8, 8, 1, True),
    ("up", 8, 8, 1, True),
    ("dec", 16, 8, 1, True),
    ("head", 8, 1, 1, False),
)
KERNEL = 3
_STRIDES = {name: stride for name, _, _, stride, _ in LAYER_SPECS}

_MAGIC = b"MFN1"
_VERSION = 2
_TAG_CONV3D = 0


class Conv3d:
    """Parameter container for one convolution layer; b is None without a bias."""

    def __init__(self, w: np.ndarray, b: np.ndarray | None):
        self.w = w
        self.b = b


class FusionNet:
    """The full network: one Conv3d per LAYER_SPECS entry, under its name."""

    def __init__(self, convs: dict[str, Conv3d]):
        for name, c_in, c_out, _, bias in LAYER_SPECS:
            if name not in convs:
                raise InputError(f"missing layer {name!r}")
            conv = convs[name]
            shapes = (conv.w.shape, None if conv.b is None else conv.b.shape)
            if shapes != ((c_out, c_in, KERNEL, KERNEL, KERNEL), (c_out,) if bias else None):
                raise InputError(f"layer {name!r} has wrong parameter shapes")
        self.convs = convs

    @property
    def dtype(self):
        return self.convs["stem1"].w.dtype

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for name, *_ in LAYER_SPECS:
            conv = self.convs[name]
            out.append((f"{name}.w", conv.w))
            if conv.b is not None:
                out.append((f"{name}.b", conv.b))
        return out

    def param_count(self) -> int:
        return sum(arr.size for _, arr in self.parameters())


def init_network(seed: int, dtype=np.float32) -> FusionNet:
    """He-style initialization for hidden layers; the head starts at zero so
    the first forward pass outputs the uniform disparity prior."""
    rng = np.random.default_rng(seed)
    convs = {}
    for name, c_in, c_out, _, bias in LAYER_SPECS:
        shape = (c_out, c_in, KERNEL, KERNEL, KERNEL)
        if name == "head":
            w = np.zeros(shape, dtype=dtype)
        else:
            std = np.sqrt(2.0 / (c_in * KERNEL**3))
            w = (rng.standard_normal(shape) * std).astype(dtype)
        b = np.zeros(c_out, dtype=dtype) if bias else None
        convs[name] = Conv3d(w, b)
    return FusionNet(convs)


def normalize_volume(vol: CostVolume) -> np.ndarray:
    """Input conditioning: clamp sentinels to the largest finite cost, then
    standardize to zero mean/unit variance (float64 statistics)."""
    costs = vol.costs
    finite = costs < LARGE_COST
    if not finite.any():
        return np.zeros_like(costs)
    x = np.minimum(costs, costs[finite].max()).astype(np.float64)
    std = x.std()
    if std < 1e-6:
        return np.zeros_like(costs)
    return ((x - x.mean()) / std).astype(costs.dtype)


def _forward(net: FusionNet, volumes: list[CostVolume], tape: list | None = None):
    """Probabilities (D, H, W) in float64 and the float64 disparity map.

    Each layer op's backward cache is appended to `tape` when one is given,
    in the order the ops run: per view its stem1, ReLU, stem2, ReLU caches,
    then the trunk's, the softmax's last.  Without a tape every cache is
    dropped as soon as its op returns, and `feat` (the stem average, then
    enc1's output) is let go once the skip concat has read it, so only
    activations still to be read stay alive.
    """
    check_volumes(volumes, "forward")
    dtype = net.dtype

    def op(fn, *args):
        out, cache = fn(*args)
        if tape is not None:
            tape.append(cache)
        return out

    def conv(name: str, x: np.ndarray):
        c = net.convs[name]
        return op(layers.conv3d_forward, x, c.w, c.b, _STRIDES[name])

    def conv_relu(name: str, x: np.ndarray):
        return op(layers.relu_forward, conv(name, x))

    for i, vol in enumerate(volumes):
        x = conv_relu("stem2", conv_relu("stem1", normalize_volume(vol).astype(dtype)[None]))
        feat = x if i == 0 else feat + x
    feat = conv_relu("enc1", feat / dtype.type(len(volumes)))
    x = conv_relu("mid", conv_relu("down", feat))
    x = conv_relu("up", op(layers.upsample_nearest_forward, x, feat.shape[1:]))
    x, feat = op(layers.concat_forward, [x, feat]), None
    x = conv_relu("dec", x)
    prob = op(layers.softmax_neg_forward, conv("head", x)[0])
    dvals = np.arange(volumes[0].d_min, volumes[0].d_max + 1, dtype=dtype)
    return prob, np.tensordot(dvals, prob, axes=(0, 0))


def forward(net: FusionNet, volumes: list[CostVolume]) -> tuple[np.ndarray, DisparityMap]:
    """Returns (probability volume (D, H, W), disparity map).

    Per pixel the probabilities sum to 1 and the disparity is their
    expectation over d_min..d_max, so it always lies inside the range.
    """
    prob, disp = _forward(net, volumes)
    return prob, DisparityMap(disp.astype(np.float32))


def _smooth_l1_terms(pred: np.ndarray, gt: DisparityMap, mask: np.ndarray):
    """Mean smooth-L1 error of pred against gt over the masked pixels, and
    its derivative by each masked prediction (float64).  pred, gt and the
    boolean mask must have one shape, and the mask must hold a pixel."""
    if pred.shape != gt.values.shape or mask.shape != gt.values.shape:
        raise InputError(
            f"pred/gt/mask shapes differ: {pred.shape}, {gt.values.shape}, {mask.shape}"
        )
    if not mask.any():
        raise InputError("empty evaluation mask")
    x = pred.astype(np.float64)[mask] - gt.values.astype(np.float64)[mask]
    ax = np.abs(x)
    val = np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)
    grad = np.where(ax < 1.0, x, np.sign(x))
    return float(val.sum() / x.size), grad / x.size


def smooth_l1(pred, gt: DisparityMap, mask: np.ndarray) -> float:
    """Mean smooth-L1 disparity error over the masked pixels (float64)."""
    pred_vals = pred.values if isinstance(pred, DisparityMap) else pred
    return _smooth_l1_terms(pred_vals, gt, np.asarray(mask, dtype=bool))[0]


def backward(
    net: FusionNet, volumes: list[CostVolume], gt: DisparityMap, mask: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact analytic gradients for every parameter.

    Reverse-mode accumulation through the regression, softmax, concat,
    upsampling, ReLUs and convolutions, each op's cache popped off the
    forward's tape; shared stem gradients sum over the input volumes, view 0
    first.  gt and mask must have the volumes' (H, W).
    """
    tape: list = []
    _, disp = _forward(net, volumes, tape)
    mask = np.asarray(mask, dtype=bool)
    loss, grad = _smooth_l1_terms(disp, gt, mask)
    dtype = net.dtype

    g_disp = np.zeros(disp.shape, dtype=np.float64)
    g_disp[mask] = grad
    g_disp = g_disp.astype(dtype)

    # d_hat = sum_k dvals[k] * prob[k]
    dvals = np.arange(volumes[0].d_min, volumes[0].d_max + 1, dtype=dtype)
    dscores = layers.softmax_neg_backward(dvals[:, None, None] * g_disp[None], tape.pop())

    grads: dict[str, np.ndarray] = {}

    def conv_back(name, gout, conv_cache):
        dx, dw, db = layers.conv3d_backward(gout, conv_cache)
        for key, g in ((f"{name}.w", dw), (f"{name}.b", db)):
            if key in grads:
                grads[key] += g
            elif g is not None:
                grads[key] = g
        return dx

    # Arguments evaluate left to right, so each ReLU's mask comes off the
    # tape before the cache of the conv that fed it.
    pop = tape.pop
    ddc = conv_back("head", dscores[None], pop())
    dcat = conv_back("dec", layers.relu_backward(ddc, pop()), pop())
    du1, de1_skip = layers.concat_backward(dcat, pop())
    du0 = conv_back("up", layers.relu_backward(du1, pop()), pop())
    dm0 = layers.upsample_nearest_backward(du0, pop())
    dd0 = conv_back("mid", layers.relu_backward(dm0, pop()), pop())
    de1 = conv_back("down", layers.relu_backward(dd0, pop()), pop()) + de1_skip
    dfeat = conv_back("enc1", layers.relu_backward(de1, pop()), pop())

    # Left on the tape: each view's stem1, ReLU, stem2, ReLU caches, view 0 first.
    dstem_out = dfeat / dtype.type(len(volumes))
    for i in range(0, len(tape), 4):
        c1, m1, c2, m2 = tape[i : i + 4]
        dr1 = conv_back("stem2", layers.relu_backward(dstem_out, m2), c2)
        conv_back("stem1", layers.relu_backward(dr1, m1), c1)

    return loss, grads


def grad_check(
    net: FusionNet,
    sample: tuple[list[CostVolume], DisparityMap, np.ndarray],
    epsilon: float,
    num_checks: int = 60,
    rng_seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    Probes num_checks randomly chosen parameter coordinates and returns the
    maximum relative error |a - n| / max(|a|, |n|, 1).
    """
    volumes, gt, mask = sample
    _, grads = backward(net, volumes, gt, mask)
    params = net.parameters()
    sizes = np.array([arr.size for _, arr in params])
    total = int(sizes.sum())
    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(total, size=min(num_checks, total), replace=False)

    def loss_at() -> float:
        _, disp = _forward(net, volumes)
        return smooth_l1(disp, gt, mask)

    worst = 0.0
    bounds = np.cumsum(sizes)
    for flat_idx in picks:
        p = int(np.searchsorted(bounds, flat_idx, side="right"))
        name, arr = params[p]
        i = int(flat_idx - (bounds[p - 1] if p else 0))
        orig = arr.flat[i]
        arr.flat[i] = orig + epsilon
        lp = loss_at()
        arr.flat[i] = orig - epsilon
        lm = loss_at()
        arr.flat[i] = orig
        numeric = (lp - lm) / (2.0 * epsilon)
        analytic = float(grads[name].flat[i])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
        worst = max(worst, rel)
    return worst


@dataclass
class TrainConfig:
    """Adam training hyperparameters (beta1=0.9, beta2=0.999, eps=1e-8)."""

    learning_rate: float = 1e-3
    epochs: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InputError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        if self.rng_seed < 0:
            raise InputError(f"seed must be >= 0, got {self.rng_seed}")


_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8


def train(
    dataset: list[tuple[list[CostVolume], DisparityMap, np.ndarray]],
    cfg: TrainConfig,
    net: FusionNet | None = None,
) -> tuple[FusionNet, list[float]]:
    """Per-sample Adam training; returns the net and per-epoch mean losses.

    Fully deterministic given cfg.rng_seed (initialization and the per-epoch
    sample order both derive from it).  Aborts with TrainingError if a loss
    turns non-finite or an Adam step leaves a parameter non-finite.
    """
    if not dataset:
        raise InputError("training dataset is empty")
    if net is None:
        net = init_network(cfg.rng_seed)
    rng = np.random.default_rng(cfg.rng_seed + 1)
    params = net.parameters()
    m_state = {name: np.zeros_like(arr) for name, arr in params}
    v_state = {name: np.zeros_like(arr) for name, arr in params}
    step = 0
    log: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        epoch_losses = []
        for idx in order:
            volumes, gt, mask = dataset[idx]
            # A large finite rate can overflow a step, or the next forward;
            # the two checks below report that by name instead of as NumPy
            # warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = backward(net, volumes, gt, mask)
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, sample {int(idx)}"
                    )
                epoch_losses.append(loss)
                step += 1
                bc1 = 1.0 - _ADAM_B1**step
                bc2 = 1.0 - _ADAM_B2**step
                for name, arr in params:
                    g = grads[name]
                    m = m_state[name]
                    v = v_state[name]
                    m *= _ADAM_B1
                    m += (1.0 - _ADAM_B1) * g
                    v *= _ADAM_B2
                    v += (1.0 - _ADAM_B2) * g * g
                    arr -= (
                        cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
                    ).astype(arr.dtype)
            bad = _non_finite_parameter(params)
            if bad is not None:
                raise TrainingError(
                    f"parameter {bad} non-finite after the Adam step at epoch {epoch}, "
                    f"sample {int(idx)}"
                )
        log.append(float(np.mean(epoch_losses)))
    return net, log


def _non_finite_parameter(params: list[tuple[str, np.ndarray]]) -> str | None:
    """Name of the first parameter holding NaN or +-inf, if any."""
    for name, arr in params:
        if not np.isfinite(arr).all():
            return name
    return None


def save_net(net: FusionNet, path) -> None:
    """Versioned little-endian weight file; parameters stored as float32.

    Refuses a net whose stored weights would not be finite: it could only
    infer NaN.
    """
    with np.errstate(over="ignore"):
        stored = [(name, arr.astype("<f4")) for name, arr in net.parameters()]
    bad = _non_finite_parameter(stored)
    if bad is not None:
        raise InputError(f"{path}: parameter {bad} is not finite")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<II", _VERSION, len(LAYER_SPECS))
    for name, c_in, c_out, stride, _ in LAYER_SPECS:
        enc = name.encode("ascii")
        blob += struct.pack("<B", len(enc)) + enc
        blob += struct.pack("<BIIII", _TAG_CONV3D, c_in, c_out, KERNEL, stride)
    for _, arr in stored:
        blob += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def load_net(path) -> FusionNet:
    """Inverse of save_net; bit-exact round trip for float32 nets."""
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"{path}: truncated weight file")
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4) != _MAGIC:
        raise FormatError(f"{path}: bad magic")
    version, n_layers = struct.unpack("<II", take(8))
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if n_layers != len(LAYER_SPECS):
        raise FormatError(f"{path}: expected {len(LAYER_SPECS)} layers, got {n_layers}")

    descriptors = []
    for _ in range(n_layers):
        (name_len,) = struct.unpack("<B", take(1))
        try:
            name = take(name_len).decode("ascii")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: layer name is not ASCII") from None
        tag, c_in, c_out, kernel, stride = struct.unpack("<BIIII", take(17))
        if tag != _TAG_CONV3D:
            raise FormatError(f"{path}: unknown layer tag {tag}")
        if kernel != KERNEL:
            raise FormatError(f"{path}: unsupported kernel size {kernel}")
        descriptors.append((name, c_in, c_out, stride))
    if descriptors != [spec[:4] for spec in LAYER_SPECS]:
        raise FormatError(f"{path}: layer inventory does not match this build")

    def floats(*shape: int) -> np.ndarray:
        raw = take(4 * int(np.prod(shape)))
        return np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)

    convs = {}
    for name, c_in, c_out, _, bias in LAYER_SPECS:
        w = floats(c_out, c_in, KERNEL, KERNEL, KERNEL)
        convs[name] = Conv3d(w, floats(c_out) if bias else None)
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes")
    model = FusionNet(convs)
    bad = _non_finite_parameter(model.parameters())
    if bad is not None:
        raise FormatError(f"{path}: parameter {bad} is not finite")
    return model
