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
the primitives in layers.py and validated by grad_check.
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

_MAGIC = b"MFN1"
_VERSION = 2
_TAG_CONV3D = 0


class Conv3d:
    """Parameter container for one convolution layer; b is None without a bias."""

    def __init__(self, w: np.ndarray, b: np.ndarray | None, stride: int):
        self.w = w
        self.b = b
        self.stride = stride


class FusionNet:
    """The full network: one Conv3d per LAYER_SPECS entry, under its name."""

    def __init__(self, convs: dict[str, Conv3d]):
        for name, c_in, c_out, stride, bias in LAYER_SPECS:
            if name not in convs:
                raise InputError(f"missing layer {name!r}")
            conv = convs[name]
            shapes = (conv.w.shape, None if conv.b is None else conv.b.shape)
            if shapes != ((c_out, c_in, KERNEL, KERNEL, KERNEL), (c_out,) if bias else None):
                raise InputError(f"layer {name!r} has wrong parameter shapes")
            if conv.stride != stride:
                raise InputError(f"layer {name!r} stride {conv.stride} != {stride}")
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
    for name, c_in, c_out, stride, bias in LAYER_SPECS:
        shape = (c_out, c_in, KERNEL, KERNEL, KERNEL)
        if name == "head":
            w = np.zeros(shape, dtype=dtype)
        else:
            std = np.sqrt(2.0 / (c_in * KERNEL**3))
            w = (rng.standard_normal(shape) * std).astype(dtype)
        b = np.zeros(c_out, dtype=dtype) if bias else None
        convs[name] = Conv3d(w, b, stride)
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


def _forward_cached(net: FusionNet, volumes: list[CostVolume]):
    check_volumes(volumes, "forward")
    dtype = net.dtype
    cv = net.convs
    n = len(volumes)

    stem_caches = []
    feat = None
    for vol in volumes:
        x = normalize_volume(vol).astype(dtype)[None]
        o1, c1 = layers.conv3d_forward(x, cv["stem1"].w, cv["stem1"].b)
        r1, m1 = layers.relu_forward(o1)
        o2, c2 = layers.conv3d_forward(r1, cv["stem2"].w, cv["stem2"].b)
        r2, m2 = layers.relu_forward(o2)
        stem_caches.append((c1, m1, c2, m2))
        feat = r2 if feat is None else feat + r2
    feat = feat / dtype.type(n) if n > 1 else feat

    oe, ce = layers.conv3d_forward(feat, cv["enc1"].w, cv["enc1"].b)
    e1, me = layers.relu_forward(oe)
    od, cd = layers.conv3d_forward(e1, cv["down"].w, cv["down"].b, stride=2)
    d0, md = layers.relu_forward(od)
    om, cm = layers.conv3d_forward(d0, cv["mid"].w, cv["mid"].b)
    m0, mm = layers.relu_forward(om)
    u0, cu0 = layers.upsample_nearest_forward(m0, e1.shape[1:])
    ou, cu = layers.conv3d_forward(u0, cv["up"].w, cv["up"].b)
    u1, mu = layers.relu_forward(ou)
    cat, ccat = layers.concat_forward([u1, e1])
    oc, cdec = layers.conv3d_forward(cat, cv["dec"].w, cv["dec"].b)
    dc, mdec = layers.relu_forward(oc)
    scores4, chead = layers.conv3d_forward(dc, cv["head"].w, cv["head"].b)
    scores = scores4[0]

    prob, psm = layers.softmax_neg_forward(scores)
    dvals = np.arange(volumes[0].d_min, volumes[0].d_max + 1, dtype=dtype)
    disp = np.tensordot(dvals, prob, axes=(0, 0))

    cache = dict(
        n=n, stem_caches=stem_caches,
        ce=ce, me=me, cd=cd, md=md, cm=cm, mm=mm, cu0=cu0, cu=cu, mu=mu,
        ccat=ccat, cdec=cdec, mdec=mdec, chead=chead,
        psm=psm, prob=prob, dvals=dvals, disp=disp,
    )
    return prob, disp, cache


def forward(net: FusionNet, volumes: list[CostVolume]) -> tuple[np.ndarray, DisparityMap]:
    """Returns (probability volume (D, H, W), disparity map).

    Per pixel the probabilities sum to 1 and the disparity is their
    expectation over d_min..d_max, so it always lies inside the range.
    """
    prob, disp, _ = _forward_cached(net, volumes)
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
    upsampling, ReLUs and convolutions; shared stem gradients sum over the
    input volumes.  gt and mask must have the volumes' (H, W).
    """
    prob, disp, cache = _forward_cached(net, volumes)
    mask = np.asarray(mask, dtype=bool)
    loss, grad = _smooth_l1_terms(disp, gt, mask)
    dtype = net.dtype
    cv = net.convs

    g_disp = np.zeros(disp.shape, dtype=np.float64)
    g_disp[mask] = grad
    g_disp = g_disp.astype(dtype)

    # d_hat = sum_k dvals[k] * prob[k]
    dprob = cache["dvals"][:, None, None] * g_disp[None]
    dscores = layers.softmax_neg_backward(dprob, cache["psm"])

    grads: dict[str, np.ndarray] = {}

    def conv_back(name, gout, conv_cache):
        dx, dw, db = layers.conv3d_backward(gout, conv_cache)
        for key, g in ((f"{name}.w", dw), (f"{name}.b", db)):
            if key in grads:
                grads[key] += g
            elif g is not None:
                grads[key] = g
        return dx

    ddc = conv_back("head", dscores[None], cache["chead"])
    dcat = conv_back("dec", layers.relu_backward(ddc, cache["mdec"]), cache["cdec"])
    du1, de1_skip = layers.concat_backward(dcat, cache["ccat"])
    du0 = conv_back("up", layers.relu_backward(du1, cache["mu"]), cache["cu"])
    dm0 = layers.upsample_nearest_backward(du0, cache["cu0"])
    dd0 = conv_back("mid", layers.relu_backward(dm0, cache["mm"]), cache["cm"])
    de1 = conv_back("down", layers.relu_backward(dd0, cache["md"]), cache["cd"])
    de1 = de1 + de1_skip
    dfeat = conv_back("enc1", layers.relu_backward(de1, cache["me"]), cache["ce"])

    n = cache["n"]
    dstem_out = dfeat / dtype.type(n) if n > 1 else dfeat
    for c1, m1, c2, m2 in cache["stem_caches"]:
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
        _, disp, _ = _forward_cached(net, volumes)
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
    for name, c_in, c_out, stride, bias in LAYER_SPECS:
        w = floats(c_out, c_in, KERNEL, KERNEL, KERNEL)
        convs[name] = Conv3d(w, floats(c_out) if bias else None, stride)
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes")
    model = FusionNet(convs)
    bad = _non_finite_parameter(model.parameters())
    if bad is not None:
        raise FormatError(f"{path}: parameter {bad} is not finite")
    return model
