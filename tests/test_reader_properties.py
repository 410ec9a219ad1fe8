"""Property tests for the file readers: PGM, PPM, PFM, .mcv and .mfn.

* Mutated bytes (flipped bytes, truncations, inserted digits, signs, `nan`
  and `1e308`, deleted runs) of a valid file either decode to a container
  that keeps its value contract or raise FormatError/UnsupportedError
  naming the file.  Any other exception fails.
* Files whose headers claim huge sizes are rejected by a process whose
  address space is capped, so no reader sizes an allocation from a header
  field before checking it against the bytes present.
* Random valid containers survive write -> read.  Non-finite values follow
  each format's contract: PFM stores them as invalid (+inf); .mcv costs and
  .mfn weights are refused on write and on read, and so are .mcv costs of
  -0.0 or below.

Examples are derandomized, so a run always draws the same cases.
"""

import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import multiscopic
from multiscopic import (
    ColorImage,
    CostVolume,
    DisparityMap,
    FormatError,
    Image,
    InputError,
    UnsupportedError,
    load_volume,
    read_image,
    write_image,
)
from multiscopic.costvol import LARGE_COST, save_volume
from multiscopic.net import init_network, load_net, save_net

SETTINGS = dict(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

_INSERTS = [b"0", b"7", b"255", b"99999999999", b"-", b"+", b"nan", b"inf", b"1e308",
            b" ", b"\n", b"#", b"\x00", b"\xff"]


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """1-4 mutations of data, half of them inside the first 40 bytes."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        end = len(out)
        pos = draw(st.integers(0, min(end, 40)) | st.integers(0, end))
        op = draw(st.sampled_from(["flip", "truncate", "insert", "delete"]))
        if op == "flip" and pos < end:
            out[pos] ^= draw(st.integers(1, 255))
        elif op == "truncate":
            del out[pos:]
        elif op == "insert":
            out[pos:pos] = draw(st.sampled_from(_INSERTS))
        else:
            del out[pos : pos + draw(st.integers(1, 8))]
    return bytes(out)


def _seed_files(tmp):
    """One small valid file per format and variant: {name: (bytes, reader)}."""
    rng = np.random.default_rng(9)
    gray = Image(rng.integers(0, 256, (3, 4)).astype(np.float32))
    color = ColorImage(rng.integers(0, 256, (2, 3, 3)).astype(np.uint8))
    disp = DisparityMap(np.array([[1.5, np.inf, 0.0], [2.25, 3.0, 1e-3]], dtype=np.float32))
    files = {
        "p5.pgm": (gray, False), "p2.pgm": (gray, True),
        "p6.ppm": (color, False), "p3.ppm": (color, True), "pf.pfm": (disp, False),
    }
    seeds = {}
    for name, (img, ascii_format) in files.items():
        write_image(tmp / name, img, ascii_format=ascii_format)
        seeds[name] = ((tmp / name).read_bytes(), read_image)
    costs = rng.uniform(0, 50, (3, 2, 4)).astype(np.float32)
    costs[0, 0, 0] = LARGE_COST
    save_volume(tmp / "v.mcv", CostVolume(costs, 2, 4))
    seeds["v.mcv"] = ((tmp / "v.mcv").read_bytes(), load_volume)
    save_net(init_network(3), tmp / "w.mfn")
    seeds["w.mfn"] = ((tmp / "w.mfn").read_bytes(), load_net)
    return seeds


def _keeps_contract(obj):
    if isinstance(obj, Image):
        px = obj.pixels
        assert np.isfinite(px).all() and px.min() >= 0 and px.max() <= 255
    elif isinstance(obj, ColorImage):
        assert obj.pixels.dtype == np.uint8
    elif isinstance(obj, DisparityMap):
        assert not np.isnan(obj.values).any() and not np.isneginf(obj.values).any()
    elif isinstance(obj, CostVolume):
        assert np.isfinite(obj.costs).all() and obj.costs.min() >= 0 and not np.signbit(obj.costs).any()
    else:
        assert all(np.isfinite(arr).all() for _, arr in obj.parameters())


@pytest.mark.parametrize("name", ["p5.pgm", "p2.pgm", "p6.ppm", "p3.ppm", "pf.pfm",
                                  "v.mcv", "w.mfn"])
def test_mutated_file_decodes_or_raises_package_error(tmp_path, name):
    seed_bytes, reader = _seed_files(tmp_path)[name]
    path = tmp_path / ("mutant_" + name)

    @settings(max_examples=150, **SETTINGS)
    @given(_mutated(seed_bytes))
    def check(data):
        path.write_bytes(data)
        try:
            obj = reader(path)
        except (FormatError, UnsupportedError) as err:
            assert str(path) in str(err)
            return
        _keeps_contract(obj)

    check()


# ------------------------------------------------------------ round trips

_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))


@settings(max_examples=40, **SETTINGS)
@given(px=arrays(np.uint8, _SHAPES), color=st.booleans(), ascii_format=st.booleans())
def test_netpbm_round_trip(tmp_path, px, color, ascii_format):
    img = ColorImage(np.stack([px, px[::-1], 255 - px], axis=2)) if color else Image(px)
    path = tmp_path / "img.pnm"
    write_image(path, img, ascii_format=ascii_format)
    back = read_image(path)
    assert type(back) is type(img)
    np.testing.assert_array_equal(back.pixels, img.pixels)


_ANY_F32 = st.floats(width=32, allow_nan=True, allow_infinity=True)


@settings(max_examples=40, **SETTINGS)
@given(vals=arrays(np.float32, _SHAPES, elements=_ANY_F32))
def test_pfm_round_trip_stores_non_finite_as_invalid(tmp_path, vals):
    write_image(tmp_path / "d.pfm", DisparityMap(vals))
    back = read_image(tmp_path / "d.pfm")
    want = np.where(np.isfinite(vals), vals, np.inf).astype(np.float32)
    assert back.values.tobytes() == want.tobytes()


_COSTS = arrays(
    np.float32,
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
    elements=st.floats(0, float(LARGE_COST), width=32) | st.just(float(LARGE_COST)),
)
_BAD = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -1e-30, -0.0])
_OUTSIDE_MCV = re.escape("costs must be in [+0.0, +inf)")


@settings(max_examples=40, **SETTINGS)
@given(costs=_COSTS, d_min=st.integers(0, 5), bad=_BAD, where=st.integers(0, 47))
def test_mcv_round_trip_and_cost_contract(tmp_path, costs, d_min, bad, where):
    path = tmp_path / "v.mcv"
    vol = CostVolume(costs, d_min, d_min + costs.shape[0] - 1)
    save_volume(path, vol)
    back = load_volume(path)
    assert (back.d_min, back.d_max) == (vol.d_min, vol.d_max)
    assert back.costs.tobytes() == costs.tobytes()

    if bad != np.inf:  # +inf is a cost in memory, though not in a file
        bad_costs = costs.copy()
        bad_costs.flat[where % costs.size] = bad
        with pytest.raises(InputError, match=re.escape("cost volume: costs must be in [+0.0, +inf]")):
            CostVolume(bad_costs, vol.d_min, vol.d_max)
    vol.costs.flat[where % costs.size] = bad  # after the volume checked its costs
    path.unlink()
    with pytest.raises(InputError, match=_OUTSIDE_MCV):
        save_volume(path, vol)
    assert not path.exists()
    _, h, w = costs.shape
    path.write_bytes(struct.pack("<4siiii", b"MCV1", vol.d_min, vol.d_max, w, h)
                     + vol.costs.astype("<f4").tobytes())
    with pytest.raises(FormatError, match=_OUTSIDE_MCV):
        load_volume(path)


@settings(max_examples=10, **SETTINGS)
@given(seed=st.integers(0, 2**32 - 1), where=st.integers(0, 10**6),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, 1e39]))
def test_mfn_round_trip_and_weight_contract(tmp_path, seed, where, bad):
    path = tmp_path / "w.mfn"
    net = init_network(seed)
    save_net(net, path)
    back = load_net(path)
    for (name, a), (_, b) in zip(net.parameters(), back.parameters()):
        assert a.tobytes() == b.tobytes(), name

    # the same weight, non-finite once stored as float32, is refused on write
    net64 = init_network(seed, dtype=np.float64)
    k = where % net.param_count()
    for name, arr in net64.parameters():
        if k < arr.size:
            arr.flat[k] = bad
            break
        k -= arr.size
    bad_path = tmp_path / "bad.mfn"
    with pytest.raises(InputError, match=f"parameter {name} is not finite"):
        save_net(net64, bad_path)
    assert not bad_path.exists()

    # and on read, patched into the stored float32 stream
    raw = bytearray(path.read_bytes())
    off = len(raw) - 4 * (net.param_count() - where % net.param_count())
    with np.errstate(over="ignore"):
        raw[off : off + 4] = np.array(bad, dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"parameter {name} is not finite"):
        load_net(path)


# Run in a child process whose address space is capped at its size after the
# imports plus 256 MiB, so a reader that sized an allocation from a header
# field would hit MemoryError instead of succeeding on lazily mapped pages.
_BOUNDED_READER = """\
import resource, sys
import numpy as np
from multiscopic import FormatError, UnsupportedError, load_volume, read_image
from multiscopic.net import load_net

with open("/proc/self/status") as fh:
    vm = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (vm + (256 << 20), resource.RLIM_INFINITY))
try:
    np.ones(1 << 30, dtype=np.uint8)
    print("unbounded")
except MemoryError:
    print("bounded")
for path in sys.argv[1:]:
    reader = {"mcv": load_volume, "mfn": load_net}.get(path.rsplit(".", 1)[1], read_image)
    try:
        reader(path)
        print("decoded")
    except (FormatError, UnsupportedError):
        print("rejected")
    except MemoryError:
        print("MemoryError")
"""

_HUGE = 65535


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_hostile_headers_are_rejected_in_bounded_memory(tmp_path):
    hostile = {
        "p5.pgm": b"P5\n%d %d\n255\n" % (_HUGE, _HUGE) + bytes(16),
        "p2.pgm": b"P2\n%d %d\n255\n" % (_HUGE, _HUGE) + b"1 2 3\n" * 64,
        "p6.ppm": b"P6\n%d %d\n255\n" % (_HUGE, _HUGE) + bytes(16),
        "pf.pfm": b"Pf\n%d %d\n-1\n" % (_HUGE, _HUGE) + bytes(16),
        "dmax.mcv": struct.pack("<4siiii", b"MCV1", 0, 2**31 - 1, 64, 64) + bytes(16),
        "layers.mfn": b"MFN1" + struct.pack("<II", 2, 2**32 - 1) + bytes(64),
        # 3 MiB of separators before a bad width: a header scanner that
        # kept state per separator would need far more than the cap
        "spaces.pgm": b"P2" + b" " * (3 << 20) + b"x",
        "comments.pgm": b"P2" + b"#\n" * (3 << 19) + b"x",
    }
    paths = []
    for name, data in hostile.items():
        (tmp_path / name).write_bytes(data)
        paths.append(str(tmp_path / name))
    # A valid file of each reader's kind still decodes under the cap.
    write_image(tmp_path / "ok.pfm", DisparityMap(np.ones((64, 64), np.float32)))
    save_volume(tmp_path / "ok.mcv", CostVolume(np.ones((4, 64, 64), np.float32), 1, 4))
    save_net(init_network(0), tmp_path / "ok.mfn")
    paths += [str(tmp_path / n) for n in ("ok.pfm", "ok.mcv", "ok.mfn")]

    src_root = str(Path(multiscopic.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src_root + (os.pathsep + inherited if inherited else ""))
    proc = subprocess.run([sys.executable, "-c", _BOUNDED_READER, *paths],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["bounded"] + ["rejected"] * 8 + ["decoded"] * 3, proc.stdout
