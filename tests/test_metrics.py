"""RMS / AvgErr / Bad[t] metrics and dataset aggregation."""

import numpy as np
import pytest

from multiscopic import DisparityMap, InputError, evaluate, evaluate_dataset
from multiscopic.metrics import DEFAULT_THRESHOLDS, format_table


def _dm(arr):
    return DisparityMap(np.asarray(arr, dtype=np.float32))


# ------------------------------------------------------------------ examples


def test_perfect_prediction_all_zero():
    gt = _dm([[1.0, 2.0], [3.0, 4.0]])
    rep = evaluate(gt, gt)
    assert rep.rms == 0.0
    assert rep.avg_err == 0.0
    assert all(v == 0.0 for v in rep.bad.values())
    assert rep.count == 4


def test_uniform_offset_one():
    gt = _dm([[1.0, 2.0], [3.0, 4.0]])
    pred = _dm([[2.0, 3.0], [4.0, 5.0]])
    rep = evaluate(pred, gt)
    assert rep.rms == pytest.approx(1.0)
    assert rep.avg_err == pytest.approx(1.0)
    assert rep.bad[0.5] == pytest.approx(100.0)
    assert rep.bad[1.0] == pytest.approx(0.0)  # strictly greater than t
    assert rep.bad[2.0] == pytest.approx(0.0)


def test_half_off_by_two():
    gt = _dm([[0.0, 0.0, 0.0, 0.0]])
    pred = _dm([[0.0, 0.0, 2.0, 2.0]])
    rep = evaluate(pred, gt)
    assert rep.avg_err == pytest.approx(1.0)
    assert rep.rms == pytest.approx(np.sqrt(2.0))
    assert rep.bad[1.0] == pytest.approx(50.0)
    assert rep.bad[2.0] == pytest.approx(0.0)


def test_error_sign_symmetric():
    gt = _dm([[5.0, 5.0]])
    a = evaluate(_dm([[3.0, 3.0]]), gt)
    b = evaluate(_dm([[7.0, 7.0]]), gt)
    assert a.rms == b.rms and a.avg_err == b.avg_err and a.bad == b.bad


# ------------------------------------------------------------- invalid pixels


def test_invalid_gt_pixels_excluded_everywhere():
    gt = _dm([[1.0, np.inf]])
    pred = _dm([[1.0, 99.0]])
    rep = evaluate(pred, gt)
    assert rep.count == 1
    assert rep.avg_err == 0.0
    assert rep.bad[1.0] == 0.0


def test_invalid_prediction_penalized_by_default():
    gt = _dm([[1.0, 2.0]])
    pred = _dm([[1.0, np.inf]])
    rep = evaluate(pred, gt)
    # missing prediction at a gt-valid pixel fails every threshold
    assert rep.count == 1
    assert rep.bad[0.5] == pytest.approx(50.0)
    assert rep.bad[2.0] == pytest.approx(50.0)
    # rms/avg_err stay over the jointly valid population
    assert rep.avg_err == 0.0


def test_invalid_prediction_ignored_when_not_penalizing():
    gt = _dm([[1.0, 2.0]])
    pred = _dm([[1.0, np.inf]])
    rep = evaluate(pred, gt, penalize_invalid=False)
    assert rep.bad[0.5] == 0.0


def test_no_jointly_valid_pixels_rejected():
    gt = _dm([[np.inf]])
    pred = _dm([[1.0]])
    with pytest.raises(InputError):
        evaluate(pred, gt)
    with pytest.raises(InputError):
        evaluate(_dm([[np.inf]]), _dm([[1.0]]))


def test_shape_mismatch_rejected():
    with pytest.raises(InputError):
        evaluate(_dm([[1.0]]), _dm([[1.0, 2.0]]))


# ------------------------------------------------------------------ structure


def test_bad_strictly_greater_than_threshold():
    gt = _dm([[0.0]])
    pred = _dm([[1.0]])
    rep = evaluate(pred, gt, thresholds=(1.0,))
    assert rep.bad[1.0] == 0.0
    rep2 = evaluate(_dm([[1.0 + 1e-3]]), gt, thresholds=(1.0,))
    assert rep2.bad[1.0] == pytest.approx(100.0)


def test_metric_relationships_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        gt = _dm(rng.uniform(0, 20, size=(8, 8)))
        pred = _dm(np.asarray(gt.values) + rng.normal(0, 2, size=(8, 8)))
        rep = evaluate(pred, gt)
        assert rep.rms >= rep.avg_err - 1e-12  # Cauchy-Schwarz
        ts = sorted(rep.bad)
        assert all(rep.bad[a] >= rep.bad[b] for a, b in zip(ts, ts[1:]))
        assert 0.0 <= rep.bad[ts[0]] <= 100.0


def test_scale_with_errors():
    gt = _dm(np.zeros((4, 4)))
    small = evaluate(_dm(np.full((4, 4), 0.5)), gt)
    large = evaluate(_dm(np.full((4, 4), 3.0)), gt)
    assert large.rms > small.rms
    assert large.avg_err > small.avg_err


# ------------------------------------------------------------------- dataset


def test_dataset_single_scene_equals_aggregate():
    gt = _dm([[1.0, 2.0]])
    pred = _dm([[1.5, 2.0]])
    agg, reports, table = evaluate_dataset([(pred, gt)])
    assert len(reports) == 1
    assert agg.rms == reports[0].rms
    assert agg.avg_err == reports[0].avg_err


def test_dataset_aggregate_is_unweighted_mean():
    gt_a = _dm(np.zeros((2, 2)))
    gt_b = _dm(np.zeros((4, 4)))  # different pixel counts on purpose
    pred_a = _dm(np.full((2, 2), 1.0))
    pred_b = _dm(np.full((4, 4), 3.0))
    agg, reports, _ = evaluate_dataset([(pred_a, gt_a), (pred_b, gt_b)])
    assert agg.avg_err == pytest.approx((1.0 + 3.0) / 2.0)
    assert agg.rms == pytest.approx((1.0 + 3.0) / 2.0)


def test_dataset_error_names_the_scene():
    good = (_dm([[1.0]]), _dm([[1.0]]))
    bad = (_dm([[1.0]]), _dm([[np.inf]]))
    with pytest.raises(InputError, match="scene broken"):
        evaluate_dataset([good, bad], names=["fine", "broken"])


def test_table_layout():
    gt = _dm([[1.0, 2.0]])
    pred = _dm([[2.0, 2.0]])
    agg, reports, table = evaluate_dataset([(pred, gt)], names=["s0"])
    lines = table.strip().split("\n")
    assert lines[0].split("\t") == ["scene", "RMS", "AvgErr", "Bad0.5", "Bad1", "Bad2"]
    assert lines[1].split("\t")[0] == "s0"
    assert lines[-1].split("\t")[0] == "mean"
    assert len(lines) == 3
    # custom thresholds flow into the header
    _, _, t2 = evaluate_dataset([(pred, gt)], thresholds=(0.25,))
    assert "Bad0.25" in t2.split("\n")[0]


def test_dataset_requires_pairs():
    with pytest.raises(InputError):
        evaluate_dataset([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_meaningless_threshold_rejected(bad):
    pair = (_dm([[1.0]]), _dm([[1.5]]))
    for call in (lambda: evaluate(*pair, thresholds=(1.0, bad)),
                 lambda: evaluate_dataset([pair], thresholds=(bad,))):
        with pytest.raises(InputError, match=f"threshold must be finite and >= 0, got {bad}"):
            call()


def test_zero_threshold_counts_every_error():
    rep = evaluate(_dm([[1.0, 2.5]]), _dm([[1.0, 2.0]]), thresholds=(0.0,))
    assert rep.bad[0.0] == pytest.approx(50.0)
