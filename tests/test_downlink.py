import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphutil import brute_force_hybrid_accuracy
from tinydeploy.downlink import (
    DownlinkError,
    DownlinkScenario,
    LinkBudget,
    simulate,
)
from tinydeploy.executor import InferenceRecord

SBAND = LinkBudget("sband", 256_000, 4, 600.0)
UHF = LinkBudget("uhf", 9_600, 4, 600.0)


def records_with(confidences, correct_flags=None, prefix="s"):
    correct_flags = correct_flags or [True] * len(confidences)
    return [
        InferenceRecord(f"{prefix}{i:05d}", 1 if ok else 0, c, 1)
        for i, (c, ok) in enumerate(zip(confidences, correct_flags))
    ]


def test_daily_budget_formula():
    assert SBAND.daily_budget_bytes == 256_000 * 600 * 4 / 8  # 76.8 MB
    assert SBAND.daily_budget_bytes == pytest.approx(76.8e6)
    assert UHF.daily_budget_bytes == pytest.approx(2.88e6)


def test_zero_rate_link_rejected():
    with pytest.raises(DownlinkError):
        LinkBudget("bad", 0, 4, 600.0)
    with pytest.raises(DownlinkError):
        LinkBudget("bad", 9600, 0, 600.0)


def test_eurosat_paper_arithmetic():
    # 5400 samples at 12.3 KB, 768 below the 0.95 threshold
    confidences = [0.5] * 768 + [0.99] * (5400 - 768)
    scenario = DownlinkScenario(
        bytes_per_sample=12_300.0,
        threshold=0.95,
        onboard_records=records_with(confidences),
    )
    report = simulate(scenario, SBAND)
    assert report.full_volume_bytes == pytest.approx(66.4e6, abs=0.1e6)
    assert report.transmitted_count == 768
    assert report.transmitted_volume_bytes == pytest.approx(9.45e6, abs=0.01e6)
    assert report.reduction_pct == pytest.approx(85.78, abs=0.05)
    assert report.fits_daily_budget  # 9.45 MB < 76.8 MB/day


def test_threshold_one_everything_transmitted():
    scenario = DownlinkScenario(
        bytes_per_sample=100.0,
        threshold=1.0,
        onboard_records=records_with([0.3, 0.5, 0.9, 0.99, 0.1, 0.2, 0.4, 0.6, 0.7, 0.8]),
    )
    report = simulate(scenario, SBAND)
    assert report.transmitted_count == 10
    assert report.reduction_pct == 0.0


def test_strict_inequality_at_threshold():
    scenario = DownlinkScenario(
        bytes_per_sample=1.0,
        threshold=0.95,
        onboard_records=records_with([0.95, 0.9499999, 0.96]),
    )
    report = simulate(scenario, SBAND)
    assert report.transmitted_count == 1  # only the strictly-below sample


def test_hybrid_accuracy_enumerated_example():
    # 8 confident (7 correct onboard), 2 transmitted (both correct on ground)
    confidences = [0.99] * 8 + [0.5] * 2
    onboard_ok = [True] * 7 + [False] + [False, False]
    onboard = records_with(confidences, onboard_ok)
    ground = records_with([1.0] * 10, [False] * 8 + [True, True])
    scenario = DownlinkScenario(
        bytes_per_sample=1.0, threshold=0.95,
        onboard_records=onboard, ground_records=ground,
    )
    report = simulate(scenario, SBAND)
    assert report.hybrid_accuracy == pytest.approx(0.90)


def test_hybrid_disabled_without_ground_records():
    scenario = DownlinkScenario(
        bytes_per_sample=1.0, threshold=0.5,
        onboard_records=records_with([0.4, 0.9]),
    )
    assert simulate(scenario, SBAND).hybrid_accuracy is None


def test_mismatched_record_sets_rejected():
    onboard = records_with([0.5, 0.9])
    ground = records_with([0.5], prefix="g")
    with pytest.raises(DownlinkError, match="different sample sets"):
        DownlinkScenario(
            bytes_per_sample=1.0, threshold=0.5,
            onboard_records=onboard, ground_records=ground,
        )


@pytest.mark.parametrize("side", ["onboard", "ground"])
def test_repeated_sample_id_rejected(side):
    # Records are matched by sample id, so a repeated id would count one
    # sample twice: here, s0 transmitted and both of its ground records
    # right would give a hybrid accuracy of 1.5.
    onboard = [InferenceRecord("s0", 0, 0.4, 1), InferenceRecord("s1", 1, 0.9, 1)]
    ground = [InferenceRecord("s0", 1, 1.0, 1), InferenceRecord("s1", 1, 1.0, 1)]
    if side == "onboard":
        onboard.append(InferenceRecord("s0", 0, 0.9, 1))
    else:
        ground.append(InferenceRecord("s0", 1, 1.0, 1))
    with pytest.raises(DownlinkError, match=f"{side} records repeat sample id 's0'"):
        DownlinkScenario(
            bytes_per_sample=1.0, threshold=0.5,
            onboard_records=onboard, ground_records=ground,
        )


def test_threshold_out_of_range_rejected():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DownlinkError, match="threshold"):
            DownlinkScenario(
                bytes_per_sample=1.0, threshold=bad,
                onboard_records=records_with([0.5]),
            )


@pytest.mark.parametrize("bad", [0.0, -12288.0, float("nan"), float("inf")])
def test_bytes_per_sample_not_finite_and_positive_rejected(bad):
    with pytest.raises(DownlinkError, match=f"bytes_per_sample {bad} must be finite and > 0"):
        DownlinkScenario(bytes_per_sample=bad, threshold=0.5, onboard_records=records_with([0.5]))


def test_transmitted_volume_exact():
    scenario = DownlinkScenario(
        bytes_per_sample=123.0, threshold=0.9,
        onboard_records=records_with([0.1, 0.95, 0.2, 0.99]),
    )
    report = simulate(scenario, SBAND)
    assert report.transmitted_volume_bytes == 2 * 123.0


def test_permutation_invariance():
    rng = np.random.default_rng(0)
    confidences = rng.uniform(0, 1, size=50).tolist()
    flags = (rng.uniform(0, 1, size=50) < 0.7).tolist()
    onboard = records_with(confidences, flags)
    ground = records_with([1.0] * 50, [True] * 50)
    base = simulate(
        DownlinkScenario(10.0, 0.9, onboard, ground), SBAND
    )
    perm = rng.permutation(50)
    shuffled = simulate(
        DownlinkScenario(10.0, 0.9, [onboard[i] for i in perm], [ground[i] for i in perm]),
        SBAND,
    )
    assert base == shuffled


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=19))
@settings(max_examples=100, deadline=None)
def test_threshold_monotonicity_property(confidences, step):
    onboard = records_with(confidences)
    lo = simulate(DownlinkScenario(1.0, step * 0.05, onboard), SBAND)
    hi = simulate(DownlinkScenario(1.0, min(1.0, step * 0.05 + 0.05), onboard), SBAND)
    assert hi.transmitted_count >= lo.transmitted_count


def test_hybrid_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = 100
        confidences = rng.uniform(0, 1, size=n).tolist()
        onboard_ok = (rng.uniform(0, 1, size=n) < 0.6).tolist()
        ground_ok = (rng.uniform(0, 1, size=n) < 0.9).tolist()
        onboard = records_with(confidences, onboard_ok)
        ground = records_with([1.0] * n, ground_ok)
        report = simulate(DownlinkScenario(1.0, 0.95, onboard, ground), SBAND)
        expect = brute_force_hybrid_accuracy(onboard, ground, 0.95)
        assert report.hybrid_accuracy == pytest.approx(expect, abs=1e-12)


def test_hybrid_dominates_when_ground_stronger():
    rng = np.random.default_rng(7)
    n = 200
    confidences = rng.uniform(0, 1, size=n).tolist()
    onboard_ok = (rng.uniform(0, 1, size=n) < 0.5).tolist()
    onboard = records_with(confidences, onboard_ok)
    ground = records_with([1.0] * n, [True] * n)  # perfect ground model
    report = simulate(DownlinkScenario(1.0, 0.95, onboard, ground), SBAND)
    assert report.hybrid_accuracy >= report.onboard_accuracy
