"""The percentile rule and the saturation-rate estimate."""

import pytest

from stats import percentile, saturation_rate


def test_median_needs_twenty_samples():
    percentile(range(20), 0.50)
    with pytest.raises(ValueError):
        percentile(range(19), 0.50)


def test_percentile_refuses_too_few_samples_beyond():
    samples = list(range(999))
    with pytest.raises(ValueError):
        percentile(samples, 0.99)
    assert percentile(list(range(1000)), 0.99) == 989
    # Exactly ten samples (990..999) lie above the reported value.
    assert sum(1 for x in range(1000) if x > 989) == 10


def test_median_is_nearest_rank():
    assert percentile(list(range(1, 21)), 0.5) == 10


def test_saturation_rate_interpolates_in_log_p99():
    rungs = [(150, 50.0, True), (165, 200.0, False)]
    # log(100/50) / log(200/50) = 0.5 of the step.
    assert saturation_rate(rungs, 100.0) == pytest.approx(157.5)


def test_saturation_rate_edges():
    assert saturation_rate([(50, 5.0, True), (100, 9.0, True)], 100) == 100
    # A rung that failed on backlog, not latency, does not interpolate.
    assert saturation_rate([(150, 50.0, True), (165, 80.0, False)],
                           100) == 150
    assert saturation_rate([(50, 400.0, False)], 100) == pytest.approx(12.5)


def test_saturation_rate_starts_from_the_highest_passing_rung():
    # A stall failed the 100 rps rung; 150 still passed.
    rungs = [(50, 10.0, True), (100, 125.0, False), (150, 50.0, True),
             (165, 200.0, False)]
    assert saturation_rate(rungs, 100.0) == pytest.approx(157.5)
