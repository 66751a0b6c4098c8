"""The op_tail_s percentile rule and the span self-time rule."""

import statistics

import pytest

from stats import covered, self_time, tail


def test_tail_is_the_slowest_op_below_21_ops():
    for n in (1, 3, 10, 11, 20):
        samples = [float(i) for i in range(n)]
        assert tail(samples) == (float(n - 1), 100.0, 0)


def test_tail_leaves_exactly_ten_ops_beyond_it():
    samples = [float(i) for i in range(100)]
    value, pct, beyond = tail(samples)
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert sum(1 for x in samples if x > value) == 10


def test_tail_at_21_ops_is_above_the_median():
    samples = [float(i) for i in range(21)]
    value, pct, beyond = tail(samples)
    assert value == 10.0 and beyond == 10
    assert pct == pytest.approx(100 * 11 / 21)
    assert value >= statistics.median(samples)


def test_tail_ignores_sample_order():
    samples = [5.0, 1.0, 9.0, 3.0] * 10
    assert tail(samples) == tail(sorted(samples))


def test_tail_needs_a_sample():
    with pytest.raises(ValueError):
        tail([])


def test_self_time_subtracts_nested_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0), (4.0, 6.0)]) == 4.0


def test_self_time_clips_children_to_the_span():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0


def test_self_time_without_children_is_the_duration():
    assert self_time(1.5, 4.0, []) == 2.5
    assert covered([(3.0, 3.0)], 0.0, 10.0) == 0.0
