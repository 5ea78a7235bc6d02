"""Accounting rules of the benchmark (``perfbench/stats.py``)."""

import math

import pytest

from perfbench import stats


def test_nearest_rank_picks_a_sample_without_interpolating():
    values = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert stats.nearest_rank(values, 5) == 15.0
    assert stats.nearest_rank(values, 30) == 20.0
    assert stats.nearest_rank(values, 40) == 20.0
    assert stats.nearest_rank(values, 50) == 35.0
    assert stats.nearest_rank(values, 100) == 50.0
    assert stats.nearest_rank(list(reversed(values)), 50) == 35.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    # 1000 samples: rank 990 is the 99th percentile, 10 samples beyond.
    assert stats.tail_rank(1000) == 990
    # 4000 samples: rank 3990 (the 99.75th percentile) still has 10
    # beyond; the 99th percentile (rank 3960) is not the highest such.
    assert stats.tail_rank(4000) == 3990
    values = list(range(1, 501))
    tail = stats.tail_percentile(values)
    assert tail == 490
    assert sum(1 for v in values if v > tail) == 10
    assert stats.tail_percentile(list(reversed(values))) == 490
    assert stats.tail_rank(11) == 1
    with pytest.raises(ValueError):
        stats.tail_rank(10)


def test_latency_runs_from_the_due_time_and_counts_only_the_window():
    due = {"a": 1.0, "b": 1.5, "c": 3.0, "w": 0.5}
    delivered = {"a": 1.25, "b": 2.5, "c": 3.5, "w": 0.75}
    # "w" is warmup, "c" is after the window; "b" was sent late, but its
    # latency still runs from when it was due.
    assert sorted(stats.latencies_from_due(due, delivered, (1.0, 3.0))) == [0.25, 1.0]


def test_a_message_never_delivered_has_infinite_latency():
    lat = stats.latencies_from_due({"a": 1.0, "b": 1.0}, {"a": 1.5}, (0.0, 2.0))
    assert sorted(lat) == [0.5, math.inf]


def test_lateness_is_submission_minus_due_and_never_negative():
    due = {"a": 1.0, "b": 2.0, "c": 3.0}
    sent = {"a": 1.25, "b": 2.0, "c": 2.999}
    assert stats.lateness(due, sent) == [0.25, 0.0, 0.0]


def test_failed_counts_messages_missing_at_any_correct_destination():
    dest_pids = {"ok": [0, 1], "partial": [0, 1], "lost": [0, 1], "victim": [0, 2]}
    delivered_by = {0: {"ok", "partial", "victim"}, 1: {"ok"}, 2: set()}
    correct = {0, 1}  # pid 2 crashed: its missing delivery does not count
    assert stats.count_failed(dest_pids, dest_pids, delivered_by, correct) == 2
    # A message nobody delivered is failed on its own.
    assert stats.count_failed(["lost"], dest_pids, delivered_by, correct) == 1
    assert stats.count_failed(["ok", "victim"], dest_pids, delivered_by, correct) == 0


def test_time_to_service_waits_for_a_message_due_after_the_instant():
    due = {"old": 0.9, "new1": 1.2, "new2": 1.4}
    first = {"old": 1.8, "new1": 2.0, "new2": 1.9}
    # "old" was due before the instant, so its delivery does not count.
    assert stats.time_to_service([1.0], due, first) == [pytest.approx(0.9)]
    assert stats.time_to_service([0.5], due, first) == [pytest.approx(1.3)]
    assert stats.time_to_service([1.5], due, first) == [math.inf]

