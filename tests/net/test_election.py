"""HeartbeatOmega unit tests on a fake scheduler: grace period, timeout
suspicion, preference order, and link-loss suspicion from transport
evidence (immediate re-election, cleared by the next frame, ignored
after stop and for pids outside the group)."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Tuple

import pytest

from repro.net.election import HeartbeatOmega


class FakeScheduler:
    """``now`` + ``call_after``, advanced by hand."""

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: List[Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]] = []
        self._seq = 0

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        heappush(self._timers, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def advance_to(self, t: float) -> None:
        while self._timers and self._timers[0][0] <= t:
            due, _, fn, args = heappop(self._timers)
            self.now = due
            fn(*args)
        self.now = t


def _omega(own_pid: int, members=(0, 1, 2), **kwargs: Any) -> Tuple[HeartbeatOmega, FakeScheduler, List[int]]:
    sched = FakeScheduler()
    outputs: List[int] = []
    omega = HeartbeatOmega(
        7, list(members), own_pid, sched, lambda: None,
        hb_interval_ms=50.0, suspect_ms=500.0, **kwargs,
    )
    omega.subscribe(lambda gid, leader: outputs.append(leader))
    omega.start()
    return omega, sched, outputs


def test_grace_period_holds_off_suspicion_of_silent_peers():
    omega, sched, outputs = _omega(2, grace_ms=1000.0)
    sched.advance_to(950.0)
    assert not omega.suspected(0) and omega.leader == 0
    sched.advance_to(1100.0)
    assert omega.suspected(0) and omega.suspected(1)
    assert omega.leader == 2  # never heard from anyone: itself
    assert outputs == [0, 2]
    assert omega.suspicions == {"link": 0, "timeout": 2}


def test_silence_longer_than_suspect_ms_is_suspected():
    omega, sched, outputs = _omega(1)
    for t in range(0, 1000, 50):
        sched.advance_to(float(t))
        omega.heard_from(0)
    # Last heard at 950: still trusted 500 ms later, suspected after.
    sched.advance_to(1450.0)
    assert not omega.suspected(0) and omega.leader == 0
    sched.advance_to(1500.0)
    assert omega.suspected(0) and omega.leader == 1
    assert outputs == [0, 1]
    assert omega.suspicions == {"link": 0, "timeout": 2}  # pid 2 never spoke


def test_output_is_first_unsuspected_member_in_preference_order():
    omega, sched, outputs = _omega(2)
    for t in range(0, 1500, 50):
        sched.advance_to(float(t))
        omega.heard_from(1)
    assert omega.suspected(0) and not omega.suspected(1)
    assert omega.leader == 1
    assert outputs == [0, 1]


def test_link_loss_suspects_and_reelects_at_once():
    omega, sched, outputs = _omega(1)
    sched.advance_to(120.0)
    omega.heard_from(0)
    omega.link_lost(0)  # between two ticks: no timer has to fire
    assert omega.suspected(0)
    assert omega.leader == 1 and outputs == [0, 1]
    assert omega.suspicions == {"link": 1, "timeout": 0}
    omega.link_lost(0)  # a repeated report is not a new suspicion
    assert omega.suspicions == {"link": 1, "timeout": 0}


def test_next_frame_from_the_peer_clears_a_link_loss_suspicion():
    omega, sched, outputs = _omega(1)
    sched.advance_to(100.0)
    omega.link_lost(0)
    sched.advance_to(300.0)
    assert omega.leader == 1
    omega.heard_from(0)
    assert not omega.suspected(0)
    sched.advance_to(350.0)  # the next tick re-elects
    assert omega.leader == 0
    assert outputs == [0, 1, 0]


def test_reports_after_stop_and_for_non_members_are_ignored():
    omega, sched, outputs = _omega(1)
    sched.advance_to(100.0)
    omega.link_lost(9)  # not in the group
    omega.link_lost(1)  # itself
    assert not omega.suspected(0) and not omega.suspected(1)
    omega.stop()
    omega.link_lost(0)
    assert not omega.suspected(0)
    assert omega.leader == 0 and outputs == [0]
    assert omega.suspicions == {"link": 0, "timeout": 0}


def test_link_loss_before_start_is_ignored():
    sched = FakeScheduler()
    omega = HeartbeatOmega(7, [0, 1, 2], 1, sched, lambda: None)
    omega.link_lost(0)
    omega.start()
    assert not omega.suspected(0)  # in its grace period, not lost


@pytest.mark.parametrize("bad", [dict(hb_interval_ms=0.0), dict(suspect_ms=-1.0), dict(grace_ms=0.0)])
def test_rejects_non_positive_intervals(bad):
    with pytest.raises(ValueError):
        HeartbeatOmega(7, [0, 1], 0, FakeScheduler(), lambda: None, **bad)
