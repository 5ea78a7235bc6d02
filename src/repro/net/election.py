"""Heartbeat-based leader oracle Ω for the asyncio backend (§2.1).

The simulation's :class:`~repro.election.omega.OmegaOracle` reads each
process's ``crashed`` flag — local knowledge that does not exist across
OS processes. The net backend implements the same oracle abstraction
with the classic partially-synchronous construction [Aguilera et al.,
DISC'01]: every node heartbeats its group peers at a fixed interval; a
peer not heard from within the suspicion timeout is suspected; the
output is the first non-suspected member in preference order. Both
implementations satisfy :class:`repro.net.runtime.LeaderOracle`, so the
protocol process cannot tell them apart.

Crash evidence from the transport shortens detection: when a peer's
link ends and its listener refuses a confirm-dial (its process is gone,
and the kernel closed its sockets), the node calls :meth:`link_lost` and
the oracle suspects that peer at once and re-elects right away, instead
of waiting out the silence timeout. The next frame heard from the peer
clears the suspicion. Ω only needs *eventual* accuracy, so an early
suspicion backed by evidence keeps the protocol safe. The timeout stays
as the backstop: a failure that leaves no refused dial behind — a host
crash, a network partition, a hung process whose sockets stay open —
still pays the full ``suspect_ms``.

Startup matches the sim: the initial output is the group's first member
(the configured initial primary), and every peer starts with a startup
grace period (``grace_ms``, default the suspicion timeout) so a slow
first heartbeat does not trigger a spurious election while the cluster
is still wiring up. All three intervals are carried in the Topology
JSON, so a bench can stretch the heartbeat cadence instead of paying
oracle traffic on the measured path.

Callbacks fire from scheduler context (the oracle's tick is a scheduler
timer, and the node posts :meth:`link_lost` through the scheduler too),
preserving the same serialisation the sim oracle provides.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Set

LeaderCallback = Callable[[int, int], None]  # (group_id, leader_pid)

#: Defaults tuned for localhost clusters: no false suspicions under
#: normal scheduling jitter. A crashed process whose sockets close is
#: detected by the transport's confirm-dial within milliseconds; the
#: suspicion timeout bounds detection of silent failures (host crash,
#: partition, hung process).
DEFAULT_HB_INTERVAL_MS = 50.0
DEFAULT_SUSPECT_MS = 500.0


class HeartbeatOmega:
    """Leader oracle for one group, driven by heartbeat receipt times.

    Args:
        group_id: the group this oracle serves.
        members: group member pids in preference order (first correct
            member wins — same rule as the sim oracle).
        own_pid: the hosting node's pid (never suspected locally).
        scheduler: the node's scheduler facade (timers + ``now``).
        send_heartbeat: callback emitting one heartbeat round to the
            group peers (wired to the node's transport).
        hb_interval_ms: heartbeat/evaluation period.
        suspect_ms: silence threshold before a peer is suspected.
        grace_ms: startup window during which a never-heard peer is not
            suspected (``None`` — the default — means ``suspect_ms``,
            the pre-configurable behaviour).
    """

    def __init__(
        self,
        group_id: int,
        members: List[int],
        own_pid: int,
        scheduler: Any,
        send_heartbeat: Callable[[], None],
        hb_interval_ms: float = DEFAULT_HB_INTERVAL_MS,
        suspect_ms: float = DEFAULT_SUSPECT_MS,
        grace_ms: float | None = None,
    ) -> None:
        if not members:
            raise ValueError("group must have at least one member")
        if hb_interval_ms <= 0 or suspect_ms <= 0:
            raise ValueError("heartbeat and suspicion intervals must be positive")
        if grace_ms is not None and grace_ms <= 0:
            raise ValueError("grace period must be positive")
        self.group_id = group_id
        self.members = list(members)
        self.own_pid = own_pid
        self.scheduler = scheduler
        self.send_heartbeat = send_heartbeat
        self.hb_interval_ms = hb_interval_ms
        self.suspect_ms = suspect_ms
        self.grace_ms = suspect_ms if grace_ms is None else grace_ms
        self.leader = members[0]
        self._subscribers: List[LeaderCallback] = []
        self._last_heard: Dict[int, float] = {}
        #: Peers suspected on link-loss evidence, until heard from again.
        self._lost: Set[int] = set()
        #: Peers currently suspected (either cause), for the counts below.
        self._suspects: Set[int] = set()
        #: Suspicions raised, by cause: ``link`` (transport evidence) or
        #: ``timeout`` (``suspect_ms`` of silence).
        self.suspicions: Dict[str, int] = {"link": 0, "timeout": 0}
        self._running = False

    # -- oracle interface (LeaderOracle) ---------------------------------

    def subscribe(self, callback: LeaderCallback) -> None:
        """Register ``callback(group_id, leader_pid)``; fires immediately
        with the current output (Ω always has an output)."""
        self._subscribers.append(callback)
        callback(self.group_id, self.leader)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Prime the grace period and start the heartbeat/suspect timer.

        A peer never heard from counts as last heard at ``now +
        grace_ms - suspect_ms``: suspicion starts exactly ``grace_ms``
        after start, independent of the suspicion threshold.
        """
        if self._running:
            return
        self._running = True
        primed = self.scheduler.now + self.grace_ms - self.suspect_ms
        for pid in self.members:
            if pid != self.own_pid:
                self._last_heard[pid] = primed
        self.scheduler.call_after(self.hb_interval_ms, self._tick)

    def stop(self) -> None:
        self._running = False

    def heard_from(self, pid: int) -> None:
        """Record a heartbeat (or any frame) from a group member; a
        link-loss suspicion of ``pid`` ends here."""
        self._last_heard[pid] = self.scheduler.now
        if self._lost:
            self._lost.discard(pid)

    def link_lost(self, pid: int) -> None:
        """Transport evidence that ``pid`` crashed: suspect it at once
        and re-elect. Must run in scheduler context (the node posts it
        with ``call_after(0, ...)``). Ignored after :meth:`stop` and for
        pids outside the group."""
        if not self._running or pid == self.own_pid or pid not in self.members:
            return
        self._lost.add(pid)
        self._elect_and_notify()

    def suspected(self, pid: int) -> bool:
        """True when ``pid`` is currently suspected by this node."""
        if pid == self.own_pid:
            return False
        if pid in self._lost:
            return True
        last = self._last_heard.get(pid)
        if last is None:
            return True
        return (self.scheduler.now - last) > self.suspect_ms

    # -- internals -------------------------------------------------------

    def _elect(self) -> int:
        for pid in self.members:
            if not self.suspected(pid):
                return pid
        # Everyone suspected (e.g. total partition): keep the previous
        # output, matching the sim oracle's all-crashed behaviour.
        return self.leader

    def _elect_and_notify(self) -> None:
        for pid in self.members:
            if pid == self.own_pid:
                continue
            if self.suspected(pid):
                if pid not in self._suspects:
                    self._suspects.add(pid)
                    self.suspicions["link" if pid in self._lost else "timeout"] += 1
            else:
                self._suspects.discard(pid)
        new_leader = self._elect()
        if new_leader != self.leader:
            self.leader = new_leader
            for callback in self._subscribers:
                callback(self.group_id, new_leader)

    def _tick(self) -> None:
        if not self._running:
            return
        self.send_heartbeat()
        self._elect_and_notify()
        self.scheduler.call_after(self.hb_interval_ms, self._tick)
