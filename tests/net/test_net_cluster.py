"""In-process asyncio cluster tests: differential vs sim + kill failover.

These run the *real* asyncio backend — real sockets on loopback, real
monotonic clocks, the same ``PrimCastProcess`` objects as the simulator
— inside a single OS process (every node is a task on one event loop),
which keeps them fast enough for tier-1. The multi-OS-process variant
of exactly this workload runs in CI's ``net-smoke`` job via
``python -m repro.net diff``.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.net.cluster import ClusterSpec, make_topology, run_cluster_inprocess
from repro.net.host import NetNode
from repro.net.differential import (
    diff_cluster_result,
    run_sim_reference,
    verify_cluster_logs,
)
from repro.net.workload import (
    expected_count,
    make_client_plans,
    make_workload,
    plans_expected_count,
)


def _run(spec: ClusterSpec, tmp_path, kill_pid=None, kill_after=0):
    topology = make_topology(spec)
    return asyncio.run(
        run_cluster_inprocess(
            topology, tmp_path, kill_pid=kill_pid, kill_after=kill_after
        )
    )


def test_workload_is_deterministic_and_rooted_in_group_zero():
    a = make_workload(3, 20, seed=9)
    b = make_workload(3, 20, seed=9)
    assert a == b
    assert all(0 in dest for dest in a)
    assert make_workload(3, 20, seed=10) != a
    assert expected_count(a, 0) == 20


def test_asyncio_cluster_matches_sim_reference(tmp_path):
    spec = ClusterSpec(n_groups=2, group_size=3, n_messages=8, seed=5)
    result = _run(spec, tmp_path)
    assert result.ok, [(o.pid, o.exit_code) for o in result.outcomes.values()]
    problems = diff_cluster_result(result)
    assert problems == []
    # Sanity: the sim reference itself delivered the full workload.
    reference = run_sim_reference(result.topology)
    workload = result.topology.workload()
    for pid in range(spec.group_size):  # group 0 sees every message
        assert len(reference[pid]) == len(workload)


def test_asyncio_cluster_survives_killed_leader(tmp_path):
    # Kill group 1's initial leader (pid 3) after 2 driver deliveries:
    # the survivors must elect a new leader, resume delivery, finish the
    # whole workload, and still agree with the failure-free simulator.
    spec = ClusterSpec(
        n_groups=2,
        group_size=3,
        n_messages=8,
        seed=5,
        kill_pid=3,
        kill_after=2,
        suspect_ms=300.0,
    )
    result = _run(spec, tmp_path, kill_pid=3, kill_after=2)
    assert 3 not in result.survivors
    workload = result.topology.workload()
    config = result.topology.make_config()
    for pid in result.survivors:
        outcome = result.outcomes[pid]
        assert outcome.exit_code == 0, (pid, outcome.exit_code)
        assert len(outcome.delivered) == expected_count(
            workload, config.group_of[pid]
        )
    assert diff_cluster_result(result) == []
    # At least one survivor in the victim's group observed the epoch
    # change that failover requires.
    epochs = [
        (result.outcomes[pid].summary or {}).get("epochs_seen", 0)
        for pid in result.survivors
        if config.group_of[pid] == 1
    ]
    assert any(e > 0 for e in epochs), epochs
    # The kill closed the victim's sockets like SIGKILL would: the
    # survivors saw their links to it reset or refused.
    links = [
        (result.outcomes[pid].summary or {}).get("transport", {})
        for pid in result.survivors
    ]
    assert sum(s["reconnects"] + s["connect_failed"] for s in links) > 0, links


def _record_epoch_changes(monkeypatch) -> list:
    """Record ``(pid, monotonic time)`` of every epoch change a node
    starts (the loop clock is ``time.monotonic``)."""
    starts: list = []
    real_on_probe = NetNode._on_probe

    def on_probe(self, proc, event, data):
        if event == "epoch_change":
            starts.append((self.pid, time.monotonic()))
        real_on_probe(self, proc, event, data)

    monkeypatch.setattr(NetNode, "_on_probe", on_probe)
    return starts


def test_killed_leader_is_replaced_at_socket_speed(tmp_path, monkeypatch):
    # The kill closes the leader's sockets; its peers' confirm-dials
    # are refused and Ω re-elects at once, long before the 500 ms
    # suspicion timeout.
    starts = _record_epoch_changes(monkeypatch)
    kills: list = []
    real_kill = NetNode.kill

    async def kill(self):
        if not kills:
            # Kill only once the victim's links are up and its peers
            # have read its hello: a node killed while still dialing
            # leaves no link behind to end; only the timeout finds it.
            await self._transport.connect_all()
            await asyncio.sleep(0.05)
            kills.append(time.monotonic())
        await real_kill(self)

    monkeypatch.setattr(NetNode, "kill", kill)
    spec = ClusterSpec(
        n_groups=2, group_size=3, n_messages=8, seed=5,
        kill_pid=3, kill_after=2, suspect_ms=500.0,
    )
    result = _run(spec, tmp_path, kill_pid=3, kill_after=2)
    assert diff_cluster_result(result) == []
    after = [t - kills[0] for pid, t in starts if pid != 3 and t >= kills[0]]
    assert after and min(after) < 0.25, (kills, starts)
    suspicions = [
        result.outcomes[pid].summary["suspicions"] for pid in result.survivors
        if result.topology.make_config().group_of[pid] == 1
    ]
    assert all(s["link"] == 1 for s in suspicions), suspicions


def test_frozen_leader_is_replaced_through_the_heartbeat_timeout(tmp_path, monkeypatch):
    # A hung process leaves its sockets open, so no dial is refused:
    # the heartbeat timeout alone must replace it. The "kill" here
    # freezes the node (dead scheduler, stopped oracle) and only closes
    # its sockets at teardown, after the survivors have finished.
    starts = _record_epoch_changes(monkeypatch)
    frozen: list = []
    real_kill = NetNode.kill

    async def freeze(self):
        if self in frozen:  # teardown
            await real_kill(self)
            return
        frozen.append(self)
        self.omega.stop()
        self.runtime.net_scheduler.dead = True

    monkeypatch.setattr(NetNode, "kill", freeze)
    spec = ClusterSpec(
        n_groups=2, group_size=3, n_messages=8, seed=5,
        kill_pid=3, kill_after=2, suspect_ms=300.0,
    )
    result = _run(spec, tmp_path, kill_pid=3, kill_after=2)
    config = result.topology.make_config()
    workload = result.topology.workload()
    for pid in result.survivors:
        outcome = result.outcomes[pid]
        assert outcome.exit_code == 0, (pid, outcome.exit_code)
        assert len(outcome.delivered) == expected_count(workload, config.group_of[pid])
    assert diff_cluster_result(result) == []
    assert any(pid != 3 for pid, _ in starts), starts
    suspicions = [
        result.outcomes[pid].summary["suspicions"] for pid in result.survivors
        if config.group_of[pid] == 1
    ]
    assert all(s["link"] == 0 and s["timeout"] >= 1 for s in suspicions), suspicions


def test_asyncio_cluster_uncoalesced_matches_sim_reference(tmp_path):
    # The exact sequential differential must also hold with one socket
    # write per frame: write grouping is transport plumbing, invisible
    # to the protocol.
    spec = ClusterSpec(
        n_groups=2, group_size=3, n_messages=8, seed=5, coalesce=False
    )
    result = _run(spec, tmp_path)
    assert result.ok, [(o.pid, o.exit_code) for o in result.outcomes.values()]
    assert diff_cluster_result(result) == []
    stats = [
        (o.summary or {}).get("transport", {}) for o in result.outcomes.values()
    ]
    assert all(s.get("frames_sent", 0) > 0 for s in stats)
    total_frames = sum(s["frames_sent"] for s in stats)
    total_bytes = sum(s["bytes_sent"] for s in stats)
    assert total_bytes / total_frames < 150
    # Each node decoded the multicasts it receives mostly from its
    # intern table: one full decode per node and message, the rest hits.
    assert sum(s["intern_hits"] for s in stats) > sum(s["intern_misses"] for s in stats)


def test_open_loop_cluster_passes_statistical_checks(tmp_path):
    # K concurrent windowed clients over real sockets: the exact
    # differential no longer applies (interleaving is timing-dependent)
    # but every safety property must hold over the merged logs.
    spec = ClusterSpec(
        n_groups=2,
        group_size=3,
        n_messages=24,
        seed=7,
        driver_mode="open",
        clients=4,
        window=3,
        rate_hz=200.0,
    )
    result = _run(spec, tmp_path)
    assert result.ok, [(o.pid, o.exit_code) for o in result.outcomes.values()]
    assert verify_cluster_logs(result) == []
    summaries = [o.summary for o in result.outcomes.values() if o.summary]
    assert sum(s["submitted"] for s in summaries) == spec.n_messages
    # Submitters measured their own end-to-end latencies.
    assert any(s["latencies_ms"] for s in summaries)


def test_client_plans_are_deterministic_and_home_rooted():
    homes = [0, 1, 0, 1]
    a = make_client_plans(2, 20, 4, seed=3, home_gids=homes)
    b = make_client_plans(2, 20, 4, seed=3, home_gids=homes)
    assert a == b
    assert make_client_plans(2, 20, 4, seed=4, home_gids=homes) != a
    # Round-robin deal: 20 messages over 4 clients = 5 each.
    assert [len(plan) for plan in a] == [5, 5, 5, 5]
    # The pin: every destination set includes the client's home group
    # (the submitter must observe its own deliveries to free its
    # window slot).
    for cid, plan in enumerate(a):
        assert all(homes[cid] in dests for dests in plan)
    assert sum(plans_expected_count(a, g) for g in (0, 1)) >= 20


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(n_groups=2, group_size=3, n_messages=4, kill_pid=0).validate()
    with pytest.raises(ValueError):
        ClusterSpec(n_groups=2, group_size=2, n_messages=4, kill_pid=3).validate()
    with pytest.raises(ValueError):
        ClusterSpec(n_groups=2, group_size=3, n_messages=4, kill_pid=99).validate()
    ClusterSpec(n_groups=2, group_size=3, n_messages=4, kill_pid=3).validate()
    # Open-driver validation: needs clients/window >= 1, no kill.
    with pytest.raises(ValueError):
        ClusterSpec(
            n_groups=2, group_size=3, n_messages=4, driver_mode="open", clients=0
        ).validate()
    with pytest.raises(ValueError):
        ClusterSpec(
            n_groups=2, group_size=3, n_messages=4, driver_mode="open", kill_pid=3
        ).validate()
    with pytest.raises(ValueError):
        ClusterSpec(n_groups=2, group_size=3, n_messages=4, codec="msgpack").validate()
    ClusterSpec(
        n_groups=2, group_size=3, n_messages=4, driver_mode="open", clients=2
    ).validate()


def test_open_loop_net_state_stays_bounded(tmp_path):
    # Net nodes compact their protocol state like the simulator does:
    # after a few hundred messages every node has truncated T, and what
    # is left is bounded by the in-flight window, not the run length.
    spec = ClusterSpec(
        n_groups=2,
        group_size=3,
        n_messages=300,
        seed=11,
        driver_mode="open",
        clients=4,
        window=4,
        rate_hz=150.0,
        batching_ms=5.0,
    )
    result = _run(spec, tmp_path)
    assert result.ok, [(o.pid, o.exit_code) for o in result.outcomes.values()]
    assert verify_cluster_logs(result) == []
    in_flight = spec.clients * spec.window
    for pid, outcome in result.outcomes.items():
        state = outcome.summary["state"]
        assert state["t_base"] > 0, (pid, state)
        assert state["t_list"] <= in_flight, (pid, state)
        assert state["started"] <= in_flight, (pid, state)
