"""The net workloads: in-process 2 x 3 ``repro.net`` clusters over
loopback, driven by a load generator on the cluster's own event loop.

Each cluster is the unmodified program: every ``NetNode`` runs
``AsyncioRuntime``/``NetScheduler`` -> ``PrimCastProcess`` ->
``repro.rmcast`` -> ``codec`` -> ``transport`` and the file barriers of
``repro.net.cluster``. Nodes start with an empty workload; the benchmark
submits every message itself, through ``post_job`` + ``kick`` on the
hosting node, at the message's due time. Every timestamp is taken from
the one shared loop clock, and latency runs from the due time, so a
stall is charged to every message queued behind it.

A run measures ``WINDOWS`` fresh clusters one after another, each for
``seconds / WINDOWS`` after a warmup, and reports the median of each
end-to-end metric (``setup_s`` too) over those clusters.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.process import PrimCastProcess
from repro.net import codec as net_codec
from repro.net import host as net_host
from repro.net.cluster import ClusterSpec, make_topology
from repro.net.host import NetNode, NetScheduler
from repro.net.transport import Transport
from repro.rmcast.fifo import Batch, Envelope
from repro.verify.properties import collect_violations

from . import stats
from .result import Outcome, peak_rss_mb
from .tracing import Patches, Tracer

MessageId = Tuple[int, int]

#: Program settings shared by every net workload, passed explicitly.
CLUSTER = dict(
    n_groups=2,
    group_size=3,
    codec="binary",
    coalesce=True,
    batching_ms=5.0,
    hb_interval_ms=50.0,
    suspect_ms=500.0,
)
#: Each message goes to its submitter's home group plus the other group
#: with this probability.
EXTRA_GROUP_P = 0.5
#: Measured clusters per run. Each runs a warmup and then measures for
#: ``seconds / WINDOWS``; the end-to-end metrics are medians over them,
#: so one outlying stall (a long collector pause, a busy neighbour on
#: the host) cannot move a run's figures.
WINDOWS = 4
WARMUP_S = 1.5
#: Messages due in the window must be a-delivered at every correct
#: destination within this long after the window closes.
DRAIN_S = 10.0
#: net-failover: the kill lands this long into each measurement window.
KILL_AFTER_S = 1.5
#: net-failover: uniform prefix order is checked (it is quadratic) over
#: the messages due in this interval around the kill.
PREFIX_SPAN_S = (-0.5, 1.0)
#: Traced runs alternate untraced and traced slices of this length, so
#: the tracing overhead is measured on the same cluster state.
TRACE_SLICE_S = 1.0
KV_VALUE_BYTES = 1024

#: The open loop sends small payloads at a Poisson rate; the closed loop
#: sends ``KV_VALUE_BYTES`` KV puts from ``clients`` x ``window``.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "net-saturate": dict(loop="closed", clients=8, window=8, kill_pid=None),
    "net-failover": dict(loop="open", rate_hz=200.0, kill_pid=0),
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def open_arrivals(
    stream: str,
    rate_hz: float,
    duration_s: float,
    pids: List[int],
    group_of: Dict[int, int],
    n_groups: int,
) -> List[Tuple[float, int, FrozenSet[int], Dict[str, int]]]:
    """Poisson arrivals ``(offset_s, submitter, dest gids, payload)``."""
    rng = random.Random(f"perfbench-open-{stream}")
    out = []
    t = 0.0
    i = 0
    while True:
        t += rng.expovariate(rate_hz)
        if t >= duration_s:
            return out
        pid = rng.choice(pids)
        out.append((t, pid, _dests(rng, group_of[pid], n_groups), {"c": pid, "i": i}))
        i += 1


def _dests(rng: random.Random, home: int, n_groups: int) -> FrozenSet[int]:
    return frozenset(
        [home] + [g for g in range(n_groups) if g != home and rng.random() < EXTRA_GROUP_P]
    )


class ClosedClient:
    """One closed-loop client: a seeded stream of KV puts to its home
    group (plus the other group with ``EXTRA_GROUP_P``)."""

    def __init__(self, cid: int, pid: int, home: int, n_groups: int, stream: str) -> None:
        self.cid = cid
        self.pid = pid
        self.home = home
        self.n_groups = n_groups
        self.rng = random.Random(f"perfbench-closed-{stream}-{cid}")
        letters = "abcdefghijklmnopqrstuvwxyz"
        self.value = "".join(self.rng.choice(letters) for _ in range(KV_VALUE_BYTES))

    def next_input(self) -> Tuple[FrozenSet[int], Dict[str, str]]:
        key = f"k{self.cid}-{self.rng.randrange(1 << 20)}"
        return _dests(self.rng, self.home, self.n_groups), {"k": key, "v": self.value}


# ----------------------------------------------------------------------
# cluster lifecycle
# ----------------------------------------------------------------------


class Cluster:
    """One in-process cluster and the barriers ``repro.net.cluster`` uses."""

    def __init__(self, rundir: Path, seed: int) -> None:
        self.rundir = rundir
        self.seed = seed
        self.nodes: Dict[int, NetNode] = {}
        self.tasks: Dict[int, "asyncio.Task[Any]"] = {}
        self.killed: Optional[int] = None

    async def start(self) -> float:
        """Construct every node and wait until each is bound, has dialled
        all its peers and runs its failure detector. Returns seconds."""
        t0 = time.perf_counter()
        self.rundir.mkdir(parents=True)
        spec = ClusterSpec(n_messages=0, seed=self.seed, run_timeout_s=170.0, **CLUSTER)
        topology = make_topology(spec)
        self.config = topology.make_config()
        for pid in self.config.all_pids:
            self.nodes[pid] = NetNode(topology, pid, self.rundir)
        for pid, node in self.nodes.items():
            self.tasks[pid] = asyncio.create_task(node.run())
        await self._until(
            lambda: all((self.rundir / f"ready-{pid}").exists() for pid in self.nodes)
        )
        (self.rundir / "GO").write_text("go\n")
        await self._until(lambda: all(n.omega is not None for n in self.nodes.values()))
        return time.perf_counter() - t0

    async def _until(self, cond: Any) -> None:
        while not cond():
            self._raise_if_crashed()
            await asyncio.sleep(0.001)

    def _raise_if_crashed(self) -> None:
        for pid, task in self.tasks.items():
            if task.done() and pid != self.killed:
                raise RuntimeError(f"node {pid} exited early: {task.result()!r}")

    def proc(self, pid: int) -> PrimCastProcess:
        proc = self.nodes[pid].proc
        assert proc is not None
        return proc

    async def kill(self, pid: int) -> None:
        """In-process SIGKILL, as ``run_cluster_inprocess`` does it."""
        self.killed = pid
        self.tasks[pid].cancel()
        try:
            await self.tasks[pid]
        except asyncio.CancelledError:
            pass
        await self.nodes[pid].kill()

    async def stop(self) -> None:
        """The STOP barrier; waits for every live node to exit cleanly."""
        (self.rundir / "STOP").write_text("stop\n")
        live = [t for pid, t in self.tasks.items() if pid != self.killed]
        results = await asyncio.wait_for(asyncio.gather(*live), timeout=30.0)
        bad = [r.pid for r in results if r.exit_code != 0]
        if bad:
            raise RuntimeError(f"nodes {bad} exited with an error")

    async def abort(self) -> None:
        for pid, task in self.tasks.items():
            if not task.done():
                task.cancel()
        for pid, node in self.nodes.items():
            if node._transport is not None and not self.tasks[pid].done():
                await node.kill()
        await asyncio.gather(*self.tasks.values(), return_exceptions=True)


# ----------------------------------------------------------------------
# load and recording
# ----------------------------------------------------------------------


@dataclass
class Record:
    """Everything the generator and the deliver hooks observe."""

    due: Dict[MessageId, float] = field(default_factory=dict)
    sent: Dict[MessageId, float] = field(default_factory=dict)
    dest_pids: Dict[MessageId, List[int]] = field(default_factory=dict)
    at_submitter: Dict[MessageId, float] = field(default_factory=dict)
    first_group0: Dict[MessageId, float] = field(default_factory=dict)
    #: correct destination pids that have not a-delivered the message yet
    remaining: Dict[MessageId, Set[int]] = field(default_factory=dict)
    complete_at: Dict[MessageId, float] = field(default_factory=dict)


class Driver:
    """Load generator plus delivery bookkeeping for one cluster."""

    def __init__(self, cluster: Cluster, spec: Dict[str, Any], stream: str) -> None:
        self.cluster = cluster
        self.spec = spec
        self.stream = stream
        self.loop = asyncio.get_running_loop()
        self.rec = Record()
        self.correct: Set[int] = set(cluster.nodes)
        self.group0 = set(cluster.config.members(0))
        self.submitting = True
        #: submissions posted to a node whose job has not run yet
        self.pending_jobs = 0
        #: closed loop: mid -> client awaiting its delivery
        self.owner: Dict[MessageId, ClosedClient] = {}
        for pid in cluster.nodes:
            cluster.proc(pid).add_deliver_hook(self._hook(pid))

    def _hook(self, pid: int) -> Any:
        rec = self.rec
        now = self.loop.time

        def on_deliver(proc: Any, multicast: Any, final_ts: int) -> None:
            if pid not in self.correct:
                return
            t = now()
            mid = multicast.mid
            if mid[0] == pid:
                rec.at_submitter[mid] = t
                client = self.owner.pop(mid, None)
                if client is not None and self.submitting:
                    self.submit(client.pid, *client.next_input(), t, client)
            if pid in self.group0 and mid not in rec.first_group0:
                rec.first_group0[mid] = t
            left = rec.remaining.get(mid)
            if left is not None:
                left.discard(pid)
                if not left:
                    del rec.remaining[mid]
                    rec.complete_at[mid] = t

        return on_deliver

    def submit(
        self,
        pid: int,
        dests: FrozenSet[int],
        payload: Any,
        due: float,
        client: Optional[ClosedClient] = None,
    ) -> None:
        node = self.cluster.nodes[pid]
        proc = self.cluster.proc(pid)
        rec = self.rec
        config = self.cluster.config

        def job() -> None:
            sent = self.loop.time()
            mid = proc.a_multicast(dests, payload).mid
            rec.due[mid] = due
            rec.sent[mid] = sent
            pids = config.dest_pids(dests)
            rec.dest_pids[mid] = pids
            rec.remaining[mid] = {p for p in pids if p in self.correct}
            if client is not None:
                self.owner[mid] = client
            self.pending_jobs -= 1

        self.pending_jobs += 1
        proc.post_job(job)
        assert node.runtime is not None
        node.runtime.net_scheduler.kick()

    def crash(self, pid: int) -> None:
        """From now on ``pid`` is not a correct process: nothing waits
        for its deliveries."""
        self.correct.discard(pid)
        now = self.loop.time()
        for mid, left in list(self.rec.remaining.items()):
            left.discard(pid)
            if not left:
                del self.rec.remaining[mid]
                self.rec.complete_at[mid] = now

    async def open_loop(self, arrivals: List[Any], t_base: float, stop_at: float) -> None:
        loop = self.loop
        for offset, pid, dests, payload in arrivals:
            due = t_base + offset
            if due >= stop_at:
                break
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.submit(pid, dests, payload, due)

    def start_closed_loop(self, t_base: float) -> None:
        spec = self.spec
        pids = sorted(self.cluster.nodes)
        group_of = self.cluster.config.group_of
        for cid in range(spec["clients"]):
            pid = pids[cid % len(pids)]
            client = ClosedClient(cid, pid, group_of[pid], CLUSTER["n_groups"], self.stream)
            for _ in range(spec["window"]):
                self.submit(pid, *client.next_input(), t_base, client)


# ----------------------------------------------------------------------
# tracing hooks (traced runs only)
# ----------------------------------------------------------------------


def _mid_of(msg: Any) -> Any:
    """The multicast id an envelope's payload carries, if any."""
    return getattr(msg.payload, "mid", None) if msg.__class__ is Envelope else None


class NetTrace:
    """Span wrappers around each net layer's public entry points."""

    def __init__(self, tracer: Tracer) -> None:
        self.encoded_bytes = 0
        self.decoded_frames = 0
        self.handled: Dict[str, int] = {}
        self.patches = Patches(tracer)
        p = self.patches
        p.add(net_host, "encode_msg_frame", "codec.encode", self._note_encode)
        p.add(net_codec.FrameDecoder, "feed", "codec.decode", self._note_decode)
        p.add(Transport, "send_frame_bytes", "transport.send")
        p.add(NetScheduler, "drain", "scheduler.drain")
        p.add(PrimCastProcess, "on_message", "core.on_message", self._note_handled)
        p.add(PrimCastProcess, "a_multicast", "core.a_multicast", lambda a, r: r.mid)

    def _note_encode(self, args: Tuple[Any, ...], result: Any) -> Any:
        self.encoded_bytes += len(result)
        return _mid_of(args[1])

    def _note_decode(self, args: Tuple[Any, ...], result: Any) -> Any:
        self.decoded_frames += len(result)
        return None

    def _note_handled(self, args: Tuple[Any, ...], result: Any) -> Any:
        return count_handled(self.handled, args[2])


def count_handled(handled: Dict[str, int], msg: Any) -> Any:
    """Count the protocol payloads one ``on_message`` call handles (a
    batch carries several) and return the message id when there is one."""
    envs = msg.envelopes if msg.__class__ is Batch else (msg,)
    for env in envs:
        kind = getattr(env, "kind", "raw")
        handled[kind] = handled.get(kind, 0) + 1
    return _mid_of(msg)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def _counters(cluster: Cluster) -> Dict[str, float]:
    """The program's own cumulative counters, summed over all nodes (a
    killed node's counters stay frozen, so deltas remain valid)."""
    out: Dict[str, float] = dict.fromkeys(
        ("events", "wire", "frames", "writes", "reconnects", "overloads", "batches", "batched"), 0
    )
    for pid, node in cluster.nodes.items():
        if node.runtime is None or node._transport is None:
            continue
        out["events"] += node.runtime.net_scheduler.events_processed
        out["wire"] += sum(node.runtime.transport_facade.counts_by_kind.values())
        st = node._transport.stats()
        out["frames"] += st["frames_sent"]
        out["writes"] += st["writes"]
        out["reconnects"] += st["reconnects"]
        out["overloads"] += st["overload_events"]
        rm = cluster.proc(pid).rm
        out["batches"] += rm.batches_sent
        out["batched"] += rm.batched_payloads
    return out


@dataclass
class Slice:
    """One stretch of a measurement window: traced or not, the process
    CPU it used, the program counters it moved and the messages
    a-delivered at their submitter inside it."""

    traced: bool
    cpu_s: float
    counters: Dict[str, float]
    #: the kill happened inside it (its CPU per message is not typical)
    killed: bool = False
    delivered: int = 0


@dataclass
class Window:
    """What one cluster's measurement window produced."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    samples: int
    problems: List[str]
    slices: List[Slice]
    lateness: List[float]
    busy_frac: float
    queued_max: int = 0
    detect_ms: Optional[float] = None
    recover_ms: Optional[float] = None
    epochs: int = 0


class Measurement:
    """Runs measurement windows on successive clusters of one workload.

    ``tracer`` is shared by every window of a traced run, so span
    aggregates cover all of them.
    """

    def __init__(self, workload: str, seed: int, window_s: float, trace: bool) -> None:
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.window_s = window_s
        self.tracer = Tracer() if trace else None
        self.net_trace = NetTrace(self.tracer) if self.tracer is not None else None

    async def window(self, cluster: Cluster, rep: int) -> Window:
        spec = self.spec
        tracer, net_trace = self.tracer, self.net_trace
        loop = asyncio.get_running_loop()
        driver = Driver(cluster, spec, f"{self.seed}-{rep}")
        rec = driver.rec
        kill_pid = spec["kill_pid"]
        epoch_changes: List[float] = []
        if tracer is not None:
            for pid in cluster.nodes:
                def probe(proc: Any, event: str, data: Any, pid: int = pid) -> None:
                    if event == "epoch_change" and pid in driver.correct:
                        epoch_changes.append(loop.time())
                cluster.proc(pid).add_probe_hook(probe)

        t_base = loop.time()
        w0 = t_base + WARMUP_S
        w1 = w0 + self.window_s
        gen: Optional["asyncio.Task[None]"] = None
        if spec["loop"] == "open":
            senders = [p for p in sorted(cluster.nodes) if p != kill_pid]
            arrivals = open_arrivals(
                f"{self.seed}-{rep}", spec["rate_hz"], WARMUP_S + self.window_s, senders,
                cluster.config.group_of, CLUSTER["n_groups"],
            )
            gen = asyncio.create_task(driver.open_loop(arrivals, t_base, w1))
        else:
            driver.start_closed_loop(t_base)

        queued_max = 0

        async def sample_queues() -> None:
            nonlocal queued_max
            while True:
                for node in cluster.nodes.values():
                    if node._transport is not None:
                        queued_max = max(queued_max, node._transport.queued_bytes())
                await asyncio.sleep(0.005)

        async def sleep_until(t: float) -> None:
            delay = t - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)

        kill_t: Optional[float] = None
        sampler: Optional["asyncio.Task[None]"] = None
        slices: List[Tuple[float, float, Slice]] = []
        try:
            await sleep_until(w0)
            if tracer is not None:
                tracer.observe_gc()
                sampler = asyncio.create_task(sample_queues())
            kill_at = w0 + KILL_AFTER_S if kill_pid is not None else None
            slice_s = min(TRACE_SLICE_S, self.window_s / 2.0) if tracer is not None else self.window_s
            cpu0 = time.process_time()
            s0 = w0
            traced = False
            while s0 < w1 - 1e-9:
                s1 = min(w1, s0 + slice_s)
                if traced and net_trace is not None:
                    net_trace.patches.install()
                start_cpu, start_counters = time.process_time(), _counters(cluster)
                killed = kill_at is not None and s0 <= kill_at < s1
                if killed:
                    await sleep_until(kill_at)
                    kill_t = loop.time()
                    driver.crash(kill_pid)
                    await cluster.kill(kill_pid)
                await sleep_until(s1)
                if net_trace is not None:
                    net_trace.patches.remove()
                end_counters = _counters(cluster)
                slices.append((s0, s1, Slice(
                    traced, time.process_time() - start_cpu,
                    {k: end_counters[k] - start_counters[k] for k in end_counters}, killed,
                )))
                traced = not traced and tracer is not None
                s0 = s1
            busy_frac = (time.process_time() - cpu0) / (w1 - w0)
            driver.submitting = False
            if gen is not None:
                await gen
            # drain: every message reaches every correct destination, or
            # the ones due in the window count as failed
            deadline = w1 + DRAIN_S
            while (rec.remaining or driver.pending_jobs) and loop.time() < deadline:
                await asyncio.sleep(0.005)
        finally:
            if sampler is not None:
                sampler.cancel()
            if net_trace is not None:
                net_trace.patches.remove()
            if tracer is not None:
                tracer.stop_gc()
        await cluster.stop()

        for s0, s1, sl in slices:
            sl.delivered = sum(1 for t in rec.at_submitter.values() if s0 <= t < s1)
        window_mids = [m for m, t in rec.due.items() if w0 <= t < w1]
        logs = {pid: list(cluster.proc(pid).delivery_log) for pid in cluster.nodes}
        failed, problems = _check(rec, logs, window_mids, driver.correct, kill_t)
        lat = stats.latencies_from_due(rec.due, rec.at_submitter, (w0, w1))
        if kill_t is not None:
            unavailable = stats.time_to_service([kill_t], rec.due, rec.first_group0)[0]
        else:
            refs = [rec.due[m] for m in window_mids]
            unavailable = median(stats.time_to_service(refs, rec.due, rec.first_group0))
        untraced = [sl for _, _, sl in slices if not sl.traced]
        untraced_msgs = sum(sl.delivered for sl in untraced)
        out = Window(
            metrics={
                "p50_ms": stats.nearest_rank(lat, 50) * 1000.0,
                "p99_ms": stats.tail_percentile(lat) * 1000.0,
                "msgs_per_s": sum(sl.delivered for _, _, sl in slices) / (w1 - w0),
                "cpu_ms_per_msg": sum(sl.cpu_s for sl in untraced) * 1000.0 / max(untraced_msgs, 1),
                "wall_s": max(rec.complete_at.get(m, float("inf")) for m in window_mids) - w0,
                "unavailable_ms": unavailable * 1000.0,
            },
            attempted=len(window_mids),
            failed=failed,
            samples=len(lat),
            problems=problems,
            slices=[sl for _, _, sl in slices],
            lateness=stats.lateness({m: rec.due[m] for m in window_mids}, rec.sent),
            busy_frac=busy_frac,
            queued_max=queued_max,
            epochs=len(epoch_changes),
        )
        if kill_t is not None and epoch_changes:
            out.detect_ms = (epoch_changes[0] - kill_t) * 1000.0
            after = [t for m, t in rec.first_group0.items() if rec.due[m] >= kill_t]
            if after:
                out.recover_ms = (min(after) - epoch_changes[0]) * 1000.0
        return out


def _check(
    rec: Record,
    logs: Dict[int, List[Any]],
    window_mids: List[MessageId],
    correct: Set[int],
    kill_t: Optional[float],
) -> Tuple[int, List[str]]:
    """Completeness and the atomic multicast properties over the
    in-memory delivery logs. Returns the failed count (messages due in
    the window and missing at a correct destination) and violations."""
    delivered_by = {pid: {mid for mid, _, _ in log} for pid, log in logs.items()}
    failed = stats.count_failed(window_mids, rec.dest_pids, delivered_by, correct)
    problems: List[str] = []
    incomplete = stats.count_failed(rec.due, rec.dest_pids, delivered_by, correct)
    if incomplete:
        problems.append(f"completeness: {incomplete} messages missing at a correct destination")
    all_mids = set(rec.due)
    dest_sets = {m: set(p) for m, p in rec.dest_pids.items()}
    for v in collect_violations(logs, all_mids, dest_sets, correct, prefix=False):
        problems.append(f"{v.prop}: {v.message}")
    if kill_t is not None:
        lo, hi = kill_t + PREFIX_SPAN_S[0], kill_t + PREFIX_SPAN_S[1]
        near = {m for m in all_mids if lo <= rec.due[m] < hi}
        near_logs = {p: [e for e in log if e[0] in near] for p, log in logs.items()}
        for v in collect_violations(near_logs, near, dest_sets, correct, prefix=True):
            problems.append(f"{v.prop} (around the kill): {v.message}")
    return failed, problems


def _summarize(m: Measurement, windows: List[Window], setups: List[float]) -> Outcome:
    """End-to-end metrics are medians over the windows; the per-layer
    metrics pool the windows' spans and counters."""
    metrics = {
        name: median([w.metrics[name] for w in windows]) for name in windows[0].metrics
    }
    metrics["setup_s"] = median(setups)
    metrics["rss_mb"] = peak_rss_mb()
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    notes = {
        "windows": len(windows),
        "latency samples per window": [w.samples for w in windows],
        "p99_ms percentile": round(100.0 * stats.tail_rank(windows[0].samples) / windows[0].samples, 3),
        "failed_frac": failed / max(attempted, 1),
    }
    problems = [p for w in windows for p in w.problems]
    outcome = Outcome(metrics, attempted, failed, problems, notes)
    tr, net_trace = m.tracer, m.net_trace
    if tr is None or net_trace is None:
        return outcome

    slices = [sl for w in windows for sl in w.slices]
    traced = [sl for sl in slices if sl.traced]
    untraced = [sl for sl in slices if not sl.traced]

    def cpu_ms_per_msg(parts: List[Slice]) -> float:
        calm = [sl for sl in parts if not sl.killed] or parts
        return sum(sl.cpu_s for sl in calm) * 1000.0 / max(sum(sl.delivered for sl in calm), 1)

    traced_cpu_ns = sum(sl.cpu_s for sl in traced) * 1e9
    traced_msgs = max(sum(sl.delivered for sl in traced), 1)
    msgs = max(sum(sl.delivered for sl in slices), 1)
    whole = {k: sum(sl.counters[k] for sl in slices) for k in slices[0].counters}
    traced_events = sum(sl.counters["events"] for sl in traced)

    def per_call_us(name: str) -> float:
        return tr.self_ns[name] / max(tr.calls[name], 1) / 1000.0

    def share(*names: str) -> float:
        return sum(tr.self_ns[n] for n in names) / max(traced_cpu_ns, 1.0)

    def median_or_zero(values: List[Optional[float]]) -> float:
        present = [v for v in values if v is not None]
        return median(present) if present else 0.0

    handled = net_trace.handled
    pauses = [ns for _, ns in tr.gc_pauses_ns]
    outcome.metrics = {
        "codec.encode_us": per_call_us("codec.encode"),
        "codec.decode_us": tr.self_ns["codec.decode"] / max(net_trace.decoded_frames, 1) / 1000.0,
        "codec.bytes_per_msg": net_trace.encoded_bytes / traced_msgs,
        "codec.share": share("codec.encode", "codec.decode"),
        "transport.send_us": per_call_us("transport.send"),
        "transport.frames_per_msg": whole["frames"] / msgs,
        "transport.frames_per_write": whole["frames"] / max(whole["writes"], 1),
        "transport.overload_events": whole["overloads"],
        "transport.reconnects": whole["reconnects"],
        "transport.queued_bytes_max": max(w.queued_max for w in windows),
        "scheduler.events_per_msg": whole["events"] / msgs,
        "scheduler.events_per_drain": traced_events / max(tr.calls["scheduler.drain"], 1),
        "scheduler.drain_self_us": per_call_us("scheduler.drain"),
        "scheduler.share": share("scheduler.drain"),
        "rmcast.wire_msgs_per_msg": whole["wire"] / msgs,
        "rmcast.acks_per_batch": whole["batched"] / max(whole["batches"], 1),
        "core.handler_us": per_call_us("core.on_message"),
        "core.share": share("core.on_message", "core.a_multicast"),
        "core.start_per_msg": handled.get("start", 0) / traced_msgs,
        "core.ack_per_msg": handled.get("ack", 0) / traced_msgs,
        "core.bump_per_msg": handled.get("bump", 0) / traced_msgs,
        "election.detect_ms": median_or_zero([w.detect_ms for w in windows]),
        "epoch.recover_ms": median_or_zero([w.recover_ms for w in windows]),
        "election.epochs": sum(w.epochs for w in windows) / len(windows),
        "gc.gen2_count": sum(1 for gen, _ in tr.gc_pauses_ns if gen == 2),
        "gc.pause_max_ms": max(pauses, default=0) / 1e6,
        "gc.pause_total_ms": sum(pauses) / 1e6,
        "loop.busy_frac": median([w.busy_frac for w in windows]),
        "gen.late_p99_ms": stats.tail_percentile([x for w in windows for x in w.lateness]) * 1000.0,
        "trace.overhead_frac": cpu_ms_per_msg(traced) / cpu_ms_per_msg(untraced) - 1.0,
    }
    outcome.tracer = tr
    return outcome


async def _measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    m = Measurement(workload, seed, seconds / WINDOWS, trace)
    setups: List[float] = []
    windows: List[Window] = []
    for i in range(WINDOWS):
        cluster = Cluster(workdir / f"cluster-{i}", seed)
        try:
            setups.append(await cluster.start())
            windows.append(await m.window(cluster, i))
        except BaseException:
            await cluster.abort()
            raise
    return _summarize(m, windows, setups)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """One run: ``WINDOWS`` clusters that each measure
    ``seconds / WINDOWS`` after a warmup."""
    if workdir.exists():
        shutil.rmtree(workdir)
    try:
        return asyncio.run(_measure(workload, seed, seconds, trace, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
