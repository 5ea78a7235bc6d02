"""Metric catalogue and the result line every run prints.

``BENCHMARK.json`` at the repository root lists the same metrics; the
tests in ``perfbench/tests`` keep the two in step.
"""

from __future__ import annotations

import json
import math
import resource
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: End-to-end metrics: name -> (unit, better). Every workload reports
#: every one of them in an untraced run.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "msgs_per_s": ("msg/s", "higher"),
    "cpu_ms_per_msg": ("ms", "lower"),
    "wall_s": ("s", "lower"),
    "unavailable_ms": ("ms", "lower"),
    "rss_mb": ("MiB", "lower"),
}

#: Per-layer metrics: name -> (unit, better, the end-to-end metric and
#: workload a change in this layer should move). A traced run reports
#: all of them; a layer that is not on a workload's path reports 0.
_CODEC = "cpu_ms_per_msg, msgs_per_s on net-saturate; p50_ms on net-failover; nothing on sim-fig3"
_TRANSPORT = "msgs_per_s on net-saturate"
_SCHEDULER = "p50_ms on net-failover"
_RMCAST = "cpu_ms_per_msg on net-saturate (batches fill there, not in net-failover's open loop)"
_CORE = "msgs_per_s on net-saturate and wall_s on sim-fig3"
_ELECTION = "unavailable_ms, p99_ms on net-failover only"
_RECONNECT = (
    "unavailable_ms on net-failover, but 0 by construction for now: the in-process"
    " NetNode.kill leaves the victim's accepted connections open, so no survivor"
    " reconnects; a 0 here is not an improvement"
)
_SIM = "wall_s on sim-fig3 only"
_RUNTIME = "p99_ms on net-saturate; rss_mb"
_TRACING = "nothing: the cost of tracing itself"
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "codec.encode_us": ("us", "lower", _CODEC),
    "codec.decode_us": ("us", "lower", _CODEC),
    "codec.bytes_per_msg": ("bytes", "lower", _CODEC),
    "codec.share": ("ratio", "lower", _CODEC),
    "transport.send_us": ("us", "lower", _TRANSPORT),
    "transport.frames_per_msg": ("count", "lower", _TRANSPORT),
    "transport.frames_per_write": ("count", "higher", _TRANSPORT),
    "transport.overload_events": ("count", "lower", _TRANSPORT),
    "transport.queued_bytes_max": ("bytes", "lower", _TRANSPORT),
    "transport.reconnects": ("count", "lower", _RECONNECT),
    "scheduler.events_per_msg": ("count", "lower", _SCHEDULER),
    "scheduler.events_per_drain": ("count", "higher", _SCHEDULER),
    "scheduler.drain_self_us": ("us", "lower", _SCHEDULER),
    "scheduler.share": ("ratio", "lower", _SCHEDULER),
    "rmcast.wire_msgs_per_msg": ("count", "lower", _RMCAST),
    "rmcast.acks_per_batch": ("count", "higher", _RMCAST),
    "core.handler_us": ("us", "lower", _CORE),
    "core.share": ("ratio", "lower", _CORE),
    "core.start_per_msg": ("count", "lower", _CORE),
    "core.ack_per_msg": ("count", "lower", _CORE),
    "core.bump_per_msg": ("count", "lower", _CORE),
    "election.detect_ms": ("ms", "lower", _ELECTION),
    "epoch.recover_ms": ("ms", "lower", _ELECTION),
    "election.epochs": ("count", "lower", _ELECTION),
    "sim.events": ("count", "lower", _SIM),
    "sim.events_per_s": ("1/s", "higher", _SIM),
    "sim.scheduler_us": ("us", "lower", _SIM),
    "sim.network_us": ("us", "lower", _SIM),
    "sim.costs_us": ("us", "lower", _SIM),
    "sim.core_us": ("us", "lower", _SIM),
    "sim.wire_msgs_per_msg": ("count", "lower", _SIM),
    "gc.gen2_count": ("count", "lower", _RUNTIME),
    "gc.pause_max_ms": ("ms", "lower", _RUNTIME),
    "gc.pause_total_ms": ("ms", "lower", _RUNTIME),
    "loop.busy_frac": ("ratio", "lower", _RUNTIME),
    "gen.late_p99_ms": ("ms", "lower", _RUNTIME),
    "trace.overhead_frac": ("ratio", "lower", _TRACING),
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run measured and whether the program's outputs held."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: correctness violations; any entry fails the run
    problems: List[str] = field(default_factory=list)
    #: extra figures printed in the table but not in the result line
    notes: Dict[str, Any] = field(default_factory=dict)
    #: the traced run's span tracer (a ``tracing.Tracer``), if any
    tracer: Any = None

    def result_line(self, trace: bool) -> str:
        """The JSON object printed as the last line of a run."""
        catalogue = PER_LAYER if trace else END_TO_END
        metrics = {}
        for name, (unit, *_rest) in catalogue.items():
            if name in self.metrics:
                value = float(self.metrics[name])
            elif trace:
                value = 0.0
            else:
                raise KeyError(f"end-to-end metric {name} was not measured")
            if not math.isfinite(value):
                raise ValueError(f"metric {name} is not finite: {value}")
            metrics[name] = {"value": value, "unit": unit}
        return json.dumps(
            {
                "correct": not self.problems,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )

    def table(self, trace: bool) -> str:
        catalogue = PER_LAYER if trace else END_TO_END
        rows = [
            f"  {name:<28} {self.metrics.get(name, 0.0):>14.4f} {unit}"
            for name, (unit, *_rest) in catalogue.items()
        ]
        rows += [f"  {k:<28} {v}" for k, v in self.notes.items()]
        rows.append(f"  {'attempted / failed':<28} {self.attempted} / {self.failed}")
        rows += [f"  VIOLATION {p}" for p in self.problems]
        return "\n".join(rows)
