"""One run of one benchmark workload.

    python3 perfbench/run.py --workload net-failover --seed 1 --seconds 20 --trace 0

Prints a table of every metric, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). Exits 1 when an output of the program is wrong. The
workloads, metrics and settings are listed in ``BENCHMARK.json``; the
traced run also writes its spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("net-saturate", "net-failover", "sim-fig3")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are not in {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Replace the script's own directory, so no benchmark module can
    # shadow a top-level module the program imports.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import netload, simload

    trace = bool(args.trace)
    if args.workload.startswith("net-"):
        outcome = netload.run(
            args.workload, args.seed, args.seconds, trace, WORKDIR / f"run-{args.workload}"
        )
    else:
        outcome = simload.run(args.seed, args.seconds, trace)
    if outcome.tracer is not None:
        outcome.tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(outcome.table(trace))
    if outcome.problems:
        print("FAILED: the program's outputs are wrong", file=sys.stderr)
        return 1
    print(outcome.result_line(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
