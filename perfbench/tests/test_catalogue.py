"""``BENCHMARK.json`` and the benchmark's own catalogue agree."""

import json
from pathlib import Path

from perfbench import result, run

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_metrics_match_with_units_and_direction():
    for key, catalogue in (("end_to_end", result.END_TO_END), ("per_layer", result.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        assert listed == [(name, unit, better) for name, (unit, better, *_) in catalogue.items()]


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
