"""Tests of the harness: its arithmetic, its correctness checks, and BENCHMARK.json.

    python3 -m pytest bench -q
"""

import json
import os
import statistics

import pytest

from checks import check, differing_fields
from run import END_TO_END, PROBE_NOMINAL_S, ROOT, WORKLOADS, calibrated
from spans import PER_LAYER, Tracer, layer_metrics
from stats import quartiles, self_times, spread


def test_quartiles_match_the_exclusive_method():
    # statistics.quantiles(n=4) on 1..10: positions (n+1)p = 2.75, 5.5, 8.25
    assert quartiles(list(range(1, 11))) == (2.75, 5.5, 8.25)
    assert quartiles([10.0, 20.0]) == tuple(statistics.quantiles([10.0, 20.0], n=4))
    with pytest.raises(ValueError):
        quartiles([1.0])


def test_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert spread([5.0] * 6) == 0.0


def _span(i, parent, start, end, name="x.f"):
    return {"id": i, "parent": parent, "start": start, "end": end,
            "name": name, "layer": name.split(".")[0]}


def test_calibration_scales_by_the_mean_probe():
    sample = {"wall_s": 3.0, "setup_s": 0.6, "probe_s": [0.2, 0.4]}
    assert calibrated(sample, "wall_s") == pytest.approx(10 * PROBE_NOMINAL_S)
    # a set-up-only interpreter has its one probe
    assert calibrated({"setup_s": 0.6, "probe_s": [0.3]}, "setup_s") == \
        pytest.approx(2 * PROBE_NOMINAL_S)


def test_self_time_subtracts_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0),
             _span(2, 1, 2.0, 3.0), _span(3, 0, 5.0, 9.0)]
    st = self_times(spans)
    assert st == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 6.0),
             _span(2, 0, 4.0, 8.0), _span(3, 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_traced_calls_nest_and_self_times_add_up():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    leaf_t = tracer.wrap("potentials.value", lambda spec, x: leaf())
    inner = tracer.wrap("gridop.f", lambda: [leaf_t(None, 0.5) for _ in range(3)])
    root = tracer.wrap("cli.main", lambda: inner())
    root()
    spans = tracer.spans
    assert [s["name"] for s in spans] == ["cli.main", "gridop.f"] + \
        ["potentials.value"] * 3
    assert [s["parent"] for s in spans] == [None, 0, 1, 1, 1]
    m = layer_metrics(spans, untraced_wall_s=0.0, nondeterministic_fields=2)
    assert set(m) == set(PER_LAYER)
    assert m["potentials.points"] == 3
    assert m["cli.nondeterministic_fields"] == 2
    # one thread, one root span: the layers' self times add up to the wall time
    assert sum(self_times(spans).values()) == pytest.approx(m["trace.wall_s"],
                                                            rel=1e-12)
    assert m["trace.overhead_s"] == m["trace.wall_s"]
    assert m["walk.acceptance"] == 0.0 and m["eigen.solves"] == 0


def test_differing_fields_counts_changed_and_one_sided_paths():
    a = {"spectrum.json/seconds": 1.5, "spectrum.json/h": 0.1, "x.csv/1/0": "3"}
    b = {"spectrum.json/seconds": 1.7, "spectrum.json/h": 0.1, "y.csv/1/0": "3"}
    assert differing_fields(a, a) == 0
    assert differing_fields(a, b) == 3


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def test_sweep_check_holds_gaps_to_their_residuals(tmp_path):
    ref = {"measured_gap": [3e-6, 7e-13], "witten_gap": [2e-5, 4e-12],
           "walk_residual": [1e-15, 1e-15], "witten_residual": [2e-11, 4e-12]}
    _write(tmp_path / "sweep.json", json.dumps({"passed": True, "rel_err": 0.01}))
    rows = "h,measured_gap,witten_gap\n0.1,3e-6,2e-5\n0.06,{},{}\n"
    # the walk residual is below the 1e-14 floor, so the floor applies
    _write(tmp_path / "sweep.csv", rows.format("7.05e-13", "7e-12"))
    assert check("sweep", str(tmp_path), ref) == []
    _write(tmp_path / "sweep.csv", rows.format("7.2e-13", "9e-12"))
    assert len(check("sweep", str(tmp_path), ref)) == 2


def test_simulate_check_looks_at_the_walk(tmp_path):
    ref = {"stationary_fractions": [0.99, 0.01], "acceptance_rate": 0.479,
           "final_occupation": [0.10, 0.90]}
    doc = {"stationary_fractions": [0.99, 0.01], "acceptance_rate": 0.4795}
    _write(tmp_path / "simulate.json", json.dumps(doc))
    _write(tmp_path / "simulate.csv", "step,w1,w2\n0,0,1\n400,0.11,0.89\n")
    assert check("simulate", str(tmp_path), ref) == []
    # an always-accepting walk: acceptance 1 and wells filled too fast
    _write(tmp_path / "simulate.json", json.dumps(dict(doc, acceptance_rate=1.0)))
    _write(tmp_path / "simulate.csv", "step,w1,w2\n0,0,1\n400,0.38,0.62\n")
    assert len(check("simulate", str(tmp_path), ref)) == 2


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
