"""Tests for the benchmark's tracer, layer metrics and output oracles.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, SpanIndex, Tracer, bindings, covered  # noqa: E402


def test_self_time_subtracts_union_of_children_across_threads():
    spans = [
        Span(1, "outer", 0.0, 10.0, None, 1),
        Span(2, "inner", 1.0, 3.0, 1, 1),
        Span(3, "leaf", 1.5, 2.0, 2, 1),
        # Worker-thread children overlap each other and the inner call.
        Span(4, "work", 2.0, 5.0, 1, 2),
        Span(5, "work", 4.0, 6.0, 1, 3),
        # A child reaching past its parent only counts inside the parent.
        Span(6, "late", 9.5, 11.0, 1, 2),
    ]
    index = SpanIndex(spans)
    assert index.self_s("outer") == pytest.approx(10.0 - (5.0 + 0.5))
    assert index.self_s("inner") == pytest.approx(1.5)
    assert index.self_s("work") == pytest.approx(5.0)
    assert index.calls("work") == 2
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_total_time_counts_recursive_calls_once():
    index = SpanIndex([Span(1, "f", 0.0, 4.0, None, 1), Span(2, "f", 1.0, 2.0, 1, 1),
                       Span(3, "g", 5.0, 6.0, None, 1), Span(4, "f", 5.2, 5.5, 3, 1)])
    assert index.total_s("f") == pytest.approx(4.3)
    assert index.self_s("f") == pytest.approx(3.0 + 1.0 + 0.3)


def test_live_spans_link_worker_thread_calls_to_the_open_span():
    tracer = Tracer()
    leaf = tracer.span_wrapper("t.leaf", lambda: time.sleep(0.02))

    def body():
        leaf()
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        time.sleep(0.01)

    outer = tracer.span_wrapper("t.outer", body)
    outer()
    index = SpanIndex(tracer.spans())
    (top,) = index.named("t.outer")
    kids = index.named("t.leaf")
    assert [k.parent for k in kids] == [top.sid, top.sid]
    assert len({k.thread for k in kids}) == 2
    assert top.parent is None
    self_time = index.self_s("t.outer")
    assert self_time == pytest.approx(top.duration - sum(k.duration for k in kids), abs=1e-9)
    assert 0.005 < self_time < top.duration


def _spec(tmp_path: Path, trace: bool) -> Path:
    spec = {"job": "cli", "src": str(ROOT / "src"), "ready": str(tmp_path / "ready.json"),
            "argv": ["frontier", "--a", "2,2", "--b", "1,2;2,1", "--json", str(tmp_path / "frontier.json")],
            "trace": str(tmp_path / "trace.json") if trace else None}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_leaves_every_traced_binding_original(tmp_path, monkeypatch, trace):
    import siou.cli  # noqa: F401  (cli is not imported by the package itself)

    before = bindings()
    assert len(before) > 50
    monkeypatch.setattr(sys, "argv", ["child.py", str(_spec(tmp_path, trace))])
    assert child.main() == 0
    assert all(getattr(mod, attr) is original for mod, attr, original in before)
    assert bindings() == before
    assert json.loads((tmp_path / "frontier.json").read_text())["results"]
    if trace:
        data = json.loads((tmp_path / "trace.json").read_text())
        names = {record[1] for record in data["spans"]}
        assert {"cli.main", "geometry.frontier", "geometry.canonicalize"} <= names
    else:
        assert not (tmp_path / "trace.json").exists()


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_antichain_closed_form_matches_siou_frontier():
    from siou import Corner, Increment, canonicalize, frontier

    antichain = [[1.0, 3.0], [2.0, 2.5], [2.5, 1.0]]
    fr = frontier(Increment(Corner((3.0, 3.0)), canonicalize([Corner(tuple(c)) for c in antichain])))
    got = {(c.coords, s) for c, s in fr.entries}
    assert got == workloads.antichain_frontier(antichain)
    assert len(got) == 5


def test_useful_cells_of_the_sheet_workload_grid():
    lower, upper, steps = (-3.5, -3.5), (2.0, 2.0), (110, 110)
    points = [(0.5, 0.5), (1.0, 1.0), (2.0, 1.5)]
    assert layers.useful_cells(lower, upper, steps, points, stationary=False) == 6100
    assert layers.useful_cells(lower, upper, steps, points, stationary=True) == 110 * 100


def test_pseudo_median_tracks_the_mix_of_two_levels_and_resists_one_outlier():
    assert run.pseudo_median([1.0, 2.0, 3.0]) == 2.0
    assert run.pseudo_median([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 50.0]) == 1.0
    # Three slow and four fast repetitions: a median reads the fast level, this lands between.
    mixed = run.pseudo_median([4.0, 4.0, 4.0, 3.0, 3.0, 3.0, 3.0])
    assert 3.0 < mixed < 4.0
