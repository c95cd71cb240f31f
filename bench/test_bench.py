"""Tests of the benchmark itself: span self time, metric names, tracer cleanup.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import re
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import perlayer  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Span, Tracer, installed_wrappers, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

# A workload small enough to run a whole session in about a second.
TINY = workloads.Workload(
    "tiny", workloads.FieldSpec(16, (-1, 0, 1), 1, (3, 3)), 5, (1, 2), 8, 1, 1,
    workloads.FieldSpec(16, (-1, 0, 1), 1, (3, 3)), 5, (26, 38, 48), 5.0,
)


def span(index, name, start, end, parent):
    out = Span(index, name, start, parent)
    out.end = end
    return out


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        return json.load(handle)


def test_self_time_of_nested_spans():
    spans = [
        span(0, "session", 0.0, 10.0, -1),
        span(1, "a", 1.0, 4.0, 0),
        span(2, "a.child", 2.0, 3.0, 1),
        span(3, "b", 5.0, 9.0, 0),
        span(4, "b.child", 6.0, 7.0, 3),
        span(5, "b.child", 6.5, 8.0, 3),  # overlaps its sibling: counted once
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0 - 2.0)
    assert own[4] == pytest.approx(1.0)


def test_metric_names():
    bench = benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in bench["per_layer"]} == set(perlayer.NEEDS) | {
        "trace_overhead_pct"
    }


def test_traced_sessions_measure_everything_and_restore_wrappers():
    session = workloads.Session(workloads.setup(TINY, 1))
    session.run_once()
    session.run_once()
    tracer = Tracer()
    with tracer:
        assert len(installed_wrappers()) == len(TARGETS)
        session.tracer = tracer
        session.run_once()
        session.run_once()
    assert installed_wrappers() == []
    assert session.failed == 0
    assert session.attempted == sum(len(times) for times in session.times.values())

    figures = perlayer.layer_metrics(tracer.spans, tracer.missing)
    assert set(figures) == set(perlayer.NEEDS)
    # one call of each op: encode, decode, decode_l1, train, a 3-point sweep
    assert figures["layers.solve_calls"] == 1 + 3
    assert figures["layers.iterations"] == (1 + 3) * TINY.iterations
    assert 0.0 < figures["layers.accept_ratio"] <= 1.0
    assert figures["dbn.encode_patches_calls"] == (1 + 3) * 3
    assert figures["bitstream.coded_decisions"] > 0

    measured = run.end_to_end(session, [0.1])
    assert set(measured) == {m["name"] for m in benchmark_json()["end_to_end"]}
    assert all(value > 0 for value, _ in measured.values())


def test_tracer_restores_after_an_error_and_skips_missing_attributes():
    ghost = ("lflc.layers", "no_such_function", "layers.ghost")
    with pytest.raises(RuntimeError):
        with Tracer(TARGETS + (ghost,)) as tracer:
            raise RuntimeError("stop")
    assert installed_wrappers() == []
    assert tracer.missing == {"layers.ghost"}

    figures = perlayer.layer_metrics([span(0, "op.encode", 0.0, 1.0, -1)],
                                     missing={"layers.render"})
    assert "layers.render_s" not in figures
    assert "layers.accept_ratio" not in figures
    assert "layers.solve_s" in figures
