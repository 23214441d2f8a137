"""Tests of the benchmark's own parts.  Run from the repo root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import ast
import json
import sys
import threading
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import tracer  # noqa: E402
from run import Launch, check, tail_percentile, unit_tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, count = tail_percentile([float(x) for x in range(20, 0, -1)])
    assert (value, pct, count) == (10.0, 50.0, 20)


def test_tail_counts_samples_not_distinct_values():
    values = [1.0] * 5 + [2.0] * 10 + [3.0] * 10
    value, pct, count = tail_percentile(values)
    assert value == 2.0 and count == 25 and pct == pytest.approx(60.0)
    assert sum(v > value for v in values) >= 10


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)
    value, pct, _ = tail_percentile([float(x) for x in range(11)])
    assert value == 0.0 and pct == pytest.approx(100.0 / 11)


def test_run_tail_pools_short_repetitions_and_takes_median_of_long_ones():
    short = [[float(x) for x in range(20)], [float(x) for x in range(100, 120)]]
    assert unit_tail(short) == (109.0, pytest.approx(75.0), 40, 1)
    long = [[float(x + shift) for x in range(100)] for shift in (0, 5, 1000)]
    assert unit_tail(long) == (94.0, pytest.approx(90.0), 100, 3)


# ---------------------------------------------------------------------------
# output comparator


def _csv(rows: list[list[str]]) -> list[dict]:
    return checks.parse_csv("\n".join([checks.HEADER] + [",".join(r) for r in rows]) + "\n")


REFERENCE_ROWS = [
    ["distortion-sweep", "gen:gaussian:64x4", "graph:s=2", "64", "4", "2", "full", "15",
     "16", "4", "0", "42", "distortion", "0.8125703260338226", "12.500"],
    ["distortion-sweep", "gen:gaussian:64x4", "gaussian", "64", "4", "0", "full", "15",
     "15", "4", "0", "42", "distortion", "1.2034117049920384", "30.125"],
]


def test_comparator_accepts_csv_differing_only_in_wall_time():
    actual = [list(r) for r in REFERENCE_ROWS]
    actual[0][-1], actual[1][-1] = "999.000", "0.001"
    assert checks.compare(_csv(REFERENCE_ROWS), _csv(actual)) == {}


@pytest.mark.parametrize("col, value", [
    ("m_effective", "18"), ("gamma", "4"), ("seed", "43"), ("metric_name", "eta"),
    ("metric_value", repr(0.8125703260338226 * (1 + 1e-7))),
])
def test_comparator_rejects_one_perturbed_cell(col, value):
    actual = [list(r) for r in REFERENCE_ROWS]
    actual[0][checks.COLUMNS.index(col)] = value
    assert list(checks.compare(_csv(REFERENCE_ROWS), _csv(actual))) == [0]


def test_comparator_tolerates_last_bit_drift_only():
    actual = [list(r) for r in REFERENCE_ROWS]
    actual[1][13] = repr(1.2034117049920384 * (1 + 1e-13))
    assert checks.compare(_csv(REFERENCE_ROWS), _csv(actual)) == {}
    assert len(checks.compare(_csv(REFERENCE_ROWS), _csv(actual), rel_tol=0.0)) == 1


def test_comparator_counts_missing_extra_rows_and_missing_output():
    assert checks.compare(_csv(REFERENCE_ROWS), _csv(REFERENCE_ROWS[:1])) == {1: "missing"}
    assert checks.compare(_csv(REFERENCE_ROWS[:1]), _csv(REFERENCE_ROWS)) == {1: "unexpected"}
    assert len(checks.compare(_csv(REFERENCE_ROWS), None)) == 2


def test_traced_rows_must_equal_untraced_rows_bit_for_bit():
    def launch(rows):
        return Launch(rc=0, wall_s=1.0, setup_s=0.1, rss_mb=1.0, rows=_csv(rows), trace=None)

    drifted = [list(r) for r in REFERENCE_ROWS]
    drifted[0][13] = repr(0.8125703260338226 * (1 + 1e-13))  # within REL_TOL of the reference
    steps = WORKLOADS["distortion-desk"].steps
    expected = [_csv(REFERENCE_ROWS)]
    assert check("t", expected, [launch(drifted)], steps) == (2, 0)
    assert check("t", expected, [launch(drifted)], steps,
                 untraced=[launch(REFERENCE_ROWS)]) == (2, 1)
    assert check("t", expected, [launch(REFERENCE_ROWS[:1])], steps,
                 untraced=[launch(drifted)]) == (2, 2)


def test_oracle_subset_draws_what_the_rng_draws():
    from sketchbench.rng import Prng

    for seed in range(40):
        for n, k in ((1000, 10), (5, 5), (3, 1), (129, 40)):
            assert checks.subset(Prng(seed), n, k) == list(Prng(seed).subset(n, k))


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_stored_references_agree_with_the_oracle(workload, seed):
    for step in WORKLOADS[workload].steps:
        path = checks.reference_path(workload, seed, step.command)
        stored = checks.parse_csv(path.read_text())
        assert checks.compare(checks.ORACLES[step.command](step.params(), seed), stored) == {}


# ---------------------------------------------------------------------------
# span arithmetic


class FakeClock:
    """Per-thread time that only moves when a test says so."""

    def __init__(self):
        self._local = threading.local()

    def now(self) -> float:
        return getattr(self._local, "t", 0.0)

    def advance(self, dt: float) -> None:
        self._local.t = self.now() + dt


def test_self_time_on_nested_calls_in_two_threads():
    clock = FakeClock()
    first = tracer.FirstCall(clock=lambda: 0.0)
    first.hit()  # both threads' roots start in the unit phase
    spans = tracer.Tracer(first, clock=clock.now, cpu_clock=clock.now)
    both_inside = threading.Barrier(2, timeout=10)

    inner = spans.wrap("t.inner", lambda: clock.advance(2.0))

    def outer_body():
        clock.advance(1.0)
        both_inside.wait()  # the two outer spans are open at the same time
        inner()
        clock.advance(0.5)

    outer = spans.wrap("t.outer", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    summary = spans.summary()
    fn = summary["unit_functions"]
    assert fn["t.outer"]["calls"] == 2
    assert fn["t.outer"]["total_s"] == pytest.approx(7.0)
    assert fn["t.outer"]["self_s"] == pytest.approx(3.0)
    assert fn["t.inner"]["self_s"] == pytest.approx(4.0)
    assert summary["unit_roots"] == pytest.approx(
        {"count": 2, "span_s": 7.0, "cpu_s": 7.0, "wall_s": 3.5})
    # self times add up to the root spans exactly
    assert sum(r["self_s"] for r in fn.values()) == pytest.approx(7.0)


def test_spans_before_the_first_unit_are_setup():
    clock = FakeClock()
    first = tracer.FirstCall(clock=clock.now)
    spans = tracer.Tracer(first, clock=clock.now, cpu_clock=clock.now)
    work = spans.wrap("t.work", lambda: clock.advance(1.0))
    work()
    first.hit()
    work()
    summary = spans.summary()
    assert summary["functions"]["t.work"]["calls"] == 2
    assert summary["unit_functions"]["t.work"]["calls"] == 1


def _summary(functions: dict) -> dict:
    return {"functions": functions, "unit_roots": {"cpu_s": 0.0, "span_s": 0.0, "wall_s": 1.0}}


def test_traced_run_reports_exactly_the_listed_per_layer_metrics():
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    reported = set(tracer.layer_metrics(_summary({}))) | {"trace.overhead_ratio",
                                                          "failed_share"}
    assert reported == {m["name"] for m in listed}


def test_lowrank_metrics_appear_only_when_lowrank_ran():
    assert set(tracer.layer_metrics(_summary({}))).isdisjoint(tracer.LOWRANK_METRICS)
    ran = {"pipelines.lowrank_approx": {"calls": 1, "total_s": 1.0, "self_s": 0.5, "extra": {}}}
    assert set(tracer.LOWRANK_METRICS) <= set(tracer.layer_metrics(_summary(ran)))


def test_subsets_enumerated_matches_the_enumeration_order():
    n, k = 7, 3
    order = [c for size in range(1, k + 1) for c in combinations(range(n), size)]
    for index in (0, 6, 7, 20, len(order) - 1):
        assert tracer.subsets_enumerated(n, k, order[index]) == index + 1
    assert tracer.subsets_enumerated(n, k, None) == len(order)


# ---------------------------------------------------------------------------
# patcher


def _copied_names() -> list[tuple[str, str, str]]:
    """(module, name, source module) for each ``from .x import name`` at module level."""
    out = []
    for path in sorted((SRC / "sketchbench").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out += [(path.stem, alias.asname or alias.name, node.module)
                        for alias in node.names]
    return out


@pytest.fixture
def installed():
    import importlib

    for short in tracer.MODULES:
        importlib.import_module(f"sketchbench.{short}")
    patcher = tracer.Patcher()
    spans = tracer.Tracer(tracer.FirstCall())
    names = spans.install(patcher)
    yield spans, names
    patcher.restore()


def test_patcher_wraps_every_binding_site_copy(installed):
    import importlib

    _, names = installed
    wrapped = set(names)
    copies = 0
    for module, name, source in _copied_names():
        if f"{source}.{name}" not in wrapped:
            continue  # a class, an exception or a constant
        here = vars(importlib.import_module(f"sketchbench.{module}"))[name]
        there = vars(importlib.import_module(f"sketchbench.{source}"))[name]
        assert here is there and hasattr(here, "__wrapped__"), f"{module}.{name}"
        copies += 1
    assert copies >= 15  # cli, metrics, pipelines and sketch copy linalg/sketch/graphs names


def test_patcher_wraps_every_public_function_and_class_method(installed):
    import importlib

    _, names = installed
    for short in tracer.MODULES:
        module = importlib.import_module(f"sketchbench.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or isinstance(obj, type):
                continue
            if getattr(obj, "__module__", None) == module.__name__ \
                    and not tracer._skipped(short, name):
                assert f"{short}.{name}" in names and hasattr(obj, "__wrapped__"), name
    for cls in ("Prng", "KwiseHash"):
        assert f"rng.{cls}.{'raw' if cls == 'Prng' else 'eval_many'}" in names
    assert "rng.KwiseHash.sample" in names and "cli.main" not in names


def test_call_time_imports_reach_the_wrappers(installed):
    from sketchbench.graphs import estimate_magical_delta
    from sketchbench.rng import Prng

    spans, _ = installed
    estimate_magical_delta(40, 20, 2, 3, 5, Prng(1))
    fn = spans.summary()["functions"]
    assert fn["sketch.graph_sketch_new"]["calls"] == 5
    assert fn["graphs.max_matching_covers"]["calls"] == 5
    assert fn["rng.Prng.subset"]["calls"] == 5


def test_restore_puts_originals_back():
    import sketchbench.cli as cli
    import sketchbench.linalg as linalg

    before = (cli.thin_qr, linalg.thin_qr, vars(__import__("sketchbench.rng").rng.Prng)["raw"])
    patcher = tracer.Patcher()
    tracer.Tracer().install(patcher)
    assert cli.thin_qr is not before[0]
    patcher.restore()
    import sketchbench.rng as rng

    assert (cli.thin_qr, linalg.thin_qr, vars(rng.Prng)["raw"]) == before
