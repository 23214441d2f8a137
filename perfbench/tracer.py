"""Run-time spans around the public functions of sketchbench, from outside it.

Nothing under ``src/`` knows about tracing.  ``Patcher`` swaps a function for
a wrapper at every *binding site*: the defining module and every other
sketchbench module that copied the name with ``from .x import f``.  A site
that kept the original would hand its time to the caller's span without a
trace of it, so the patcher replaces by identity, not by name.  Methods of
``Prng`` and ``KwiseHash`` are wrapped on the class.

``Tracer`` keeps one span stack per thread.  A span's self time is its
duration minus the durations of its direct children; per-function totals are
kept per thread and merged when the run ends, so two pool threads never race
on one counter.  Spans whose root starts at or after the first unit (the
first sketch construction) belong to the unit phase; the rest to set-up.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "sketchbench"
MODULES = ("rng", "matrices", "linalg", "sketch", "graphs", "metrics", "pipelines", "cli")
CLASSES = {"rng": ("Prng", "KwiseHash")}
# The entry points and command runners hold the sweep loop itself: a span
# around them would be the whole process, and its self time only the loop.
NOT_WRAPPED = {"cli": ("main", "console_main", "run_")}
# The first call to any of these starts the unit phase (see ``FirstCall``).
UNIT_MARKERS = ("sketch.graph_sketch_new", "sketch.gaussian_sketch_new",
                "graphs.estimate_magical_delta")


def package_modules() -> list:
    """Every imported sketchbench module: the places a name can be bound."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _skipped(short: str, name: str) -> bool:
    return any(name == rule or (rule.endswith("_") and name.startswith(rule))
               for rule in NOT_WRAPPED.get(short, ()))


def public_functions(module) -> dict:
    """Public plain functions that ``module`` itself defines, by name."""
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def trace_targets() -> list[tuple[str, object, str, object]]:
    """(qualified name, owner, attribute, function) for everything to wrap.

    The owner is a module for functions and a class for methods.
    """
    import importlib

    targets = []
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for name, fn in sorted(public_functions(module).items()):
            if not _skipped(short, name):
                targets.append((f"{short}.{name}", module, name, fn))
        for cls_name in CLASSES.get(short, ()):
            cls = getattr(module, cls_name)
            for name, attr in sorted(vars(cls).items()):
                if name.startswith("_"):
                    continue
                if isinstance(attr, classmethod) or inspect.isfunction(attr):
                    targets.append((f"{short}.{cls_name}.{name}", cls, name, attr))
    return targets


class Patcher:
    """Replaces objects at all their binding sites and can put them back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, original, wrapper) -> list[tuple[object, str]]:
        """Put ``wrapper`` wherever ``original`` is bound; return the sites.

        A class attribute is replaced on its class only; a module-level
        function in every sketchbench module that holds the same object.
        """
        if isinstance(owner, type):
            sites = [(owner, name)]
        else:
            sites = [(mod, attr) for mod in package_modules()
                     for attr, obj in list(vars(mod).items()) if obj is original]
        for site, attr in sites:
            self._undo.append((site, attr, vars(site)[attr]))
            setattr(site, attr, wrapper)
        return sites

    def restore(self) -> None:
        for site, attr, original in reversed(self._undo):
            setattr(site, attr, original)
        self._undo.clear()


class FirstCall:
    """Time of the first unit: the first call to a sketch constructor.

    ``on_first`` runs once, in the calling thread, right after the stamp;
    the set-up-only launch uses it to end the process there.
    """

    def __init__(self, clock=time.monotonic, on_first=None):
        self.clock = clock
        self.on_first = on_first
        self.t: float | None = None
        self._lock = threading.Lock()

    def hit(self) -> None:
        if self.t is not None:
            return
        with self._lock:
            if self.t is not None:
                return
            self.t = self.clock()
        if self.on_first is not None:
            self.on_first(self.t)

    def install(self, patcher: Patcher) -> None:
        import importlib

        for qualified in UNIT_MARKERS:
            short, name = qualified.split(".")
            module = importlib.import_module(f"{PACKAGE}.{short}")
            current = getattr(module, name)
            patcher.replace(module, name, current, self._marker(current))

    def _marker(self, fn):
        hit = self.hit

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            hit()
            return fn(*args, **kwargs)

        return marked


# ---------------------------------------------------------------------------
# spans


class _Frame:
    __slots__ = ("name", "args", "kwargs", "child", "extra")

    def __init__(self, name, args, kwargs):
        self.name = name
        self.args = args
        self.kwargs = kwargs
        self.child = 0.0
        self.extra: dict[str, float] = {}


class _Stats:
    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra: dict[str, float] = defaultdict(float)

    def merge(self, other: "_Stats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        for key, val in other.extra.items():
            self.extra[key] += val

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "extra": dict(self.extra)}


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.phase = "setup"
        self.stats: dict[tuple[str, str], _Stats] = {}
        self.roots: list[tuple[float, float, float, str]] = []  # t0, t1, cpu_s, phase


def _arg(frame: _Frame, index: int, name: str, default=None):
    if len(frame.args) > index:
        return frame.args[index]
    return frame.kwargs.get(name, default)


class Tracer:
    """Span recorder; ``first`` tells it where the unit phase starts."""

    def __init__(self, first: FirstCall | None = None, clock=time.monotonic,
                 cpu_clock=time.thread_time):
        self.first = first
        self.clock = clock
        self.cpu_clock = cpu_clock
        self._local = threading.local()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            self._threads.append(st)
        return st

    def wrap(self, name: str, fn, probe=None):
        """Wrapper recording one span per call of ``fn`` under ``name``."""
        clock, cpu_clock, state = self.clock, self.cpu_clock, self._state
        first = self.first

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, args, kwargs)
            if parent is None:
                c0 = cpu_clock()
            stack.append(frame)
            t0 = clock()
            if parent is None:
                st.phase = "unit" if first is not None and first.t is not None \
                    and t0 >= first.t else "setup"
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s = dur - frame.child
                key = (name, st.phase)
                stats = st.stats.get(key)
                if stats is None:
                    stats = st.stats[key] = _Stats()
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += self_s
                if parent is None:
                    st.roots.append((t0, t1, cpu_clock() - c0, st.phase))
                else:
                    parent.child += dur
            if probe is not None:
                probe(frame, parent, result, stats, self_s, dur)
            return result

        return traced

    def install(self, patcher: Patcher) -> list[str]:
        """Wrap every trace target at every binding site; return the names."""
        names = []
        for qualified, owner, attr, fn in trace_targets():
            probe = PROBES.get(qualified)
            if isinstance(fn, classmethod):
                wrapper = classmethod(self.wrap(qualified, fn.__func__, probe))
            else:
                wrapper = self.wrap(qualified, fn, probe)
            patcher.replace(owner, attr, fn, wrapper)
            names.append(qualified)
        return names

    def summary(self) -> dict:
        """Merged per-function stats (whole run and unit phase) and root spans."""
        whole: dict[str, _Stats] = defaultdict(_Stats)
        unit: dict[str, _Stats] = defaultdict(_Stats)
        roots = []
        for st in list(self._threads):
            for (name, phase), stats in st.stats.items():
                whole[name].merge(stats)
                if phase == "unit":
                    unit[name].merge(stats)
            roots.extend(st.roots)
        unit_roots = [r for r in roots if r[3] == "unit"]
        t_first = self.first.t if self.first is not None else None
        return {
            "functions": {k: v.as_dict() for k, v in sorted(whole.items())},
            "unit_functions": {k: v.as_dict() for k, v in sorted(unit.items())},
            "unit_roots": {
                "count": len(unit_roots),
                "span_s": sum(t1 - t0 for t0, t1, _, _ in unit_roots),
                "cpu_s": sum(c for _, _, c, _ in unit_roots),
                "wall_s": (max(t1 for _, t1, _, _ in unit_roots) - t_first)
                if unit_roots and t_first is not None else 0.0,
            },
        }


# ---------------------------------------------------------------------------
# probes: counts taken at the boundary, from arguments and results


def _raw(frame, parent, result, stats, self_s, dur):
    if parent is not None:
        parent.extra["raw"] = parent.extra.get("raw", 0) + len(result)


def _integers_below(frame, parent, result, stats, self_s, dur):
    drawn = frame.extra.get("raw", 0)
    if drawn:
        stats.extra["raw"] += drawn
        stats.extra["values"] += len(result)


def _normal(frame, parent, result, stats, self_s, dur):
    stats.extra["values"] += len(result)


def _eval_many(frame, parent, result, stats, self_s, dur):
    stats.extra["keys"] += len(result)


def _shape(a) -> tuple[int, ...]:
    shape = getattr(a, "shape", None)
    if shape is None:
        import numpy as np

        shape = np.shape(a)
    return tuple(shape)


def _thin_qr(frame, parent, result, stats, self_s, dur):
    n, d = _shape(_arg(frame, 0, "a"))
    # Householder factorization plus forming the thin Q: 2(2nd^2 - 2d^3/3)
    stats.extra["gflop"] += (4.0 * n * d * d - 4.0 * d ** 3 / 3.0) / 1e9


def _graph_sketch_new(frame, parent, result, stats, self_s, dur):
    if _arg(frame, 5, "row_mode", "block") == "subset":
        kind = "subset"
    elif _arg(frame, 4, "gamma") is not None:
        kind = "gamma"
    else:
        kind = "block"
    stats.extra["self_" + kind] += self_s


def _sketch_apply(frame, parent, result, stats, self_s, dur):
    op, a = _arg(frame, 0, "op"), _arg(frame, 1, "a")
    n, d = _shape(a)
    if hasattr(op, "entries"):
        entries = op.m * n * d
    else:
        entries = op.s * (a.nnz if hasattr(a, "nnz") else n * d)
    stats.extra["entries"] += entries


def _matching(frame, parent, result, stats, self_s, dur):
    stats.extra["covered"] += 1.0 if result else 0.0


def subsets_enumerated(n: int, k: int, witness) -> int:
    """Subsets ``verify_expansion`` evaluates: all sizes 1..k in lexicographic
    order, stopping at the witness (inclusive) when there is one."""
    kmax = min(k, n)
    if witness is None:
        return sum(math.comb(n, j) for j in range(1, kmax + 1))
    size = len(witness)
    before = sum(math.comb(n, j) for j in range(1, size))
    rank, prev = 0, -1
    for pos, x in enumerate(witness):
        for y in range(prev + 1, x):
            rank += math.comb(n - 1 - y, size - 1 - pos)
        prev = x
    return before + rank + 1


def _expansion(frame, parent, result, stats, self_s, dur):
    g, k = _arg(frame, 0, "g"), _arg(frame, 1, "k")
    stats.extra["subsets"] += subsets_enumerated(g.left_count, k, result.witness)


def _lowrank(frame, parent, result, stats, self_s, dur):
    stats.extra["rank_deficient"] += 1.0 if result.rank_deficient else 0.0


def _lstsq_exact(frame, parent, result, stats, self_s, dur):
    # the solve on the unsketched A inside sketch_and_solve_lsq: same row count
    if parent is not None and parent.name == "pipelines.sketch_and_solve_lsq":
        if _shape(_arg(frame, 0, "a"))[0] == _shape(_arg(parent, 0, "a"))[0]:
            stats.extra["exact_refactor_s"] += dur


PROBES = {
    "rng.Prng.raw": _raw,
    "rng.Prng.integers_below": _integers_below,
    "rng.Prng.normal": _normal,
    "rng.KwiseHash.eval_many": _eval_many,
    "linalg.thin_qr": _thin_qr,
    "sketch.graph_sketch_new": _graph_sketch_new,
    "sketch.sketch_apply": _sketch_apply,
    "graphs.max_matching_covers": _matching,
    "graphs.verify_expansion": _expansion,
    "pipelines.lowrank_approx": _lowrank,
    "linalg.lstsq_exact": _lstsq_exact,
}


# ---------------------------------------------------------------------------
# per-layer metrics from one or more merged summaries


def merge_summaries(summaries: list[dict]) -> dict:
    """Add up the summaries of several processes (one per command)."""
    out = {"functions": {}, "unit_functions": {},
           "unit_roots": {"count": 0, "span_s": 0.0, "cpu_s": 0.0, "wall_s": 0.0}}
    for summary in summaries:
        for part in ("functions", "unit_functions"):
            for name, rec in summary[part].items():
                acc = out[part].setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": {}})
                acc["calls"] += rec["calls"]
                acc["total_s"] += rec["total_s"]
                acc["self_s"] += rec["self_s"]
                for key, val in rec["extra"].items():
                    acc["extra"][key] = acc["extra"].get(key, 0.0) + val
        for key, val in summary["unit_roots"].items():
            out["unit_roots"][key] += val
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# Only lowrank-sweep calls these; BENCHMARK.json leaves that workload out, so
# they are reported only by runs that call lowrank_approx.
LOWRANK_METRICS = (
    "linalg.svd.calls", "linalg.svd.self_s", "pipelines.lowrank_approx.self_s",
    "pipelines.best_rank_k_error.total_s", "pipelines.lowrank.rank_deficient",
)


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics, ``name -> (value, unit)``.

    ``LOWRANK_METRICS`` appear only when lowrank_approx ran; every other
    metric is always there, as 0 when its function was never called.
    """
    funcs = summary["functions"]

    def f(name):
        return funcs.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": {}})

    def x(name, key):
        return f(name)["extra"].get(key, 0.0)

    raw, normal, ib = f("rng.Prng.raw"), f("rng.Prng.normal"), f("rng.Prng.integers_below")
    subset, kwise = f("rng.Prng.subset"), f("rng.KwiseHash.eval_many")
    qr, apply_ = f("linalg.thin_qr"), f("sketch.sketch_apply")
    graph_new, gauss_new = f("sketch.graph_sketch_new"), f("sketch.gaussian_sketch_new")
    match, expand = f("graphs.max_matching_covers"), f("graphs.verify_expansion")
    keys = x("rng.KwiseHash.eval_many", "keys")
    entries = x("sketch.sketch_apply", "entries")
    subsets = x("graphs.verify_expansion", "subsets")
    gflop = x("linalg.thin_qr", "gflop")
    roots = summary["unit_roots"]
    m = {
        "rng.raw.calls": (raw["calls"], "count"),
        "rng.raw.self_s": (raw["self_s"], "s"),
        "rng.normal.values": (x("rng.Prng.normal", "values"), "count"),
        "rng.normal.self_s": (normal["self_s"], "s"),
        "rng.integers_below.calls": (ib["calls"], "count"),
        "rng.integers_below.self_s": (ib["self_s"], "s"),
        "rng.integers_below.accept_ratio": (
            _ratio(x("rng.Prng.integers_below", "values"),
                   x("rng.Prng.integers_below", "raw")), "ratio"),
        "rng.subset.calls": (subset["calls"], "count"),
        "rng.subset.self_s": (subset["self_s"], "s"),
        "rng.kwise.keys": (keys, "count"),
        "rng.kwise.self_s": (kwise["self_s"], "s"),
        "rng.kwise.ns_per_key": (_ratio(kwise["self_s"] * 1e9, keys), "ns"),
        "matrices.gen.self_s": (
            f("matrices.gen_gaussian")["self_s"]
            + f("matrices.gen_low_rank_plus_noise")["self_s"], "s"),
        "matrices.densify.calls": (f("matrices.densify")["calls"], "count"),
        "linalg.thin_qr.calls": (qr["calls"], "count"),
        "linalg.thin_qr.self_s": (qr["self_s"], "s"),
        "linalg.thin_qr.gflop_computed": (gflop, "GFLOP"),
        "linalg.thin_qr.gflops_rate": (_ratio(gflop, qr["self_s"]), "GFLOP/s"),
        "linalg.singular_values.calls": (f("linalg.singular_values")["calls"], "count"),
        "linalg.singular_values.self_s": (f("linalg.singular_values")["self_s"], "s"),
        "linalg.svd.calls": (f("linalg.svd")["calls"], "count"),
        "linalg.svd.self_s": (f("linalg.svd")["self_s"], "s"),
        "linalg.lstsq_exact.calls": (f("linalg.lstsq_exact")["calls"], "count"),
        "linalg.lstsq_exact.self_s": (f("linalg.lstsq_exact")["self_s"], "s"),
        "sketch.build.calls": (graph_new["calls"] + gauss_new["calls"], "count"),
        "sketch.build_block.self_s": (x("sketch.graph_sketch_new", "self_block"), "s"),
        "sketch.build_gamma.self_s": (x("sketch.graph_sketch_new", "self_gamma"), "s"),
        "sketch.build_subset.self_s": (x("sketch.graph_sketch_new", "self_subset"), "s"),
        "sketch.build_gaussian.self_s": (gauss_new["self_s"], "s"),
        "sketch.apply.calls": (apply_["calls"], "count"),
        "sketch.apply.self_s": (apply_["self_s"], "s"),
        "sketch.apply.entries_computed": (entries, "count"),
        "sketch.apply.ns_per_entry": (_ratio(apply_["self_s"] * 1e9, entries), "ns"),
        "sketch.to_graph.self_s": (f("sketch.sketch_to_graph")["self_s"], "s"),
        "graphs.matching.calls": (match["calls"], "count"),
        "graphs.matching.self_s": (match["self_s"], "s"),
        "graphs.matching.covered_ratio": (
            _ratio(x("graphs.max_matching_covers", "covered"), match["calls"]), "ratio"),
        "graphs.expansion.calls": (expand["calls"], "count"),
        "graphs.expansion.self_s": (expand["self_s"], "s"),
        "graphs.expansion.subsets_computed": (subsets, "count"),
        "graphs.expansion.subsets_per_s": (_ratio(subsets, expand["self_s"]), "1/s"),
        "graphs.magical_delta.self_s": (f("graphs.estimate_magical_delta")["self_s"], "s"),
        "metrics.distortion_via_basis.calls": (
            f("metrics.distortion_via_basis")["calls"], "count"),
        "metrics.distortion_via_basis.self_s": (
            f("metrics.distortion_via_basis")["self_s"], "s"),
        "pipelines.lowrank_approx.self_s": (f("pipelines.lowrank_approx")["self_s"], "s"),
        "pipelines.best_rank_k_error.total_s": (
            f("pipelines.best_rank_k_error")["total_s"], "s"),
        "pipelines.lowrank.rank_deficient": (
            x("pipelines.lowrank_approx", "rank_deficient"), "count"),
        "pipelines.lsq.self_s": (f("pipelines.sketch_and_solve_lsq")["self_s"], "s"),
        "pipelines.lsq.exact_refactor_s": (x("linalg.lstsq_exact", "exact_refactor_s"), "s"),
        "cli.load_dataset.total_s": (f("cli.load_dataset")["total_s"], "s"),
        "cli.unit.busy_s": (roots["cpu_s"], "s"),
        "cli.unit.wait_s": (roots["span_s"] - roots["cpu_s"], "s"),
        "trace.self_coverage": (_ratio(roots["span_s"], roots["wall_s"]), "ratio"),
    }
    if not f("pipelines.lowrank_approx")["calls"]:
        for name in LOWRANK_METRICS:
            del m[name]
    return {name: (float(val), unit) for name, (val, unit) in m.items()}


def module_shares(summary: dict) -> list[tuple[str, float]]:
    """Share of unit-phase self time per module, largest first."""
    per_module: dict[str, float] = defaultdict(float)
    for name, rec in summary["unit_functions"].items():
        per_module[name.split(".")[0]] += rec["self_s"]
    total = sum(per_module.values())
    return sorted(((mod, _ratio(s, total)) for mod, s in per_module.items()),
                  key=lambda kv: -kv[1])


def function_shares(summary: dict, by: str, top: int = 6) -> list[tuple[str, float]]:
    """Largest unit-phase functions by ``self_s`` or ``total_s`` (inclusive).

    Shares are of the unit-phase root span time, so an inclusive share such
    as that of ``pipelines.best_rank_k_error`` counts the linalg calls under it.
    """
    unit = summary["unit_functions"]
    total = sum(rec["self_s"] for rec in unit.values())
    ranked = sorted(((name, _ratio(rec[by], total)) for name, rec in unit.items()),
                    key=lambda kv: -kv[1])
    return ranked[:top]
