"""Is a CLI output CSV right?  Expected rows, and the comparison against them.

Expected rows come from one of two places:

* a stored reference CSV for (workload, seed), written at a known-good
  commit by ``make_reference.py`` — seeds 42 (the desk default) and 7 (held
  out, for re-checking a claim on a seed it was not tuned on);
* for any other seed, an independent recomputation: the same inputs and
  sketches, rebuilt through the public library API, but every metric taken
  with ``numpy.linalg`` or a plain matching / expansion check instead of the
  program's own kernels.

Every cell except ``wall_time_ms`` must match exactly, except
``metric_value``, which may differ by ``REL_TOL`` relative: loose enough for
last-bit kernel drift (1e-13), far tighter than any sketch-quality effect.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

HEADER = (
    "command,dataset,method,n,d,s,gamma,m_requested,m_effective,"
    "k,trial,seed,metric_name,metric_value,wall_time_ms"
)
COLUMNS = tuple(HEADER.split(","))
REL_TOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference"


# ---------------------------------------------------------------------------
# CSV text and comparison


def parse_csv(text: str) -> list[dict[str, str]]:
    """Rows of a CLI CSV as dicts; raises ValueError on a wrong header."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing or unexpected CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(f"row with {len(cells)} cells: {line!r}")
        rows.append(dict(zip(COLUMNS, cells)))
    return rows


def close(a: float, b: float, rel_tol: float = REL_TOL) -> bool:
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def row_problem(expected: dict, actual: dict, rel_tol: float = REL_TOL) -> str | None:
    """Why ``actual`` is not ``expected``, or None when it is."""
    for col in COLUMNS:
        if col == "wall_time_ms":
            try:
                if not float(actual[col]) >= 0.0:
                    return f"wall_time_ms {actual[col]!r} is negative"
            except ValueError:
                return f"wall_time_ms {actual[col]!r} is not a number"
        elif col == "metric_value":
            try:
                got = float(actual[col])
            except ValueError:
                return f"metric_value {actual[col]!r} is not a number"
            want = float(expected[col])
            if not close(got, want, rel_tol):
                return f"metric_value {got!r} != {want!r}"
        elif str(actual[col]) != str(expected[col]):
            return f"{col} {actual[col]!r} != {expected[col]!r}"
    return None


def compare(expected: list[dict], actual: list[dict] | None,
            rel_tol: float = REL_TOL) -> dict[int, str]:
    """Row index -> problem, for every row that is not as expected.

    The rows are compared in order.  A missing CSV fails every row; a
    missing or an extra row fails one.
    """
    if actual is None:
        return {i: "no output" for i in range(len(expected))}
    problems = {}
    for i, want in enumerate(expected):
        why = "missing" if i >= len(actual) else row_problem(want, actual[i], rel_tol)
        if why is not None:
            problems[i] = why
    problems.update((i, "unexpected") for i in range(len(expected), len(actual)))
    return problems


# ---------------------------------------------------------------------------
# expected rows


def reference_path(workload: str, seed: int, command: str) -> Path:
    return REFERENCE / workload / f"seed{seed}.{command}.csv"


def expected_rows(workload: str, command: str, params: dict[str, str], seed: int):
    """(rows, source): the stored reference when there is one, else the oracle."""
    path = reference_path(workload, seed, command)
    if path.exists():
        return parse_csv(path.read_text()), f"reference {path.name}"
    return ORACLES[command](params, seed), "oracle"


def _stream_id(*parts) -> int:
    # the CLI's documented derivation: blake2b-64 of the '|'-joined key
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


def _method(label: str) -> tuple[str, int, int | None]:
    parts = label.split(":")
    if parts[0] == "gaussian":
        return "gaussian", 0, None
    if parts[0] == "countsketch":
        return "graph", 1, None
    opts = dict(p.split("=", 1) for p in parts[1:])
    return "graph", int(opts.get("s", "2")), int(opts["gamma"]) if "gamma" in opts else None


def _effective_m(kind: str, s: int, m: int) -> int:
    return m if kind == "gaussian" or s <= 1 else -(-m // s) * s


def _build(kind, s, gamma, n, m_eff, rng, row_mode="block"):
    from sketchbench.sketch import gaussian_sketch_new, graph_sketch_new

    if kind == "gaussian":
        return gaussian_sketch_new(n, m_eff, rng)
    return graph_sketch_new(n, m_eff, s, rng, gamma=gamma, row_mode=row_mode)


def _dense(op) -> np.ndarray:
    """The m x n operator matrix, built from the operator's fields."""
    if hasattr(op, "entries"):
        return op.entries
    dense = np.zeros((op.m, op.n))
    cols = np.arange(op.n)
    for i in range(op.s):
        dense[op.rows_per_column[:, i], cols] = op.signs_per_column[:, i] / math.sqrt(op.s)
    return dense


def _dataset(spec: str, master) -> np.ndarray:
    from sketchbench.matrices import gen_gaussian, gen_low_rank_plus_noise

    parts = spec.split(":")
    stream = master.split(_stream_id("dataset", spec))
    n, d = (int(x) for x in parts[2].split("x"))
    if parts[1] == "gaussian":
        return gen_gaussian(n, d, stream)
    return gen_low_rank_plus_noise(n, d, int(parts[3]), float(parts[4]), stream)


def _row(command, dataset, method, n, d, s, gamma, m, m_eff, k, trial, seed, name, value):
    cells = (command, dataset, method, n, d, s, "full" if gamma is None else gamma,
             m, m_eff, k, trial, seed, name, value, "0")
    return {col: (cell if col == "metric_value" else str(cell))
            for col, cell in zip(COLUMNS, cells)}


def _sweep(params: dict, seed: int, command: str, unit, prepare=lambda a: None):
    """Rows of a (method, m, trial) sweep.

    ``prepare(a)`` does the per-dataset work once; ``unit(a, prepared, stream,
    (kind, s, gamma, m_eff))`` gives one row's (metric name, value, k).
    """
    from sketchbench.rng import Prng

    master = Prng(seed)
    spec = params["input"]
    a = _dataset(spec, master)
    n, d = a.shape
    state = prepare(a)
    rows = []
    for label in params["methods"].split(","):
        kind, s, gamma = _method(label)
        for m in (int(x) for x in params["m_values"].split(",")):
            m_eff = _effective_m(kind, s, m)
            for trial in range(int(params.get("trials", 10))):
                stream = master.split(_stream_id(command, label, m, trial))
                name, value, k = unit(a, state, stream, (kind, s, gamma, m_eff))
                rows.append(_row(command, spec, label, n, d, s, gamma, m, m_eff, k,
                                 trial, seed, name, value))
    return rows


def _ratio(err: float, opt: float, scale: float) -> float:
    # the pipelines' convention for exactly solvable instances
    thr = 1e-10 * scale
    if err <= thr and opt <= thr:
        return 1.0
    return math.inf if opt <= thr else err / opt


def oracle_distortion(params: dict, seed: int) -> list[dict]:
    def unit(a, basis, stream, method):
        kind, s, gamma, m_eff = method
        op = _build(kind, s, gamma, a.shape[0], m_eff, stream)
        sig = np.linalg.svd(_dense(op) @ basis, compute_uv=False)
        return "distortion", float(np.max(np.abs(1.0 - sig ** 2))), a.shape[1]

    return _sweep(params, seed, "distortion-sweep", unit, lambda a: np.linalg.qr(a)[0])


def oracle_lowrank(params: dict, seed: int) -> list[dict]:
    k = int(params["k"])

    def best_rank_k_error(a):
        return float(np.sqrt(np.sum(np.linalg.svd(a, compute_uv=False)[k:] ** 2)))

    def unit(a, opt, stream, method):
        kind, s, gamma, m_eff = method
        if m_eff < k:
            return "skipped_m_below_k", 1.0, k
        y = _dense(_build(kind, s, gamma, a.shape[0], m_eff, stream)) @ a
        q = np.linalg.qr(y.T if m_eff <= a.shape[1] else y.T @ y)[0]
        w_k = np.linalg.svd(a @ q, full_matrices=False)[2][:k].T
        v_k = q @ w_k
        err = float(np.linalg.norm(a - (a @ v_k) @ v_k.T))
        return "lowrank_ratio", _ratio(err, opt, float(np.linalg.norm(a))), k

    return _sweep(params, seed, "lowrank-sweep", unit, best_rank_k_error)


def oracle_lsq(params: dict, seed: int) -> list[dict]:
    def unit(a, _, stream, method):
        kind, s, gamma, m_eff = method
        n, d = a.shape
        sketch = _dense(_build(kind, s, gamma, n, m_eff, stream.split(0)))
        b = a @ stream.split(1).normal(d) + 0.1 * stream.split(2).normal(n)
        x_tilde = np.linalg.lstsq(sketch @ a, sketch @ b, rcond=None)[0]
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
        sketched = float(np.linalg.norm(a @ x_tilde - b))
        optimal = float(np.linalg.norm(a @ x_star - b))
        return "lsq_ratio", _ratio(sketched, optimal, float(np.linalg.norm(b))), d

    return _sweep(params, seed, "lsq-bench", unit)


def covers(adjacency: np.ndarray) -> bool:
    """Kuhn's augmenting paths: can every left vertex get its own right vertex?"""
    owner: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in adjacency[u]:
            v = int(v)
            if v not in seen:
                seen.add(v)
                if v not in owner or augment(owner[v], seen):
                    owner[v] = u
                    return True
        return False

    return all(augment(u, set()) for u in range(len(adjacency)))


def expands(rows: np.ndarray, m: int, k: int, eps: float) -> bool:
    """|N(C)| > (1-eps)*s*|C| for every left set of size 1 and 2 (k <= 2 only)."""
    if k > 2:
        raise ValueError("the expansion oracle handles k <= 2")
    n, s = rows.shape
    incidence = np.zeros((n, m), dtype=np.float32)
    incidence[np.repeat(np.arange(n), s), rows.ravel()] = 1.0
    degree = incidence.sum(axis=1)
    if not np.all(degree > (1.0 - eps) * s):
        return False
    if k < 2 or n < 2:
        return True
    shared = incidence @ incidence.T
    i, j = np.triu_indices(n, 1)
    return bool(np.all(degree[i] + degree[j] - shared[i, j] > (1.0 - eps) * s * 2))


def subset(rng, n: int, k: int) -> list[int]:
    """``Prng.subset``'s draws, from one batch of raw outputs.

    The stream is counter based, so ``raw(64)`` equals 64 calls of
    ``raw(1)``.  Each Fisher-Yates step takes raw draws masked to the bit
    width of its bound until one falls below the bound, as the rng does.
    """
    pool, raw, used = list(range(n)), rng.raw(64), 0
    for i in range(k):
        bound = n - i
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            if used == len(raw):
                raw, used = rng.raw(64), 0
            draw = int(raw[used]) & mask
            used += 1
            if draw < bound:
                break
        j = i + draw
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def _graph_params(params: dict):
    n, s, k = int(params["n"]), int(params["s"]), int(params.get("k", 10))
    return n, s, k, f"graph:n={n}:s={s}"


def oracle_magical_delta(params: dict, seed: int) -> list[dict]:
    from sketchbench.rng import Prng
    from sketchbench.sketch import graph_sketch_new

    n, s, k, spec = _graph_params(params)
    trials = int(params.get("trials", 10))
    master = Prng(seed)
    rows = []
    for m in (int(x) for x in params["m_values"].split(",")):
        m_eff = _effective_m("graph", s, m)
        stream = master.split(_stream_id("magical-delta", spec, m, 0))
        failures = 0
        for t in range(trials):
            rng = stream.split(t)
            op = graph_sketch_new(n, m_eff, s, rng)
            failures += not covers(op.rows_per_column[subset(rng, n, k)])
        rows.append(_row("magical-delta", spec, spec, n, 0, s, None, m, m_eff, k, 0, seed,
                         "failure_rate", failures / trials))
    return rows


def oracle_verify_graph(params: dict, seed: int) -> list[dict]:
    from sketchbench.rng import Prng
    from sketchbench.sketch import graph_sketch_new

    n, s, k, spec = _graph_params(params)
    eps = float(params.get("eps", 0.5))
    row_mode = params.get("row_mode", "block")
    master = Prng(seed)
    rows = []
    for m in (int(x) for x in params["m_values"].split(",")):
        m_eff = _effective_m("graph", s, m)
        for trial in range(int(params.get("trials", 10))):
            stream = master.split(_stream_id("verify-graph", spec, m, trial))
            op = graph_sketch_new(n, m_eff, s, stream, row_mode=row_mode)
            holds = expands(op.rows_per_column, m_eff, k, eps)
            rows.append(_row("verify-graph", spec, spec, n, 0, s, None, m, m_eff, k, trial,
                             seed, "expansion_holds", 1.0 if holds else 0.0))
    return rows


ORACLES = {
    "distortion-sweep": oracle_distortion,
    "lowrank-sweep": oracle_lowrank,
    "lsq-bench": oracle_lsq,
    "magical-delta": oracle_magical_delta,
    "verify-graph": oracle_verify_graph,
}
