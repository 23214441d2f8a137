"""End-to-end acceptance checks, one test per release gate.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the same condition, so the suite doubles as a release report.
Thresholds that came from pre-build measurement are pinned as module
constants; the scripts that generated them live in scripts/.
"""

import itertools
import time

import numpy as np
import pytest
from oracles import neighborhood, sketch_densify

from sketchbench.cli import main as cli_main
from sketchbench.graphs import (
    BipartiteGraph,
    estimate_magical_delta,
    max_matching_covers,
    verify_expansion,
)
from sketchbench.linalg import lstsq_factor, thin_qr
from sketchbench.matrices import gen_gaussian, gen_low_rank_plus_noise
from sketchbench.metrics import distortion, distortion_via_basis
from sketchbench.pipelines import best_rank_k_error, lowrank_approx, sketch_and_solve_lsq
from sketchbench.rng import KwiseHash, Prng
from sketchbench.sketch import gaussian_sketch_new, graph_sketch_new, sketch_apply

# Pinned by scripts/calibrate_magical_delta.py: zero failures observed in
# 10000 trials at n=1000, m=110, s=2, k=10, so one order of magnitude of
# slack still leaves the threshold tiny.
MAGICAL_DELTA_THRESHOLD = 0.01

# Pinned by scripts/calibrate_embedding_eps.py: 90th percentile of the
# distortion of a degree-2 sketch at n=1000, k=5, m=1000 over 200 trials.
EMBED_EPS = 0.157


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"[acceptance {tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def desk_basis():
    a = gen_gaussian(1024, 100, Prng(24_000).split(0))
    q, _ = thin_qr(a)
    return a, q


# ---------------------------------------------------------------------------


def test_c01_distortion_definition_agrees_with_basis_route():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = Prng(20_000 + seed)
        a = gen_gaussian(100, 8, rng.split(0))
        pick = seed % 4
        if pick < 3:
            op = graph_sketch_new(100, 40, (1, 2, 4)[pick], rng.split(1))
        else:
            op = gaussian_sketch_new(100, 40, rng.split(1))
        eta_def = distortion(a, sketch_apply(op, a)).eta
        q, _ = thin_qr(a)
        eta_basis = distortion_via_basis(q, op).eta
        worst = max(worst, abs(eta_def - eta_basis))
    dt = time.perf_counter() - t0
    _report(
        "01 distortion-oracle",
        worst <= 1e-8 and dt < 10.0,
        f"max |definition - basis| = {worst:.3e} over 100 instances, {dt:.1f}s",
    )


def test_c02_fast_apply_matches_densified_operator():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = Prng(21_000 + seed)
        dense = gen_gaussian(60, 9, rng.split(0))
        uniform = (rng.split(1).raw(60 * 9) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        # the same matrix with about 75% of its entries zeroed, still held dense
        sparse = np.where(uniform.reshape(60, 9) < 0.25, dense, 0.0)
        for s in (1, 2, 4, 8):
            op = graph_sketch_new(60, 24, s, rng.split(10 + s))
            sd = sketch_densify(op)
            for mat in (dense, sparse):
                got = sketch_apply(op, mat)
                want = sd @ mat
                worst = max(worst, float(np.max(np.abs(got - want))))
    dt = time.perf_counter() - t0
    _report(
        "02 fast-apply",
        worst <= 1e-12 and dt < 10.0,
        f"max entry deviation = {worst:.3e} (dense and sparse-pattern, s in 1..8), {dt:.1f}s",
    )


def test_c03_column_norms_exact():
    rng = Prng(22_000)
    worst_col = 0.0
    worst_fro = 0.0
    structural = True
    for i in range(1000):
        s = 1 + int(rng.integers_below(8, 1)[0])
        blocks = 1 + int(rng.integers_below(6, 1)[0])
        n = 1 + int(rng.integers_below(40, 1)[0])
        op = graph_sketch_new(n, s * blocks, s, rng.split(i))
        sd = sketch_densify(op)
        scale = 1.0 / np.sqrt(s)
        for j in range(n):
            col = sd[:, j]
            nz = col[col != 0.0]
            structural &= nz.size == s and bool(np.all(np.abs(nz) == scale))
            worst_col = max(worst_col, abs(float(col @ col) - 1.0))
        worst_fro = max(worst_fro, abs(float(np.sum(sd * sd)) - n) / n)
    _report(
        "03 column-norms",
        structural and worst_col <= 1e-14 and worst_fro <= 1e-12,
        f"exactly s entries of magnitude 1/sqrt(s) per column; "
        f"max |norm^2 - 1| = {worst_col:.2e}, max fro dev = {worst_fro:.2e} (1000 configs)",
    )


def test_c04_sketched_norm_is_unbiased():
    rng = Prng(23_000)
    x = rng.split(0).normal(200)
    x /= np.sqrt(np.sum(x * x))
    vals = np.empty(10_000)
    for t in range(10_000):
        op = graph_sketch_new(200, 50, 2, rng.split(100 + t))
        y = sketch_apply(op, x.reshape(-1, 1))
        vals[t] = float(np.sum(y * y))
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    dev = abs(vals.mean() - 1.0)
    _report(
        "04 unbiasedness",
        dev <= 3.0 * se,
        f"|mean - 1| = {dev:.2e} vs 3 SE = {3 * se:.2e} over 10000 draws",
    )


def _desk_median(q, label, s, m, trials, master, base):
    etas = []
    for t in range(trials):
        stream = master.split(base + m * 100 + t)
        if label == "gaussian":
            op = gaussian_sketch_new(q.shape[0], m, stream)
        else:
            op = graph_sketch_new(q.shape[0], m, s, stream)
        etas.append(distortion_via_basis(q, op).eta)
    return float(np.median(etas))


def test_c05_distortion_decreases_and_methods_agree(desk_basis):
    t0 = time.perf_counter()
    _, q = desk_basis
    master = Prng(24_000)
    grid = (200, 400, 800, 1600)
    methods = [("graph:s=1", 1), ("graph:s=2", 2), ("graph:s=4", 4), ("gaussian", 0)]
    medians = {}
    for mi, (label, s) in enumerate(methods):
        for m in grid:
            medians[label, m] = _desk_median(q, label, s, m, 10, master, (mi + 1) * 1_000_000)
    decreasing = all(
        medians[label, a] > medians[label, b]
        for label, _ in methods
        for a, b in zip(grid, grid[1:])
    )
    spread = max(
        max(medians[label, m] for label, _ in methods)
        / min(medians[label, m] for label, _ in methods)
        for m in grid
    )
    dt = time.perf_counter() - t0
    _report(
        "05 sweep-trend",
        decreasing and spread <= 2.0 and dt < 120.0,
        f"medians strictly decreasing in m for all 4 methods, "
        f"max cross-method ratio = {spread:.3f}, {dt:.1f}s",
    )


def test_c06_matching_failure_rate_below_threshold():
    t0 = time.perf_counter()
    rate = estimate_magical_delta(1000, 110, 2, 10, 1000, Prng(25_000))
    dt = time.perf_counter() - t0
    _report(
        "06 magical-delta",
        rate <= MAGICAL_DELTA_THRESHOLD <= 0.2 and dt < 30.0,
        f"failure rate {rate:.4f} <= {MAGICAL_DELTA_THRESHOLD} over 1000 trials, {dt:.1f}s",
    )


def test_c07_subspace_embedding_guarantee():
    master = Prng(26_000)
    u, _ = thin_qr(gen_gaussian(1000, 5, master.split(0)))
    held = 0
    etas = []
    etas4 = []
    for t in range(100):
        op = graph_sketch_new(1000, 1000, 2, master.split(100 + t))
        eta = distortion_via_basis(u, op).eta
        held += int(eta <= EMBED_EPS)
        etas.append(eta)
        op4 = graph_sketch_new(1000, 4000, 2, master.split(10_000 + t))
        etas4.append(distortion_via_basis(u, op4).eta)
    ratio = float(np.median(etas4) / np.median(etas))
    _report(
        "07 embedding",
        held >= 85 and 0.35 <= ratio <= 0.65,
        f"{held}/100 trials hold at eps={EMBED_EPS}, "
        f"median distortion ratio (4m vs m) = {ratio:.3f}",
    )


def test_c08_sketched_least_squares_quality():
    t0 = time.perf_counter()
    good = 0
    worst = 0.0
    for t in range(100):
        rng = Prng(27_000 + t)
        a = gen_gaussian(2000, 10, rng.split(0))
        b = a @ rng.split(1).normal(10) + 0.1 * rng.split(2).normal(2000)
        op = graph_sketch_new(2000, 400, 2, rng.split(3))
        ratio = sketch_and_solve_lsq(a, b, op, lstsq_factor(a)).ratio
        good += int(ratio <= 1.2)
        worst = max(worst, ratio)
    dt = time.perf_counter() - t0
    _report(
        "08 sketched-lsq",
        good >= 90 and dt < 30.0,
        f"{good}/100 trials at ratio <= 1.2 (worst {worst:.4f}), {dt:.1f}s",
    )


def test_c09_lowrank_exact_and_noisy_quality():
    rng = Prng(28_000)
    a0 = gen_low_rank_plus_noise(200, 30, 5, 0.0, rng.split(0))
    res = lowrank_approx(a0, 5, graph_sketch_new(200, 40, 2, rng.split(1)),
                         best_rank_k_error(a0, 5))
    exact_ok = (not res.rank_deficient) and abs(res.ratio - 1.0) <= 1e-8

    a = gen_low_rank_plus_noise(1024, 100, 10, 0.01, rng.split(2))
    opt = best_rank_k_error(a, 10)
    medians = []
    for mi, m in enumerate((20, 40, 80)):
        ratios = [
            lowrank_approx(a, 10, graph_sketch_new(1024, m, 2, rng.split(1000 + mi * 100 + t)),
                           opt).ratio
            for t in range(10)
        ]
        medians.append(float(np.median(ratios)))
    monotone = medians[0] >= medians[1] >= medians[2]
    _report(
        "09 lowrank",
        exact_ok and medians[2] <= 1.5 and monotone,
        f"exact-rank ratio dev = {abs(res.ratio - 1.0):.2e}; "
        f"noisy medians {medians[0]:.4f} >= {medians[1]:.4f} >= {medians[2]:.4f} (last <= 1.5)",
    )


def _random_graph(rng, max_n, max_m, max_s):
    n = 2 + int(rng.integers_below(max_n - 1, 1)[0])
    m = 2 + int(rng.integers_below(max_m - 1, 1)[0])
    s = 1 + int(rng.integers_below(min(max_s, m), 1)[0])
    adjacency = np.stack([np.sort(rng.subset(m, s)) for _ in range(n)])
    return BipartiteGraph(left_count=n, right_count=m, degree=s, adjacency=adjacency)


def test_c10_verifiers_agree_with_brute_force():
    rng = Prng(29_000)
    for _ in range(200):
        g = _random_graph(rng, 30, 60, 3)
        k = 1 + int(rng.integers_below(3, 1)[0])
        eps = (0.1, 0.5, 0.9)[int(rng.integers_below(3, 1)[0])]
        res = verify_expansion(g, k, eps)
        brute_holds = True
        for size in range(1, min(k, g.left_count) + 1):
            for subset in itertools.combinations(range(g.left_count), size):
                union = set()
                for x in subset:
                    union.update(int(v) for v in g.adjacency[x])
                if not len(union) > (1.0 - eps) * g.degree * size:
                    brute_holds = False
                    break
            if not brute_holds:
                break
        assert res.holds == brute_holds
        if res.witness is not None:
            w = res.witness
            assert not len(neighborhood(g, w)) > (1.0 - eps) * g.degree * len(w)

    for _ in range(500):
        g = _random_graph(rng, 8, 12, 3)
        size = int(rng.integers_below(g.left_count + 1, 1)[0])
        c = tuple(int(v) for v in rng.subset(g.left_count, size)) if size else ()
        got = max_matching_covers(g, c)
        hall = all(
            len(neighborhood(g, sub)) >= len(sub)
            for r in range(1, len(c) + 1)
            for sub in itertools.combinations(c, r)
        )
        assert got == hall
    _report(
        "10 verifiers",
        True,
        "expansion matches brute force on 200 graphs; "
        "matching matches Hall condition on 500 instances",
    )


def test_c11a_hash_family_exactly_uniform():
    for p in (2, 3, 5, 7):
        for gamma in (1, 2, 3):
            counts = np.zeros((p, p), dtype=np.int64)
            for coeffs in itertools.product(range(p), repeat=gamma):
                h = KwiseHash(gamma=gamma, prime=p, coefficients=tuple(coeffs), out_range=p)
                for x in range(p):
                    counts[x, h(x)] += 1
            assert np.all(counts == p ** (gamma - 1)), (p, gamma)
    _report(
        "11a hash-uniformity",
        True,
        "outputs exactly uniform over all coefficient tuples, p <= 7, gamma <= 3",
    )


def _reduced_vs_full_medians(q, s, gamma):
    """Median eta of fully random and gamma-wise graph sketches at c11b's seeds.

    Returns one (full, reduced) pair per m in (200, 400, 800, 1600), each the
    median over 10 trials.
    """
    master = Prng(31_000 + s)
    pairs = []
    for m in (200, 400, 800, 1600):
        full = []
        reduced = []
        for t in range(10):
            full.append(
                distortion_via_basis(
                    q, graph_sketch_new(1024, m, s, master.split(1_000_000 + m * 100 + t))
                ).eta
            )
            reduced.append(
                distortion_via_basis(
                    q,
                    graph_sketch_new(
                        1024, m, s, master.split(2_000_000 + m * 100 + t), gamma=gamma
                    ),
                ).eta
            )
        pairs.append((float(np.median(full)), float(np.median(reduced))))
    return pairs


@pytest.mark.parametrize("s", [1, 2, 4])
def test_c11b_reduced_randomness_matches_full(desk_basis, s):
    """A gamma-wise hashed graph sketch reproduces the fully random profile.

    For each m in (200, 400, 800, 1600), the median distortion of 10 sketches
    built with gamma = max(4, 2s) must lie within 10% of the median of 10
    fully random sketches. gamma = 2 is excluded at every s: the pairwise
    row hash is a degree-1 polynomial evaluated at the consecutive column
    indices 0..n-1, which places columns on a lattice and lowers the median
    distortion (c11c keeps that result as a check).
    """
    _, q = desk_basis
    pairs = _reduced_vs_full_medians(q, s, gamma=max(4, 2 * s))
    worst_rel = max(abs(reduced / full - 1.0) for full, reduced in pairs)
    _report(
        f"11b gamma-wise s={s}",
        worst_rel <= 0.10,
        f"max relative median deviation (gamma=max(4,2s) vs full) = {worst_rel:.3f}",
    )


def test_c11c_linear_row_hash_departs_from_full(desk_basis):
    """Pairwise (gamma = 2) hashing at s = 1 does not track full randomness.

    At c11b's seeds the gamma = 2 median distortion lies below the fully
    random one at every m, and by more than 10% at the worst m: the degree-1
    row hash on consecutive column indices puts columns on a lattice.
    """
    _, q = desk_basis
    pairs = _reduced_vs_full_medians(q, 1, gamma=2)
    ratios = [reduced / full for full, reduced in pairs]
    worst_rel = max(abs(r - 1.0) for r in ratios)
    _report(
        "11c gamma=2 s=1 departs",
        all(r < 1.0 for r in ratios) and worst_rel > 0.10,
        "gamma=2 / full median ratios = "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + f"; max relative deviation = {worst_rel:.3f}",
    )


def _csv_without_time(path):
    return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]


def test_c12_cli_output_is_deterministic(tmp_path):
    specs = {
        "distortion-sweep": (
            "input = gen:gaussian:96x6\nmethods = graph:s=2,gaussian\n"
            "m_values = 12,24\ntrials = 2\nseed = 31\n"
        ),
        "lowrank-sweep": (
            "input = gen:lowrank:96x16:4:0.01\nmethods = graph:s=2\n"
            "m_values = 8,16\nk = 4\ntrials = 2\nseed = 31\n"
        ),
        "lsq-bench": (
            "input = gen:gaussian:200x5\nmethods = graph:s=2\n"
            "m_values = 40\ntrials = 2\nseed = 31\n"
        ),
        "verify-graph": "n = 40\ns = 2\nk = 2\neps = 0.5\nm_values = 16\ntrials = 2\nseed = 31\n",
        "magical-delta": "n = 80\ns = 2\nk = 3\nm_values = 20\ntrials = 40\nseed = 31\n",
        "gen": "input = gen:gaussian:12x4\nseed = 31\n",
    }
    for command, body in specs.items():
        work = tmp_path / command
        work.mkdir()
        cfg = work / "run.cfg"
        cfg.write_text(body)
        suffix = ".mtx" if command == "gen" else ".csv"
        out1 = work / f"a{suffix}"
        out2 = work / f"b{suffix}"
        assert cli_main([command, "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(out2)]) == 0
        if command == "gen":
            assert out1.read_bytes() == out2.read_bytes(), command
        else:
            assert _csv_without_time(out1) == _csv_without_time(out2), command
    _report(
        "12 determinism",
        True,
        "all six commands byte-identical across repeat runs (wall_time_ms excluded)",
    )
