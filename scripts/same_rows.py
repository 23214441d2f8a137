"""Check that the working tree writes the same CSV rows as a base commit.

    python3 scripts/same_rows.py [BASE]        # BASE defaults to HEAD

Extracts BASE with ``git archive`` into a temporary directory, then runs
every step of every workload in ``perfbench/workloads.py`` (its config
files, profile and thread count) at seeds 42 and 7, once with BASE's
``src`` and once with this checkout's, as ``python3 -m sketchbench.cli``
with ``PYTHONPATH=<tree>/src`` and BLAS on one thread.  No workload finds
an expansion witness, so it also runs ``verify-graph`` on
``scripts/verify_graph_witness.cfg``, which does, at 1 and 2 threads.  No
workload reads a file either, so it writes four small MatrixMarket files
into its temporary directory (coordinate and array, general and
symmetric; with numpy and f-strings, not the reader under test) and runs
``distortion-sweep`` on each, through the same absolute path at both
trees so the ``dataset`` column matches.  It also writes ``magical-delta``
configs at s = 1, 2, 3 and 4 and runs those, which puts the block-row draw
under the byte check at every degree up to 4; at s = 2, m = 16 and 24,
4-40% of trials fail, so trials that the greedy pass stalls on and Kuhn's
search rejects reach the rows.  Every workload's ``lowrank-sweep`` has
m < d, so it also runs one at m = 12, 23 and 24 on a 200 x 24 input,
where the rows at m_effective >= d are skip rows (``graph:s=2`` rounds 23
up to 24, ``gaussian`` keeps it).  It compares CSV columns 1-14
(every column but ``wall_time_ms``) and any witness file byte for byte,
prints one line per (step, threads, seed), and exits 1 if any run fails or
any output differs.  When rows differ only in column 14, ``metric_value``,
the line also gives the largest relative change of that column and the
row where it occurs (its data-row number and columns 1-13), so a change
that moves numerics on purpose can state its size.  Run it from anywhere
inside the checkout.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, Step  # noqa: E402

SEEDS = (42, 7)
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
# an absolute config path replaces Step's perfbench/configs directory
WITNESS_STEPS = tuple(Step("verify-graph", str(ROOT / "scripts" / "verify_graph_witness.cfg"),
                           None, threads) for threads in (1, 2))


def matrix_market_steps(tmp: Path) -> list[tuple[str, Step]]:
    """One distortion-sweep step per MatrixMarket variant and symmetry, on
    files written here: a seeded, full-rank 60x8 (30% zeros, which a
    coordinate file leaves out) and a 24x24 symmetric matrix."""
    rng = np.random.default_rng(2024)
    general = rng.standard_normal((60, 8))
    general[rng.random((60, 8)) < 0.3] = 0.0
    b = rng.standard_normal((24, 24))
    symmetric = b + b.T
    column_major = [(i, j) for j in range(8) for i in range(60)]
    lower = [(i, j) for j in range(24) for i in range(j, 24)]

    def coordinate(a, cells):
        cells = [(i, j) for i, j in cells if a[i, j] != 0.0]
        return (f"{a.shape[0]} {a.shape[1]} {len(cells)}\n"
                + "".join(f"{i + 1} {j + 1} {float(a[i, j])!r}\n" for i, j in cells))

    def array(a, cells):
        return f"{a.shape[0]} {a.shape[1]}\n" + "".join(f"{float(a[i, j])!r}\n" for i, j in cells)

    steps = []
    for variant, body in (("coordinate", coordinate), ("array", array)):
        for symmetry, a, cells in (("general", general, column_major),
                                   ("symmetric", symmetric, lower)):
            name = f"{variant}-{symmetry}"
            mtx, cfg = tmp / f"{name}.mtx", tmp / f"{name}.cfg"
            mtx.write_text(f"%%MatrixMarket matrix {variant} real {symmetry}\n"
                           + body(a, cells))
            cfg.write_text(f"input = {mtx}\nmethods = graph:s=2,gaussian\n"
                           "m_values = 16,32\ntrials = 2\n")
            steps.append((name, Step("distortion-sweep", str(cfg), None, 1)))
    return steps


def magical_delta_steps(tmp: Path) -> list[tuple[str, Step]]:
    """One magical-delta step at each degree s in {1, 2, 3, 4}, on configs
    written here (n = 300, k = 12, 200 trials), at sizes m where the failure
    rate is neither 0 nor 1, so that the rows depend on the drawn rows and
    on Kuhn's search where the greedy matching stalls."""
    steps = []
    for s, m_values in ((1, "48,96"), (2, "16,24"), (3, "12,15"), (4, "12")):
        cfg = tmp / f"magical-delta-s{s}.cfg"
        cfg.write_text(f"n = 300\ns = {s}\nk = 12\nm_values = {m_values}\ntrials = 200\n")
        steps.append((f"magical-delta-s{s}", Step("magical-delta", str(cfg), None, 1)))
    return steps


def lowrank_steps(tmp: Path) -> list[tuple[str, Step]]:
    """One lowrank-sweep step with m on both sides of d = 24, on a config
    written here: m_effective = 23 still builds a basis, m_effective = 24
    gives a skip row."""
    cfg = tmp / "lowrank-m-to-d.cfg"
    cfg.write_text("input = gen:lowrank:200x24:4:0.01\nmethods = graph:s=2,gaussian\n"
                   "k = 4\nm_values = 12,23,24\ntrials = 2\n")
    return [("lowrank-m-to-d", Step("lowrank-sweep", str(cfg), None, 1))]


def extract(base: str, dest: Path) -> None:
    """``git archive BASE | tar -x -C dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", base], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {base} failed")


def run_step(tree: Path, step, seed: int, out: Path) -> tuple[int, list[str], bytes | None]:
    """(exit code, CSV lines without wall_time_ms, witness bytes or None)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    proc = subprocess.run([sys.executable, "-m", "sketchbench.cli", *step.cli_args(seed, out)],
                          env=env, cwd=out.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = out.read_text().splitlines() if out.exists() else []
    witness = Path(f"{out}.witness.txt")
    return (proc.returncode, [line.rsplit(",", 1)[0] for line in lines],
            witness.read_bytes() if witness.exists() else None)


def metric_change(rows_base: list[str], rows_work: list[str]) -> str:
    """'; largest relative metric_value change R in row I: <columns 1-13>' when
    the rows match in columns 1-13 and differ in column 14 only, else ''."""
    split = [(a.rsplit(",", 1), b.rsplit(",", 1)) for a, b in zip(rows_base, rows_work)]
    if len(rows_base) != len(rows_work) or any(a[0] != b[0] for a, b in split):
        return ""
    worst, where = 0.0, 0
    for i, ((_, x), (_, y)) in enumerate(split[1:], start=1):
        if x == y:
            continue
        try:
            x, y = float(x), float(y)
        except ValueError:
            return ""
        rel = abs(y - x) / abs(x) if x else math.inf
        if not rel <= worst:
            worst, where = rel, i
    return f"; largest relative metric_value change {worst:.3g} in row {where}: {split[where][0][0]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", default="HEAD", help="commit to compare against")
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="same_rows.") as tmp:
        base_tree = Path(tmp) / "base"
        extract(args.base, base_tree)
        sides = (("base", base_tree), ("work", ROOT))
        for side, _ in sides:
            (Path(tmp) / f"{side}.out").mkdir()
        steps = [(wl.name, step) for wl in WORKLOADS.values() for step in wl.steps]
        steps += [("witness", step) for step in WITNESS_STEPS]
        steps += matrix_market_steps(Path(tmp))
        steps += magical_delta_steps(Path(tmp))
        steps += lowrank_steps(Path(tmp))
        for wl_name, step in steps:
            for seed in SEEDS:
                name = f"{wl_name}.{step.command}.t{step.threads}.seed{seed}.csv"
                (rc_base, rows_base, wit_base), (rc_work, rows_work, wit_work) = (
                    run_step(tree, step, seed, Path(tmp) / f"{side}.out" / name)
                    for side, tree in sides)
                if rc_base or rc_work:
                    verdict = f"FAILED (exit {rc_base} at base, {rc_work} here)"
                elif rows_base != rows_work:
                    diff = sum(a != b for a, b in zip(rows_base, rows_work))
                    diff += abs(len(rows_base) - len(rows_work))
                    verdict = (f"DIFFERENT ({diff} of {len(rows_base) - 1} rows"
                               f"{metric_change(rows_base, rows_work)})")
                elif wit_base != wit_work:
                    verdict = "DIFFERENT (witness file)"
                else:
                    witness = ", witness same" if wit_base is not None else ""
                    verdict = f"same ({len(rows_base) - 1} rows{witness})"
                failed |= not verdict.startswith("same")
                print(f"{wl_name} {step.command} threads={step.threads} seed={seed}: "
                      f"{verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
