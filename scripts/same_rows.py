"""Check that the working tree writes the same CSV rows as a base commit.

    python3 scripts/same_rows.py [BASE]        # BASE defaults to HEAD

Extracts BASE with ``git archive`` into a temporary directory, then runs
every step of every workload in ``perfbench/workloads.py`` (its config
files, profile and thread count) at seeds 42 and 7, once with BASE's
``src`` and once with this checkout's, as ``python3 -m sketchbench.cli``
with ``PYTHONPATH=<tree>/src`` and BLAS on one thread.  No workload finds
an expansion witness, so it also runs ``verify-graph`` on
``scripts/verify_graph_witness.cfg``, which does, at 1 and 2 threads.  It
compares CSV columns 1-14 (every column but ``wall_time_ms``) and any
witness file byte for byte, prints one line per (step, threads, seed), and
exits 1 if any run fails or any output differs.  Run it from anywhere
inside the checkout.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, Step  # noqa: E402

SEEDS = (42, 7)
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
# an absolute config path replaces Step's perfbench/configs directory
WITNESS_STEPS = tuple(Step("verify-graph", str(ROOT / "scripts" / "verify_graph_witness.cfg"),
                           None, threads) for threads in (1, 2))


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
                    verdict = f"DIFFERENT ({diff} of {len(rows_base) - 1} rows)"
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
