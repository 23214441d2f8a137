"""sketchbench benchmark: time CLI sweeps end to end, or trace them per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a sketchbench checkout; it runs the CLI from that
checkout's ``src``.  The workloads are in ``workloads.py`` and the metrics are
described in ``perfbench/README.md``.

``--trace 0`` makes one untimed warm-up launch, then launches the workload's
commands again and again until ``S`` seconds are used (at least ``MIN_REPS``
times), with ``SETUP_PROCESSES`` launches that stop at the first work unit
spread among them, and reports the end-to-end metrics as medians.
``--trace 1`` runs the commands once untraced and once with a span around
every public sketchbench function, and reports the per-layer metrics.
Either way every output CSV is checked (``checks.py``) and the last line of
stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run record (versions,
machine, load average) is printed on the line before it and appended to
``perfbench/.out/records.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT = HERE / ".out"
SETUP_PROCESSES = 5
MIN_REPS = 2
RUN_DEADLINE_S = 170.0  # a run must end within 180 s; a launch past this is killed
TAIL_BEYOND = 10


@dataclass
class Launch:
    rc: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    rows: list[dict] | None
    trace: dict | None


def tail_percentile(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).  The value is the
    (n - beyond)-th smallest sample, the nearest-rank percentile
    100 * (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail, got {n}")
    xs = sorted(values)
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


def unit_tail(per_rep: list[list[float]]) -> tuple[float, float, int, int]:
    """``unit_ms_tail`` of a run: (value, percentile, samples, repetitions).

    When every repetition alone reaches the 90th percentile (100 units or
    more), each gives its own tail and the run reports their median: the
    top 10 of many short units are mostly host preemption, and one spiky
    repetition should not move the metric.  Otherwise the repetitions are
    pooled into one tail.
    """
    if all(len(ms) >= 10 * TAIL_BEYOND for ms in per_rep):
        tails = [tail_percentile(ms) for ms in per_rep]
        _, pct, count = tails[0]
        return statistics.median(t[0] for t in tails), pct, count, len(per_rep)
    value, pct, count = tail_percentile([x for ms in per_rep for x in ms])
    return value, pct, count, 1


class Runner:
    """Launches CLI commands of one checkout and collects what they leave."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        # the CLI's --threads is the only parallelism: one BLAS thread per caller
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self._count = 0
        self._deadline = time.monotonic() + RUN_DEADLINE_S

    def launch(self, step, seed: int, setup_only: bool = False, trace: bool = False) -> Launch:
        self._count += 1
        tag = f"{self._count:03d}-{step.command}"
        out, stamp, log = (self.work / f"{tag}{ext}" for ext in (".csv", ".json", ".log"))
        cmd = [sys.executable, str(CHILD), "--stamp", str(stamp)]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--trace"] if trace else []
        cmd += ["--"] + step.cli_args(seed, out)
        with open(log, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self._deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        record = json.loads(stamp.read_text()) if stamp.exists() else {}
        t_first = record.get("t_first")
        rows = None
        if rc == 0 and out.exists():
            try:
                rows = checks.parse_csv(out.read_text())
            except ValueError as exc:
                sys.stderr.write(f"{tag}: unreadable CSV: {exc}\n")
        if rc != 0:
            sys.stderr.write(f"{tag}: exit code {rc}; stderr tail:\n"
                             + log.read_text(errors="replace")[-2000:])
        return Launch(rc=rc, wall_s=t1 - t0,
                      setup_s=None if t_first is None else t_first - t0,
                      rss_mb=usage.ru_maxrss / 1024.0, rows=rows, trace=record.get("trace"))


def check(name: str, expected: list[list[dict]], launches: list[Launch], steps,
          untraced: list[Launch] | None = None) -> tuple[int, int]:
    """(attempted, failed) units over ``launches``, one per step.

    With ``untraced``, a unit also fails when its row differs from the
    untraced run's in any cell but wall_time_ms.  Prints the first problems.
    """
    attempted = failed = 0
    for i, (step, want, got) in enumerate(zip(steps, expected, launches)):
        problems = checks.compare(want, got.rows)
        if untraced is not None:
            for row, why in checks.compare(untraced[i].rows or [], got.rows, 0.0).items():
                problems.setdefault(row, f"differs from the untraced run: {why}")
        attempted += len(want)
        failed += min(len(problems), len(want))
        for row, why in sorted(problems.items())[:5]:
            sys.stderr.write(f"{name} {step.command} row {row}: {why}\n")
    return attempted, failed


def run_untraced(runner: Runner, wl, seed: int, seconds: float, expected) -> dict:
    # warm-up: byte-compiles src on a fresh checkout and fills the page cache
    runner.launch(wl.steps[0], seed, setup_only=True)
    t_end = time.monotonic() + seconds
    setups, reps = [], []
    groups = max(2, SETUP_PROCESSES // len(wl.steps))
    while True:
        # one set-up-only launch before each early repetition spreads them
        # over the run, as the machine drifts
        if len(reps) < groups:
            group = [runner.launch(step, seed, setup_only=True) for step in wl.steps]
            if all(launch.setup_s is not None for launch in group):
                setups.append(sum(launch.setup_s for launch in group))
        t0 = time.monotonic()
        reps.append([runner.launch(step, seed) for step in wl.steps])
        # stop when the next repetition would end past the time budget
        now = time.monotonic()
        if len(reps) >= MIN_REPS and now + (now - t0) > t_end:
            break

    attempted = failed = 0
    run_s, per_s, rss, unit_ms = [], [], [], []  # unit_ms: one list per repetition
    for i, rep in enumerate(reps):
        a, f = check(f"rep {i}", expected, rep, wl.steps)
        attempted += a
        failed += f
        wall = sum(launch.wall_s for launch in rep)
        run_s.append(wall)
        rss.append(max(launch.rss_mb for launch in rep))
        rows = [row for launch in rep for row in (launch.rows or [])]
        unit_ms.append([float(row["wall_time_ms"]) for row in rows])
        if all(launch.setup_s is not None for launch in rep):
            setup = sum(launch.setup_s for launch in rep)
            setups.append(setup)
            per_s.append(len(rows) / (wall - setup))
    tail, pct, count, of_reps = unit_tail(unit_ms)
    print(f"unit_ms_tail is p{pct:.1f} of {count} units ({TAIL_BEYOND} beyond it)"
          + (f", median over {of_reps} reps" if of_reps > 1 else "")
          + f"; {len(reps)} reps, {len(setups)} set-ups")
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (statistics.median(per_s), "1/s"),
        "unit_ms_p50": (statistics.median(x for ms in unit_ms for x in ms), "ms"),
        "unit_ms_tail": (tail, "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"run_s": run_s, "setup_s": setups, "tail_percentile": pct,
                       "tail_samples": count, "tail_reps": of_reps}}


def run_traced(runner: Runner, wl, seed: int, expected) -> dict:
    plain = [runner.launch(step, seed) for step in wl.steps]
    traced = [runner.launch(step, seed, trace=True) for step in wl.steps]
    attempted, failed = check("untraced", expected, plain, wl.steps)
    # tracing must not change a single cell except wall_time_ms
    a, f = check("traced", expected, traced, wl.steps, untraced=plain)
    attempted += a
    failed += f
    if any(launch.trace is None for launch in traced):
        raise RuntimeError("a traced command left no span summary")
    summary = tracer.merge_summaries([launch.trace for launch in traced])
    metrics = tracer.layer_metrics(summary)
    plain_s = sum(launch.wall_s for launch in plain)
    traced_s = sum(launch.wall_s for launch in traced)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["failed_share"] = (failed / attempted, "ratio")
    modules = tracer.module_shares(summary)
    print("unit-phase self time by module: "
          + ", ".join(f"{mod} {share:.3f}" for mod, share in modules))
    for by in ("self_s", "total_s"):
        print(f"largest functions by {by} share: " + ", ".join(
            f"{name} {share:.3f}" for name, share in tracer.function_shares(summary, by)))
    print(f"span coverage of the unit phase: {metrics['trace.self_coverage'][0]:.4f}; "
          f"traced {traced_s:.3f} s vs untraced {plain_s:.3f} s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"module_shares": modules, "untraced_s": plain_s, "traced_s": traced_s}}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_lines(root: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((root / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (42 as in the desk configs; 7 is held out)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured time: repetitions run until it is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "sketchbench" / "cli.py").is_file():
        sys.stderr.write("perfbench: src/sketchbench/cli.py not found; "
                         "run from the root of a sketchbench checkout\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    wl = WORKLOADS[args.workload]
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(), "git_sha": _git_sha(root),
        "src_lines": _src_lines(root), "loadavg_before": os.getloadavg(),
    }
    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work)
        expected, sources = [], []
        for step in wl.steps:
            rows, source = checks.expected_rows(wl.name, step.command, step.params(), args.seed)
            expected.append(rows)
            sources.append(source)
        if args.trace:
            result = run_traced(runner, wl, args.seed, expected)
        else:
            result = run_untraced(runner, wl, args.seed, args.seconds, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    record["expected_from"] = sources
    record["detail"] = result["detail"]
    record["metrics"] = {name: value for name, (value, _) in result["metrics"].items()}
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
