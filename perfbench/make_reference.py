"""Write the reference CSVs that ``checks.py`` compares runs against.

    python3 perfbench/make_reference.py [--seeds 42,7] [--workload NAME ...]

Run from the root of a checkout whose outputs are known to be right.  Each
command is run once per seed; its CSV is stored only after every row agrees
with the independent oracle in ``checks.py``.  Seed 42 is the desk default;
seed 7 is held out: no change should be tuned on it.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

import checks
from run import OUT, Runner
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="42,7")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    work = OUT / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    status = 0
    try:
        for name in args.workload or sorted(WORKLOADS):
            for seed in (int(s) for s in args.seeds.split(",")):
                for step in WORKLOADS[name].steps:
                    launch = runner.launch(step, seed)
                    problems = checks.compare(checks.ORACLES[step.command](step.params(), seed),
                                              launch.rows)
                    if problems:
                        print(f"{name} seed {seed} {step.command}: not stored: "
                              f"{sorted(problems.items())[:3]}")
                        status = 1
                        continue
                    path = checks.reference_path(name, seed, step.command)
                    path.parent.mkdir(parents=True, exist_ok=True)
                    lines = [checks.HEADER] + [",".join(row[c] for c in checks.COLUMNS)
                                               for row in launch.rows]
                    path.write_text("\n".join(lines) + "\n")
                    print(f"wrote {path.relative_to(root)} ({len(launch.rows)} rows)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
