"""The four benchmark workloads: which CLI commands a repetition runs.

Each workload is one or more CLI commands run one after another, each as its
own process.  All settings of a command come from its config file under
``perfbench/configs`` (a profile, where named, is overridden key by key), so
the output checker reads the very file the CLI reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"


@dataclass(frozen=True)
class Step:
    command: str
    config: str          # file name under perfbench/configs
    profile: str | None
    threads: int

    def cli_args(self, seed: int, out: Path) -> list[str]:
        args = [self.command]
        if self.profile is not None:
            args += ["--profile", self.profile]
        args += ["--config", str(CONFIGS / self.config), "--threads", str(self.threads),
                 "--seed", str(seed), "--out", str(out)]
        return args

    def params(self) -> dict[str, str]:
        return parse_config(CONFIGS / self.config)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "distortion-desk",
            "1024x100 subspace distortion, mostly the one-sided Jacobi in linalg; "
            "one thread, no per-dataset recompute",
            (Step("distortion-sweep", "distortion-desk.cfg", "desk", 1),),
        ),
        Workload(
            "lowrank-desk-2t",
            "low-rank sweep on the 2-thread pool; best_rank_k_error recomputes the "
            "input spectrum in every unit",
            (Step("lowrank-sweep", "lowrank-desk-2t.cfg", "desk-lowrank", 2),),
        ),
        Workload(
            "lsq-hash",
            "many short least-squares units; k-wise hashing and Gaussian draws in "
            "rng and sketch, tiny-d thin_qr",
            (Step("lsq-bench", "lsq-hash.cfg", None, 1),),
        ),
        Workload(
            "graph-desk",
            "no linalg: matching and expansion verifiers plus many small rng draws "
            "in the subset row mode",
            (Step("magical-delta", "magical-delta-desk.cfg", None, 1),
             Step("verify-graph", "verify-graph-desk.cfg", None, 1)),
        ),
    )
}


def parse_config(path: Path) -> dict[str, str]:
    """The CLI's flat ``key = value`` format ('#' starts a comment)."""
    out = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out
