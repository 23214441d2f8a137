"""Benchmark harness: deterministic experiment sweeps with CSV output.

Usage:
    sketchbench <command> [--config FILE] [--profile NAME] [--seed N]
                [--out FILE] [--threads N]

Configuration is a flat ``key = value`` text file ('#' starts a comment).
Later sources override earlier ones: built-in defaults, then the selected
profile, then the config file, then the SKETCHBENCH_SEED environment
variable, then command-line flags.

Each concept is declared once.  ``KEYS`` gives every config key its type
and default (``ExperimentConfig`` has one field per key); ``COMMANDS`` gives
every command (the README describes each) its runner and the keys it cannot
run without; ``run_units`` formats the CSV row in the columns of
``CSV_HEADER``.  A config that lacks any of its command's keys is refused,
naming every missing one, before the output is opened.

Every sweep command runs on one engine, ``run_units``: the command checks
its inputs, computes once what depends on the dataset alone, and supplies
one work unit, a function of (method, m, trial) and a random stream that
returns a metric and an optional witness line; the engine owns the loop,
the streams, the timing, the thread pool and the rows, and ``_write_csv``
writes each row with its witness line.  verify-graph and magical-delta are
one-method sweeps over the graph of the n and s keys.

Every CSV cell except wall_time_ms is a pure function of (command, config,
seed), given BLAS on one thread (OPENBLAS_NUM_THREADS=1 or the OMP/MKL
equivalent); threaded BLAS may move Gaussian rows in the last digits.
Each work unit draws its randomness from a child stream keyed by a
hash of (command, method label, m, trial), so adding methods or m values to
a sweep never changes the rows that were already there, and thread count
never affects output: rows are emitted in (method, m, trial) order no
matter which worker finishes first.  Each row, and its witness line, is
written as soon as it and every earlier row are done, so a sweep that fails
keeps its finished rows and their witness lines.

Method specs are colon-separated: ``graph:s=2``, ``graph:s=4:gamma=8``,
``countsketch`` (same as graph:s=1), ``gaussian``.  Graph methods round m
up to the nearest multiple of s; both the requested and the effective m
appear in the output.

Input specs are MatrixMarket paths (coordinate or array, both loaded dense)
or generators:
``gen:gaussian:<n>x<d>`` and ``gen:lowrank:<n>x<d>:<k>:<sigma>``.

Exit codes: 0 success, 1 internal error (any other exception, reported as
its type and message), 2 configuration problem, 3 iteration failure inside
a numerical kernel, 4 rank deficiency or an exhausted enumeration budget.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import (BipartiteGraph, BudgetExceededError, _check_expansion_budget,
                     estimate_magical_delta, verify_expansion)
# thin_qr stays bound here: perfbench/test_perfbench.py patches and restores cli.thin_qr
from .linalg import ConvergenceError, RankDeficiencyError, lstsq_factor, thin_qr  # noqa: F401
from .matrices import gen_gaussian, gen_low_rank_plus_noise, read_matrix_market, write_matrix_market
from .metrics import distortion_via_basis
from .pipelines import best_rank_k_error, lowrank_approx, sketch_and_solve_lsq
from .rng import Prng
from .sketch import gaussian_sketch_new, graph_sketch_new

CSV_HEADER = (
    "command,dataset,method,n,d,s,gamma,m_requested,m_effective,"
    "k,trial,seed,metric_name,metric_value,wall_time_ms"
)

# every config key: (type of a text value, built-in default)
KEYS = {
    "input": (str, None),
    "methods": (str, "graph:s=2"),
    "m_values": (str, None),
    "k": (int, 10),
    "eps": (float, 0.5),
    "trials": (int, 10),
    "seed": (int, 12345),
    "output": (str, None),
    "threads": (int, 1),
    "row_mode": (str, "block"),
    "n": (int, None),
    "s": (int, None),
}

# the commands that build their one graph from the n and s keys
_GRAPH_COMMANDS = ("verify-graph", "magical-delta")

_SWEEP_METHODS = "graph:s=1,graph:s=2,graph:s=4,gaussian"

PROFILES = {
    # paper-scale sweep: 523.5 s with --threads 1 at seed 42 on a 2-vCPU host
    "fig1": {
        "input": "gen:gaussian:4096x1000",
        "methods": _SWEEP_METHODS,
        "m_values": "1500,2000,3000,4000,6000",
        "k": "1000",
        "trials": "10",
    },
    # same shape scaled to run in minutes
    "desk": {
        "input": "gen:gaussian:1024x100",
        "methods": _SWEEP_METHODS,
        "m_values": "200,400,800,1600",
        "k": "100",
        "trials": "10",
    },
    "fig3-lowrank": {
        "input": "gen:lowrank:4096x1000:10:0.01",
        "methods": _SWEEP_METHODS,
        "m_values": "20,40,80,160,320,640",
        "k": "10",
        "trials": "10",
    },
    "desk-lowrank": {
        "input": "gen:lowrank:1024x100:10:0.01",
        "methods": _SWEEP_METHODS,
        "m_values": "20,40,80",
        "k": "10",
        "trials": "10",
    },
}


class ConfigError(ValueError):
    """Bad command line, config file, profile, or parameter combination."""


@dataclass(frozen=True)
class MethodSpec:
    """Parsed operator spec: kind plus degree and independence."""

    label: str
    kind: str            # "graph" or "gaussian"
    s: int               # 0 for gaussian
    gamma: int | None

    @property
    def gamma_text(self) -> str:
        return "full" if self.gamma is None else str(self.gamma)

    def effective_m(self, m: int) -> int:
        if self.kind == "gaussian" or self.s <= 1:
            return m
        return ((m + self.s - 1) // self.s) * self.s

    def build(self, n: int, m_eff: int, rng: Prng, row_mode: str):
        if self.kind == "gaussian":
            return gaussian_sketch_new(n, m_eff, rng)
        return graph_sketch_new(n, m_eff, self.s, rng, gamma=self.gamma, row_mode=row_mode)


def parse_method(spec: str) -> MethodSpec:
    parts = spec.strip().split(":")
    name = parts[0]
    opts: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigError(f"method option {part!r} in {spec!r} must be key=value")
        key, val = part.split("=", 1)
        if key in opts:
            raise ConfigError(f"method option {key!r} repeated in {spec!r}")
        opts[key] = val
    if name == "gaussian":
        if opts:
            raise ConfigError(f"gaussian method takes no options, got {spec!r}")
        return MethodSpec(label=spec.strip(), kind="gaussian", s=0, gamma=None)
    if name == "countsketch":
        if opts:
            raise ConfigError(f"countsketch method takes no options, got {spec!r}")
        return MethodSpec(label=spec.strip(), kind="graph", s=1, gamma=None)
    if name == "graph":
        unknown = set(opts) - {"s", "gamma"}
        if unknown:
            raise ConfigError(f"unknown graph options {sorted(unknown)} in {spec!r}")
        try:
            s = int(opts.get("s", "2"))
            gamma = int(opts["gamma"]) if "gamma" in opts else None
        except ValueError:
            raise ConfigError(f"non-integer option value in {spec!r}") from None
        if s < 1:
            raise ConfigError(f"graph degree s must be >= 1 in {spec!r}")
        if gamma is not None and gamma < 1:
            raise ConfigError(f"gamma must be >= 1 in {spec!r}")
        return MethodSpec(label=spec.strip(), kind="graph", s=s, gamma=gamma)
    raise ConfigError(f"unknown method {name!r} (expected graph, countsketch, or gaussian)")


@dataclass
class ExperimentConfig:
    command: str
    input: str | None
    methods: tuple[MethodSpec, ...]
    m_values: tuple[int, ...]
    k: int
    eps: float
    trials: int
    seed: int
    output: str | None
    threads: int
    row_mode: str
    n: int | None
    s: int | None


# ---------------------------------------------------------------------------
# configuration assembly


def _parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = val
    return out


def _coerce(key: str, raw) -> object:
    if raw is None or isinstance(raw, (int, float)):
        return raw
    caster = KEYS[key][0]
    try:
        return caster(raw)
    except ValueError:
        raise ConfigError(f"config key {key}={raw!r} is not a valid {caster.__name__}") from None


def _parse_m_values(raw: str | None) -> tuple[int, ...]:
    if raw is None or str(raw).strip() == "":
        return ()
    try:
        values = tuple(int(part.strip()) for part in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"m_values must be comma-separated integers, got {raw!r}") from None
    if any(v < 1 for v in values):
        raise ConfigError(f"m_values must be positive, got {raw!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"m_values must be strictly ascending, got {raw!r}")
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    chosen: dict[str, object] = {}
    if args.profile is not None:
        if args.profile not in PROFILES:
            raise ConfigError(
                f"unknown profile {args.profile!r}; available: {', '.join(sorted(PROFILES))}"
            )
        chosen.update(PROFILES[args.profile])
    if args.config is not None:
        chosen.update(_parse_config_file(args.config))
    if args.command in _GRAPH_COMMANDS and "methods" in chosen:
        raise ConfigError(f"{args.command} builds its graph from the n and s keys, not methods")
    merged = {key: default for key, (_, default) in KEYS.items()} | chosen
    # then the environment, then the flags: each set one overrides what came before
    for key, value in (("seed", os.environ.get("SKETCHBENCH_SEED")), ("seed", args.seed),
                       ("output", args.out), ("threads", args.threads)):
        if value is not None:
            merged[key] = value

    typed = {key: _coerce(key, merged[key]) for key in KEYS}
    typed["methods"] = tuple(
        parse_method(part) for part in typed["methods"].split(",") if part.strip()
    )
    if not typed["methods"]:
        raise ConfigError("at least one method is required")
    typed["m_values"] = _parse_m_values(typed["m_values"])
    cfg = ExperimentConfig(command=args.command, **typed)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.row_mode not in ("block", "subset"):
        raise ConfigError(f"row_mode must be block or subset, got {cfg.row_mode!r}")
    gamma = next((m.label for m in cfg.methods if m.gamma is not None), None)
    if gamma is not None and cfg.row_mode == "subset":
        raise ConfigError(f"{gamma}: gamma-wise hashing is only defined for row_mode='block'")
    missing = [key for key in COMMANDS[cfg.command][1] if getattr(cfg, key) in (None, ())]
    if missing:
        raise ConfigError(f"{cfg.command} requires {' and '.join(missing)}")
    if cfg.command in _GRAPH_COMMANDS and not 1 <= cfg.k <= cfg.n:
        raise ConfigError(f"need 1 <= k <= n, got k={cfg.k}, n={cfg.n}")
    if cfg.command in _GRAPH_COMMANDS and cfg.s < 1:
        raise ConfigError(f"s must be >= 1, got {cfg.s}")
    if cfg.command == "verify-graph" and not 0.0 < cfg.eps < 1.0:
        raise ConfigError(f"eps must be in (0, 1), got {cfg.eps}")
    if cfg.command == "magical-delta" and cfg.row_mode != "block":
        raise ConfigError("magical-delta estimates block-mode sketches only; drop row_mode")


# ---------------------------------------------------------------------------
# datasets and streams


def _mix_stream_id(*parts) -> int:
    text = "|".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _trial_stream(master: Prng, command: str, method: str, m: int, trial: int) -> Prng:
    return master.split(_mix_stream_id(command, method, m, trial))


def load_dataset(spec: str, master: Prng) -> np.ndarray:
    """The input matrix of ``spec`` (a MatrixMarket path or a generator), dense float64."""
    if not spec.startswith("gen:"):
        return read_matrix_market(spec)
    parts = spec.split(":")
    stream = master.split(_mix_stream_id("dataset", spec))
    try:
        if parts[1] == "gaussian" and len(parts) == 3:
            n, d = (int(x) for x in parts[2].split("x"))
            return gen_gaussian(n, d, stream)
        if parts[1] == "lowrank" and len(parts) == 5:
            n, d = (int(x) for x in parts[2].split("x"))
            return gen_low_rank_plus_noise(n, d, int(parts[3]), float(parts[4]), stream)
    except ValueError as exc:
        raise ConfigError(f"bad generator spec {spec!r}: {exc}") from None
    raise ConfigError(
        f"bad generator spec {spec!r} "
        "(expected gen:gaussian:<n>x<d> or gen:lowrank:<n>x<d>:<k>:<sigma>)"
    )


def _pool_map(fn, items, threads: int):
    """Lazy ``map(fn, items)``: results in item order, however threads finish."""
    if threads <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, items)


def run_units(cfg: ExperimentConfig, dataset: str, n: int, d: int, k: int,
              methods, unit, trials: int | None = None):
    """The sweep engine shared by every command: rows in (method, m, trial) order.

    ``unit(method, m, m_eff, trial, stream)`` returns ``(metric_name, value,
    witness)``, the witness a line or None; the engine derives the unit's
    stream, times it and formats its CSV row, in the columns of ``CSV_HEADER``.
    The result is an iterator of (row, witness) pairs, so a caller can write
    each as soon as it and every earlier one are done.
    """
    master = Prng(cfg.seed)
    items = [
        (method, m, trial)
        for method in methods
        for m in cfg.m_values
        for trial in range(cfg.trials if trials is None else trials)
    ]

    def work(item):
        method, m, trial = item
        t0 = time.perf_counter()
        m_eff = method.effective_m(m)
        stream = _trial_stream(master, cfg.command, method.label, m, trial)
        metric_name, value, witness = unit(method, m, m_eff, trial, stream)
        wall_time_ms = (time.perf_counter() - t0) * 1000.0
        # float() first: under numpy 2 the repr of an np.float64 is np.float64(...)
        return (
            f"{cfg.command},{dataset},{method.label},{n},{d},{method.s},{method.gamma_text},"
            f"{m},{m_eff},{k},{trial},{cfg.seed},{metric_name},{float(value)!r},"
            f"{wall_time_ms:.3f}"
        ), witness

    return _pool_map(work, items, cfg.threads)


# ---------------------------------------------------------------------------
# commands: set-up checks run at once; the rows come from the engine


def run_distortion_sweep(cfg: ExperimentConfig):
    a = load_dataset(cfg.input, Prng(cfg.seed))
    n, d = a.shape
    # the orthonormal basis of A's range; refuses a wide or rank-deficient A
    basis = lstsq_factor(a).q

    def unit(method, m, m_eff, trial, stream):
        op = method.build(n, m_eff, stream, cfg.row_mode)
        return "distortion", distortion_via_basis(basis, op).eta, None

    return run_units(cfg, cfg.input, n, d, d, cfg.methods, unit)


def run_lowrank_sweep(cfg: ExperimentConfig):
    a = load_dataset(cfg.input, Prng(cfg.seed))
    n, d = a.shape
    for method in cfg.methods:
        for m in cfg.m_values:
            if min(method.effective_m(m), d) > n:
                raise ConfigError(f"{method.label} at m={m} needs a basis wider than the "
                                  f"{n} rows of the {n}x{d} input")
    # the Eckart-Young optimum: one A for every unit; refuses an out-of-range k
    optimal = best_rank_k_error(a, cfg.k)

    def unit(method, m, m_eff, trial, stream):
        if m_eff < cfg.k:
            # too few sketch rows to capture a rank-k subspace; emit a
            # warning row instead of aborting the sweep
            return "skipped_m_below_k", 1.0, None
        op = method.build(n, m_eff, stream, cfg.row_mode)
        return "lowrank_ratio", lowrank_approx(a, cfg.k, op, optimal).ratio, None

    return run_units(cfg, cfg.input, n, d, cfg.k, cfg.methods, unit)


def run_lsq_bench(cfg: ExperimentConfig):
    a = load_dataset(cfg.input, Prng(cfg.seed))
    n, d = a.shape
    # the unsketched solve's factor: one A for every unit; refuses a wide or
    # rank-deficient A
    exact = lstsq_factor(a)
    for method in cfg.methods:
        for m in cfg.m_values:
            if (m_eff := method.effective_m(m)) < d:
                raise RankDeficiencyError(f"{method.label} at m={m}: full column rank needs "
                                          f"m_effective >= d, got {m_eff}x{d}")

    def unit(method, m, m_eff, trial, stream):
        op = method.build(n, m_eff, stream.split(0), cfg.row_mode)
        # per-trial noisy consistent system: b = A x0 + 0.1 z
        x0 = stream.split(1).normal(d)
        noise = stream.split(2).normal(n)
        b = a @ x0 + 0.1 * noise
        return "lsq_ratio", sketch_and_solve_lsq(a, b, op, exact).ratio, None

    return run_units(cfg, cfg.input, n, d, d, cfg.methods, unit)


def _graph_method(cfg: ExperimentConfig) -> MethodSpec:
    """The one method of the graph-only commands, labelled by n and s."""
    return MethodSpec(label=f"graph:n={cfg.n}:s={cfg.s}", kind="graph", s=cfg.s, gamma=None)


def run_verify_graph(cfg: ExperimentConfig):
    method = _graph_method(cfg)
    # the budget depends on (n, k) alone: refuse before the output opens
    _check_expansion_budget(cfg.n, cfg.k)

    def unit(method, m, m_eff, trial, stream):
        op = method.build(cfg.n, m_eff, stream, cfg.row_mode)
        g = BipartiteGraph(op.n, op.m, op.s, adjacency=op.rows_per_column)
        res = verify_expansion(g, cfg.k, cfg.eps)
        witness = None if res.holds else f"m={m} trial={trial} witness={list(res.witness)}"
        return "expansion_holds", 1.0 if res.holds else 0.0, witness

    return run_units(cfg, method.label, cfg.n, 0, cfg.k, (method,), unit)


def run_magical_delta(cfg: ExperimentConfig):
    method = _graph_method(cfg)

    def unit(method, m, m_eff, trial, stream):
        rate = estimate_magical_delta(cfg.n, m_eff, cfg.s, cfg.k, cfg.trials, stream)
        return "failure_rate", rate, None

    # one row per m: the estimator runs the cfg.trials trials itself
    return run_units(cfg, method.label, cfg.n, 0, cfg.k, (method,), unit, trials=1)


def run_gen(cfg: ExperimentConfig) -> None:
    if not cfg.input.startswith("gen:"):
        raise ConfigError("gen needs a gen:... input spec")
    a = load_dataset(cfg.input, Prng(cfg.seed))
    write_matrix_market(a, cfg.output)
    sys.stderr.write(f"wrote {a.shape[0]}x{a.shape[1]} matrix to {cfg.output}\n")


# every command: its runner, and the config keys it cannot run without
COMMANDS = {
    "distortion-sweep": (run_distortion_sweep, ("input", "m_values")),
    "lowrank-sweep": (run_lowrank_sweep, ("input", "m_values")),
    "lsq-bench": (run_lsq_bench, ("input", "m_values")),
    "verify-graph": (run_verify_graph, ("m_values", "n", "s")),
    "magical-delta": (run_magical_delta, ("m_values", "n", "s")),
    "gen": (run_gen, ("input", "output")),
}


# ---------------------------------------------------------------------------
# entry points


def _write_csv(rows, output: str | None) -> None:
    """Header first, then each row and its witness line as soon as it and every
    earlier row are done.  Witnesses go to stderr without ``output``, else to
    ``<output>.witness.txt``, opened at the first one; opening ``output``
    removes an earlier run's, so that file always describes ``output``."""
    with ExitStack() as files:
        out, witness_out = sys.stdout, sys.stderr
        if output is not None:
            out, witness_out = files.enter_context(open(output, "w")), None
            Path(output + ".witness.txt").unlink(missing_ok=True)
        out.write(CSV_HEADER + "\n")
        for row, witness in rows:
            out.write(row + "\n")
            out.flush()
            if witness is not None:
                if witness_out is None:
                    witness_out = files.enter_context(open(output + ".witness.txt", "w"))
                witness_out.write(witness + "\n")
                witness_out.flush()


def _arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchbench",
        description="sketch-operator benchmark sweeps with deterministic CSV output",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--profile", help=f"built-in defaults: {', '.join(sorted(PROFILES))}")
    parser.add_argument("--seed", type=int, help="master seed (overrides config and env)")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--threads", type=int, help="worker threads for sweep trials")
    return parser


def main(argv=None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
        rows = COMMANDS[cfg.command][0](cfg)
        if rows is not None:
            _write_csv(rows, cfg.output)
    except (RankDeficiencyError, BudgetExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except ConvergenceError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except Exception as exc:  # a fault in the program: named, not a traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
