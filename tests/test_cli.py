import argparse
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from oracles import sketch_densify

from sketchbench import cli, pipelines
from sketchbench.cli import (
    CSV_HEADER,
    ConfigError,
    MethodSpec,
    build_config,
    load_dataset,
    main,
    parse_method,
)
from sketchbench.linalg import ConvergenceError
from sketchbench.matrices import read_matrix_market, write_matrix_market
from sketchbench.rng import Prng


def _args(command, **kw):
    base = dict(config=None, profile=None, seed=None, out=None, threads=None)
    base.update(kw)
    return argparse.Namespace(command=command, **base)


def _rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def _without_time(path):
    return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]


# ---------------------------------------------------------------------------
# method specs


def test_parse_method_graph_defaults():
    m = parse_method("graph")
    assert m == MethodSpec(label="graph", kind="graph", s=2, gamma=None)
    assert m.gamma_text == "full"


def test_parse_method_graph_options():
    m = parse_method("graph:s=4:gamma=8")
    assert m.s == 4 and m.gamma == 8 and m.gamma_text == "8"


def test_parse_method_countsketch_alias():
    m = parse_method("countsketch")
    assert m.kind == "graph" and m.s == 1


def test_parse_method_gaussian():
    m = parse_method("gaussian")
    assert m.kind == "gaussian" and m.s == 0


@pytest.mark.parametrize(
    "spec",
    ["nope", "graph:s=0", "graph:s=two", "graph:flip=1", "gaussian:s=2", "graph:s",
     "graph:s=2:s=4", "graph:gamma=4:gamma=8"],
)
def test_parse_method_rejects(spec):
    with pytest.raises(ConfigError):
        parse_method(spec)


def test_effective_m_rounds_up_to_degree_multiple():
    assert parse_method("graph:s=4").effective_m(10) == 12
    assert parse_method("graph:s=4").effective_m(12) == 12
    assert parse_method("countsketch").effective_m(7) == 7
    assert parse_method("gaussian").effective_m(7) == 7


# ---------------------------------------------------------------------------
# config assembly


def test_config_file_and_flags(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "input = gen:gaussian:64x8\n"
        "methods = graph:s=2,gaussian\n"
        "m_values = 16,32\n"
        "trials = 3\n"
        "seed = 77\n"
    )
    cfg = build_config(_args("distortion-sweep", config=str(cfg_file)))
    assert cfg.input == "gen:gaussian:64x8"
    assert [m.label for m in cfg.methods] == ["graph:s=2", "gaussian"]
    assert cfg.m_values == (16, 32)
    assert cfg.trials == 3
    assert cfg.seed == 77
    assert cfg.threads == 1  # default survives


def test_flag_overrides_file(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("input = gen:gaussian:64x8\nm_values = 16\nseed = 77\n")
    cfg = build_config(_args("distortion-sweep", config=str(cfg_file), seed=5, threads=3))
    assert cfg.seed == 5
    assert cfg.threads == 3


def test_env_seed_between_file_and_flag(tmp_path, monkeypatch):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("input = gen:gaussian:64x8\nm_values = 16\nseed = 77\n")
    monkeypatch.setenv("SKETCHBENCH_SEED", "123")
    cfg = build_config(_args("distortion-sweep", config=str(cfg_file)))
    assert cfg.seed == 123  # env beats the file
    cfg = build_config(_args("distortion-sweep", config=str(cfg_file), seed=9))
    assert cfg.seed == 9  # explicit flag beats env


def test_profile_provides_defaults():
    cfg = build_config(_args("distortion-sweep", profile="desk"))
    assert cfg.input == "gen:gaussian:1024x100"
    assert cfg.m_values == (200, 400, 800, 1600)
    assert len(cfg.methods) == 4


def test_file_overrides_profile(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("m_values = 50,100\n")
    cfg = build_config(_args("distortion-sweep", profile="desk", config=str(cfg_file)))
    assert cfg.m_values == (50, 100)
    assert cfg.input == "gen:gaussian:1024x100"  # untouched profile key survives


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError, match="unknown profile"):
        build_config(_args("distortion-sweep", profile="nope"))


def test_unknown_config_key_reports_line(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("input = x\nwat = 1\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:2.*wat"):
        build_config(_args("distortion-sweep", config=str(cfg_file)))


def test_malformed_config_line(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("just words\n")
    with pytest.raises(ConfigError, match="key=value"):
        build_config(_args("distortion-sweep", config=str(cfg_file)))


def test_m_values_must_ascend(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("input = gen:gaussian:64x8\nm_values = 32,16\n")
    with pytest.raises(ConfigError, match="ascending"):
        build_config(_args("distortion-sweep", config=str(cfg_file)))


def test_missing_required_keys(tmp_path):
    with pytest.raises(ConfigError, match="input"):
        build_config(_args("distortion-sweep"))
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("m_values = 8\n")
    with pytest.raises(ConfigError, match="n and s"):
        build_config(_args("verify-graph", config=str(cfg_file)))


def test_bad_row_mode(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("input = gen:gaussian:64x8\nm_values = 16\nrow_mode = fancy\n")
    with pytest.raises(ConfigError, match="row_mode"):
        build_config(_args("distortion-sweep", config=str(cfg_file)))


# ---------------------------------------------------------------------------
# dataset loading


def test_load_dataset_gaussian_spec():
    a = load_dataset("gen:gaussian:32x5", Prng(4))
    assert a.shape == (32, 5) and a.dtype == np.float64


def test_load_dataset_lowrank_spec():
    a = load_dataset("gen:lowrank:40x12:3:0.0", Prng(4))
    assert a.shape == (40, 12)
    assert np.linalg.matrix_rank(a) == 3


def test_load_dataset_same_seed_same_matrix():
    a = load_dataset("gen:gaussian:16x4", Prng(9))
    b = load_dataset("gen:gaussian:16x4", Prng(9))
    np.testing.assert_array_equal(a, b)


def test_load_dataset_independent_of_master_position():
    master = Prng(9)
    master.normal(100)  # advance the parent stream
    b = load_dataset("gen:gaussian:16x4", master)
    a = load_dataset("gen:gaussian:16x4", Prng(9))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("spec", ["gen:gaussian:32", "gen:lowrank:40x12", "gen:wat:3x3"])
def test_load_dataset_bad_specs(spec):
    with pytest.raises(ConfigError):
        load_dataset(spec, Prng(0))


def test_load_dataset_matrix_market_path(tmp_path):
    path = tmp_path / "a.mtx"
    assert main(["gen", "--config", _gen_cfg(tmp_path, "gen:gaussian:6x3"),
                 "--seed", "2", "--out", str(path)]) == 0
    a = load_dataset(str(path), Prng(0))
    assert isinstance(a, np.ndarray) and a.shape == (6, 3)
    np.testing.assert_array_equal(a, read_matrix_market(str(path)))


def _gen_cfg(tmp_path, spec):
    cfg_file = tmp_path / "gen.cfg"
    cfg_file.write_text(f"input = {spec}\n")
    return str(cfg_file)


# ---------------------------------------------------------------------------
# end-to-end sweeps


def _write_sweep_cfg(tmp_path, **overrides):
    fields = {
        "input": "gen:gaussian:96x6",
        "methods": "graph:s=2,gaussian",
        "m_values": "12,24",
        "trials": "2",
        "seed": "31",
    }
    fields.update(overrides)
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    return str(cfg_file)


def test_distortion_sweep_row_accounting(tmp_path):
    out = tmp_path / "out.csv"
    code = main(["distortion-sweep", "--config", _write_sweep_cfg(tmp_path), "--out", str(out)])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 2 * 2 * 2  # methods x m x trials
    assert all(r[0] == "distortion-sweep" for r in rows)
    assert all(r[12] == "distortion" for r in rows)
    assert all(float(r[13]) >= 0.0 for r in rows)
    # rows come out sorted by (method, m, trial) regardless of scheduling
    keys = [(r[2], int(r[7]), int(r[10])) for r in rows]
    methods = [m for m, _, _ in keys]
    assert keys == sorted(keys, key=lambda t: (methods.index(t[0]), t[1], t[2]))


def test_distortion_sweep_same_seed_identical_bytes(tmp_path):
    cfg = _write_sweep_cfg(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["distortion-sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["distortion-sweep", "--config", cfg, "--out", str(out2), "--threads", "3"]) == 0
    assert _without_time(out1) == _without_time(out2)


_VERIFY_GRAPH_CFG = "n = 60\ns = 2\nk = 2\neps = 0.5\nm_values = 8\ntrials = 2\nseed = 5\n"
# witnesses of sizes 2 and 3, at m = 8, 16 and 24 only
_WITNESS_CFG = ("n = 60\ns = 4\nk = 3\neps = 0.5\nm_values = 8,16,24,48,96\ntrials = 3\n"
                "row_mode = subset\nseed = 42\n")


@pytest.mark.parametrize("command, cfg_text", [
    ("lowrank-sweep", "input = gen:lowrank:96x16:4:0.01\nmethods = graph:s=2,gaussian\n"
                      "m_values = 2,8\nk = 4\ntrials = 2\nseed = 31\n"),
    ("lsq-bench", "input = gen:gaussian:400x6\nmethods = graph:s=2,gaussian\n"
                  "m_values = 60,120\ntrials = 2\nseed = 31\n"),
    ("verify-graph", _VERIFY_GRAPH_CFG),
    ("magical-delta", "n = 120\ns = 2\nk = 4\nm_values = 20,40\ntrials = 30\nseed = 9\n"),
])
def test_sweep_same_seed_identical_bytes_at_any_thread_count(tmp_path, command, cfg_text):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(cfg_text)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([command, "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert main([command, "--config", str(cfg_file), "--out", str(out2), "--threads", "3"]) == 0
    assert _without_time(out1) == _without_time(out2)
    if command == "verify-graph":
        witness1 = (tmp_path / "a.csv.witness.txt").read_text()
        assert witness1 == (tmp_path / "b.csv.witness.txt").read_text()


def test_failed_unit_keeps_the_rows_before_it(tmp_path, monkeypatch):
    cfg = _write_sweep_cfg(tmp_path)
    clean, cut = tmp_path / "clean.csv", tmp_path / "cut.csv"
    assert main(["distortion-sweep", "--config", cfg, "--out", str(clean)]) == 0
    real, calls = cli.distortion_via_basis, []

    def fails_on_third_call(u, op):
        calls.append(op)
        if len(calls) == 3:
            raise ConvergenceError("injected failure", 1.0)
        return real(u, op)

    monkeypatch.setattr(cli, "distortion_via_basis", fails_on_third_call)
    assert main(["distortion-sweep", "--config", cfg, "--out", str(cut)]) == 3
    assert _without_time(cut) == _without_time(clean)[:3]  # header and two rows


def test_unexpected_exception_exits_1_and_keeps_the_rows_before_it(tmp_path, monkeypatch, capsys):
    cfg = _write_sweep_cfg(tmp_path)
    clean, cut = tmp_path / "clean.csv", tmp_path / "cut.csv"
    assert main(["distortion-sweep", "--config", cfg, "--out", str(clean)]) == 0
    real, calls = cli.distortion_via_basis, []

    def fails_on_second_call(u, op):
        calls.append(op)
        if len(calls) == 2:
            raise RuntimeError("injected fault")
        return real(u, op)

    monkeypatch.setattr(cli, "distortion_via_basis", fails_on_second_call)
    capsys.readouterr()
    assert main(["distortion-sweep", "--config", cfg, "--out", str(cut)]) == 1
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: injected fault" in err
    assert "Traceback" not in err
    assert _without_time(cut) == _without_time(clean)[:2]  # header and the first row


@pytest.mark.parametrize("threads", ["1", "3"])
def test_failed_verify_graph_unit_keeps_the_witnesses_before_it(tmp_path, monkeypatch, threads):
    cfg_file = tmp_path / "w.cfg"
    cfg_file.write_text(_WITNESS_CFG)
    clean, cut = tmp_path / "clean.csv", tmp_path / "cut.csv"
    args = ["verify-graph", "--config", str(cfg_file), "--threads", threads, "--out"]
    assert main([*args, str(clean)]) == 0
    real = cli.verify_expansion

    def fails_at_m_24(g, k, eps):
        # keyed by the graph, not by call count: threads call units out of item order
        if g.right_count == 24:
            raise RuntimeError("injected fault")
        return real(g, k, eps)

    monkeypatch.setattr(cli, "verify_expansion", fails_at_m_24)
    assert main([*args, str(cut)]) == 1
    assert _without_time(cut) == _without_time(clean)[:7]  # header and the rows of m = 8, 16
    clean_witness = Path(f"{clean}.witness.txt").read_text()
    cut_witness = Path(f"{cut}.witness.txt").read_text()
    assert len(cut_witness.splitlines()) == 6 and clean_witness.startswith(cut_witness)


def test_rerun_to_the_same_output_removes_a_stale_witness_file(tmp_path, capsys):
    cfg_file = tmp_path / "w.cfg"
    cfg_file.write_text(_WITNESS_CFG)
    out, witness = tmp_path / "o.csv", tmp_path / "o.csv.witness.txt"
    args = ["verify-graph", "--config", str(cfg_file), "--out", str(out)]
    assert main(args) == 0
    before = out.read_text(), witness.read_text()
    # a run refused in set-up touches neither file
    cfg_file.write_text(_WITNESS_CFG.replace("k = 3", "k = 6"))
    assert main(args) == 4
    assert "subset evaluations" in capsys.readouterr().err
    assert (out.read_text(), witness.read_text()) == before
    cfg_file.write_text(_WITNESS_CFG.replace("m_values = 8,16,24,48,96", "m_values = 96"))
    assert main(args) == 0
    assert [r[13] for r in _rows(out)] == ["1.0"] * 3
    assert not witness.exists()


def test_adding_a_method_preserves_existing_rows(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg1 = _write_sweep_cfg(tmp_path, methods="graph:s=2")
    assert main(["distortion-sweep", "--config", cfg1, "--out", str(out1)]) == 0
    cfg2 = _write_sweep_cfg(tmp_path, methods="graph:s=2,graph:s=4")
    assert main(["distortion-sweep", "--config", cfg2, "--out", str(out2)]) == 0
    old = [r for r in _without_time(out1)[1:]]
    new = [r for r in _without_time(out2)[1:] if ",graph:s=2," in r]
    assert old == new


def test_adding_an_m_value_preserves_existing_rows(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["distortion-sweep", "--config", _write_sweep_cfg(tmp_path, m_values="12"),
                 "--out", str(out1)]) == 0
    assert main(["distortion-sweep", "--config", _write_sweep_cfg(tmp_path, m_values="12,24"),
                 "--out", str(out2)]) == 0
    old = _without_time(out1)[1:]
    new = [r for r in _without_time(out2)[1:] if ",12,12," in r]
    assert old == new


def test_distortion_sweep_rank_deficient_input_exits_4(tmp_path):
    cfg = _write_sweep_cfg(tmp_path, input="gen:lowrank:64x8:2:0.0")
    assert main(["distortion-sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 4


@pytest.mark.parametrize("command", ["distortion-sweep", "lsq-bench"])
def test_rank_deficient_matrix_market_input_exits_4_before_the_output_opens(tmp_path, command):
    a = Prng(37).normal(40 * 5).reshape(40, 5)
    a[:, 4] = a[:, 0] - a[:, 1]
    mtx = tmp_path / "deficient.mtx"
    write_matrix_market(a, str(mtx))
    out = tmp_path / "x.csv"
    cfg = _write_sweep_cfg(tmp_path, input=str(mtx), m_values="20", trials="1")
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [2.0**600, 2.0**-600])
@pytest.mark.parametrize("command, extra", [
    ("distortion-sweep", {}),
    # m = 12 and 20 are both below d = 24, so both build a basis
    ("lowrank-sweep", {"k": "5"}),
])
def test_sweeps_on_a_file_scaled_by_a_power_of_two_give_the_unscaled_values(tmp_path, command,
                                                                            extra, c):
    # the scale is exact along the whole path, so no square may overflow or vanish
    a = Prng(40).normal(200 * 24).reshape(200, 24)
    values = []
    for name, scale in (("unscaled", 1.0), ("scaled", c)):
        mtx = tmp_path / f"{name}.mtx"
        write_matrix_market(scale * a, str(mtx))
        out = tmp_path / f"{name}.csv"
        cfg = _write_sweep_cfg(tmp_path, input=str(mtx), m_values="12,20", **extra)
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        values.append([row[13] for row in _rows(out)])
    assert len(values[0]) == 8 and values[0] == values[1]


def _lsq_oracle(a, row):
    """numpy.linalg's lsq-bench ratio for one CSV row, on A and b each divided
    by a power of two near its largest entry: the residuals then scale
    together, so the ratio is the one of A and b, and no square overflows."""
    method = parse_method(row[2])
    stream = cli._trial_stream(Prng(int(row[11])), "lsq-bench", row[2], int(row[7]), int(row[10]))
    n, d = a.shape
    sketch = sketch_densify(method.build(n, int(row[8]), stream.split(0), "block"))
    b = a @ stream.split(1).normal(d) + 0.1 * stream.split(2).normal(n)
    a, b = (np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1]) for x in (a, b))
    x_tilde = np.linalg.lstsq(sketch @ a, sketch @ b, rcond=None)[0]
    x_star = np.linalg.lstsq(a, b, rcond=None)[0]
    sketched, optimal = (np.linalg.norm(a @ x - b) for x in (x_tilde, x_star))
    zero = 1e-10 * np.linalg.norm(b)
    return 1.0 if max(sketched, optimal) <= zero else sketched / optimal


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1.0, 2.0**600, 2.0**-600])
def test_lsq_bench_on_a_file_scaled_by_a_power_of_two_matches_numpy(tmp_path, c):
    # b = A x0 + 0.1 z does not scale with A, so each scale has its own values
    a = c * Prng(41).normal(300 * 8).reshape(300, 8)
    mtx = tmp_path / "a.mtx"
    write_matrix_market(a, str(mtx))
    out = tmp_path / "x.csv"
    cfg = _write_sweep_cfg(tmp_path, input=str(mtx), methods="graph:s=2,gaussian",
                           m_values="40,80")
    assert main(["lsq-bench", "--config", cfg, "--out", str(out)]) == 0
    rows = _rows(out)
    got = [float(r[13]) for r in rows]
    want = [_lsq_oracle(a, r) for r in rows]
    assert len(got) == 8
    np.testing.assert_allclose(got, want, rtol=1e-12)
    if c > 1.0:
        # the 0.1 z noise is below 1e-10 ||b||, so both residuals count as zero
        assert got == [1.0] * 8


def test_coordinate_and_array_files_give_the_same_rows(tmp_path):
    a = Prng(38).normal(40 * 5).reshape(40, 5)
    a[Prng(39).normal(40 * 5).reshape(40, 5) < 0.3] = 0.0  # about 60% zeros
    rows, cols = np.nonzero(a)
    coordinate = tmp_path / "coordinate.mtx"
    coordinate.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        f"40 5 {len(rows) + 1}\n"
        + "".join(f"{i + 1} {j + 1} {float(a[i, j])!r}\n" for i, j in zip(rows, cols))
        + f"{rows[0] + 1} {cols[0] + 1} 0.0\n"  # an explicit zero beside a nonzero
    )
    array = tmp_path / "array.mtx"
    write_matrix_market(a, str(array))
    outs = []
    for mtx in (coordinate, array):
        out = tmp_path / f"{mtx.stem}.csv"
        cfg = _write_sweep_cfg(tmp_path, input=str(mtx))
        assert main(["distortion-sweep", "--config", cfg, "--out", str(out)]) == 0
        outs.append([row[:1] + row[2:-1] for row in _rows(out)])
    assert len(outs[0]) == 8 and outs[0] == outs[1]


def test_matrix_market_size_below_one_exits_2_before_the_output_opens(tmp_path, capsys):
    mtx = tmp_path / "empty.mtx"
    mtx.write_text("%%MatrixMarket matrix array real general\n4 0\n")
    out = tmp_path / "x.csv"
    cfg = _write_sweep_cfg(tmp_path, input=str(mtx))
    assert main(["distortion-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert ("line 2: bad size line ['4', '0']: rows and cols must be >= 1, nnz >= 0"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["distortion-sweep", "lowrank-sweep", "lsq-bench"])
def test_gamma_method_with_subset_rows_exits_2_before_the_output_opens(tmp_path, capsys,
                                                                       command):
    out = tmp_path / "x.csv"
    cfg = _write_sweep_cfg(tmp_path, input="gen:gaussian:200x10", k="4", row_mode="subset",
                           methods="graph:s=2,graph:s=2:gamma=4", m_values="40")
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert ("graph:s=2:gamma=4: gamma-wise hashing is only defined for row_mode='block'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["distortion-sweep", "lsq-bench"])
def test_wide_input_exits_4_before_the_output_opens(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    cfg = _write_sweep_cfg(tmp_path, input="gen:gaussian:8x12", m_values="4", trials="1")
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "8x12" in capsys.readouterr().err
    assert not out.exists()


def test_lsq_bench_refuses_m_effective_below_d_before_the_output_opens(tmp_path, capsys):
    out = tmp_path / "x.csv"
    cfg = _write_sweep_cfg(tmp_path, input="gen:gaussian:400x20", m_values="10,40")
    assert main(["lsq-bench", "--config", cfg, "--out", str(out)]) == 4
    assert "graph:s=2 at m=10" in capsys.readouterr().err
    assert not out.exists()


def test_verify_graph_refuses_the_expansion_budget_before_the_output_opens(tmp_path, capsys):
    cfg_file = tmp_path / "g.cfg"
    cfg_file.write_text(_VERIFY_GRAPH_CFG.replace("n = 60", "n = 400").replace("k = 2", "k = 4"))
    out = tmp_path / "g.csv"
    assert main(["verify-graph", "--config", str(cfg_file), "--out", str(out)]) == 4
    assert ("checking all subsets up to size 4 of 400 left vertices needs more than 10000000 "
            "subset evaluations") in capsys.readouterr().err
    assert not out.exists()


def test_distortion_sweep_stdout(tmp_path, capsys):
    assert main(["distortion-sweep", "--config",
                 _write_sweep_cfg(tmp_path, m_values="12", trials="1", methods="graph:s=2")]) == 0
    captured = capsys.readouterr().out.splitlines()
    assert captured[0] == CSV_HEADER
    assert len(captured) == 2


def test_lowrank_sweep_emits_skip_rows(tmp_path):
    cfg = _write_sweep_cfg(
        tmp_path, input="gen:lowrank:96x16:4:0.01", m_values="2,8", k="4",
        methods="graph:s=2",
    )
    out = tmp_path / "lr.csv"
    assert main(["lowrank-sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = _rows(out)
    small = [r for r in rows if r[7] == "2"]
    big = [r for r in rows if r[7] == "8"]
    assert all(r[12] == "skipped_m_below_k" for r in small)
    assert all(r[12] == "lowrank_ratio" for r in big)
    assert all(float(r[13]) >= 1.0 - 1e-12 for r in big)


def test_lowrank_sweep_skips_m_effective_at_or_above_d(tmp_path):
    # graph:s=2 rounds m = 23 up to d = 24, where the basis spans all of R^24
    cfg = _write_sweep_cfg(tmp_path, input="gen:lowrank:96x24:4:0.01", m_values="8,23,24,40",
                           k="4", methods="graph:s=2,gaussian")
    out = tmp_path / "lr.csv"
    assert main(["lowrank-sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = _rows(out)
    skipped = [r for r in rows if r[12] == "skipped_m_not_below_d"]
    assert {(r[2], r[7], r[8]) for r in skipped} == {
        ("graph:s=2", "23", "24"), ("graph:s=2", "24", "24"), ("graph:s=2", "40", "40"),
        ("gaussian", "24", "24"), ("gaussian", "40", "40")}
    assert all(r[13] == "1.0" for r in skipped)
    assert {(r[2], r[8]) for r in rows if r[12] == "lowrank_ratio"} == {
        ("graph:s=2", "8"), ("gaussian", "8"), ("gaussian", "23")}


def test_lowrank_sweep_k_out_of_range(tmp_path):
    cfg = _write_sweep_cfg(tmp_path, input="gen:gaussian:32x4", k="9")
    out = tmp_path / "x.csv"
    assert main(["lowrank-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_lowrank_sweep_refuses_a_basis_wider_than_the_input_rows(tmp_path, capsys):
    # m_eff = 40 gives min(m, d) = 40 basis directions, but Y = SA has rank <= n = 30
    cfg = _write_sweep_cfg(tmp_path, input="gen:lowrank:30x60:5:0.01", k="5",
                           methods="graph:s=2", m_values="20,40,80")
    out = tmp_path / "x.csv"
    assert main(["lowrank-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "graph:s=2 at m=40" in capsys.readouterr().err
    assert not out.exists()


def test_lowrank_sweep_evaluates_the_input_spectrum_once(tmp_path, monkeypatch):
    real, calls = pipelines.singular_values, []

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(pipelines, "singular_values", counted)
    cfg = _write_sweep_cfg(tmp_path, input="gen:lowrank:96x16:4:0.01", k="4", m_values="8,16")
    assert main(["lowrank-sweep", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                 "--threads", "2"]) == 0
    assert len(_rows(tmp_path / "x.csv")) == 2 * 2 * 2
    assert calls == [(96, 16)]


def test_lsq_bench_ratios_near_one(tmp_path):
    cfg = _write_sweep_cfg(tmp_path, input="gen:gaussian:400x6", m_values="120", trials="4",
                           methods="graph:s=2")
    out = tmp_path / "lsq.csv"
    assert main(["lsq-bench", "--config", cfg, "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 4
    for r in rows:
        assert r[12] == "lsq_ratio"
        assert 1.0 - 1e-9 <= float(r[13]) < 1.5


def test_verify_graph_writes_witness_file(tmp_path):
    cfg_file = tmp_path / "vg.cfg"
    cfg_file.write_text(_VERIFY_GRAPH_CFG)
    out = tmp_path / "vg.csv"
    assert main(["verify-graph", "--config", str(cfg_file), "--out", str(out)]) == 0
    rows = _rows(out)
    assert all(r[12] == "expansion_holds" for r in rows)
    failed = [r for r in rows if float(r[13]) == 0.0]
    witness_path = tmp_path / "vg.csv.witness.txt"
    if failed:
        assert witness_path.exists()
        assert len(witness_path.read_text().splitlines()) == len(failed)
    else:
        assert not witness_path.exists()


@pytest.mark.parametrize("command, extra", [
    ("verify-graph", "methods = graph:s=4:gamma=8"),
    ("magical-delta", "methods = graph:s=2"),
    ("magical-delta", "row_mode = subset"),
])
def test_graph_commands_reject_keys_they_would_ignore(tmp_path, capsys, command, extra):
    cfg_file = tmp_path / "g.cfg"
    cfg_file.write_text(f"{_VERIFY_GRAPH_CFG}{extra}\n")
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "g.csv")]) == 2
    assert extra.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_verify_graph_rejects_eps_before_opening_the_output(tmp_path, capsys):
    cfg_file = tmp_path / "g.cfg"
    cfg_file.write_text(_VERIFY_GRAPH_CFG.replace("eps = 0.5", "eps = 1.5"))
    assert main(["verify-graph", "--config", str(cfg_file), "--out", str(tmp_path / "g.csv")]) == 2
    assert "eps" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("command", ["verify-graph", "magical-delta"])
def test_graph_commands_reject_s_below_one_before_opening_the_output(tmp_path, capsys, command):
    cfg_file = tmp_path / "g.cfg"
    cfg_file.write_text("n = 60\ns = 0\nk = 2\nm_values = 8\ntrials = 1\nseed = 5\n")
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "g.csv")]) == 2
    assert "s must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_magical_delta_row_per_m(tmp_path):
    cfg_file = tmp_path / "md.cfg"
    cfg_file.write_text("n = 120\ns = 2\nk = 4\nm_values = 20,40\ntrials = 30\nseed = 9\n")
    out = tmp_path / "md.csv"
    assert main(["magical-delta", "--config", str(cfg_file), "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert all(r[12] == "failure_rate" for r in rows)
    assert all(0.0 <= float(r[13]) <= 1.0 for r in rows)


@pytest.mark.parametrize("command, cfg_text, outcomes, csv_digest, witness_digest", [
    # uncovered trials at m = 20, 40
    ("magical-delta", "n = 400\ns = 2\nk = 10\nm_values = 20,40,80,160\ntrials = 150\nseed = 42\n",
     {("failure_rate", True), ("failure_rate", False)},
     "6b53045ec567ad6202df052e1b4874729e433c98b14820c6e4f8b086e809481d", None),
    ("verify-graph", _WITNESS_CFG,
     {("expansion_holds", True), ("expansion_holds", False)},
     "b852312e1411f3ec45bb393253745da5b207120e835917ea7e266298e4835dd9",
     "3bc085535ac13482dd3b61ee95abcd771c3dc08abbf3c2d6be04f9ebaa43ccd0"),
    # block and gamma modes; m = 8 < d = 12 leaves structural zeros
    ("distortion-sweep", "input = gen:gaussian:300x12\nmethods = graph:s=1,graph:s=2,graph:s=4:gamma=4\n"
                         "m_values = 8,24,48\ntrials = 2\nseed = 42\n",
     {("distortion", True)},
     "2852eece51ad98249e6ceecdfb1325247b599b08fd5ce84dcea863ddbae73b34", None),
    ("lsq-bench", "input = gen:gaussian:400x6\nmethods = graph:s=2,graph:s=3\nm_values = 30,60\n"
                  "trials = 2\nrow_mode = subset\nseed = 42\n",
     {("lsq_ratio", True)},
     "9eb9647fea2394ef33e5813c2b3849daeda6418aae3fedec8d3c1c7525837352", None),
    # m_eff = 2 < k and m = 24 > d = 16 skip
    ("lowrank-sweep", "input = gen:lowrank:120x16:4:0.01\nmethods = graph:s=2,graph:s=4:gamma=4\n"
                      "m_values = 2,8,24\nk = 4\ntrials = 2\nseed = 42\n",
     {("skipped_m_below_k", True), ("skipped_m_not_below_d", True), ("lowrank_ratio", True)},
     "d716368c0e1b63106c5a397e798d38c0e4e6f5401e59cf64fa95a0456ae4614a", None),
], ids=["magical-delta", "verify-graph", "distortion-sweep", "lsq-bench", "lowrank-sweep"])
def test_graph_command_bytes_are_pinned(tmp_path, command, cfg_text, outcomes, csv_digest,
                                        witness_digest):
    # graph methods only: their rows do not depend on how many threads BLAS runs
    cfg_file = tmp_path / "g.cfg"
    cfg_file.write_text(cfg_text)
    out = tmp_path / "g.csv"
    assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 0
    assert {(r[12], float(r[13]) > 0.0) for r in _rows(out)} == outcomes
    text = "\n".join(_without_time(out))
    assert hashlib.sha256(text.encode()).hexdigest() == csv_digest
    witness = tmp_path / "g.csv.witness.txt"
    assert witness.exists() == (witness_digest is not None)
    if witness_digest is not None:
        assert hashlib.sha256(witness.read_bytes()).hexdigest() == witness_digest


@pytest.mark.parametrize("sigma", ["nan", "inf"])
@pytest.mark.parametrize("command", ["distortion-sweep", "lowrank-sweep", "lsq-bench", "gen"])
def test_non_finite_noise_sigma_exits_2_before_the_output_opens(tmp_path, capsys, command, sigma):
    cfg = _write_sweep_cfg(tmp_path, input=f"gen:lowrank:64x8:2:{sigma}", k="2")
    out = tmp_path / "x.out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "noise_sigma must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_then_sweep_from_file(tmp_path):
    mtx = tmp_path / "data.mtx"
    assert main(["gen", "--config", _gen_cfg(tmp_path, "gen:gaussian:48x4"),
                 "--seed", "8", "--out", str(mtx)]) == 0
    cfg = _write_sweep_cfg(tmp_path, input=str(mtx), m_values="16", trials="1",
                           methods="countsketch")
    out = tmp_path / "o.csv"
    assert main(["distortion-sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = _rows(out)
    assert rows[0][1] == str(mtx)
    assert rows[0][3] == "48" and rows[0][4] == "4"


@pytest.mark.parametrize("command, overrides, want", [
    ("distortion-sweep", dict(m_values="13", trials="1"),
     "distortion-sweep,gen:gaussian:96x6,graph:s=2,96,6,2,full,13,14,6,0,31,distortion"),
    ("lsq-bench", dict(input="gen:gaussian:400x6", methods="graph:s=4:gamma=4",
                       m_values="30", trials="1"),
     "lsq-bench,gen:gaussian:400x6,graph:s=4:gamma=4,400,6,4,4,30,32,6,0,31,lsq_ratio"),
])
def test_row_format_is_pinned(tmp_path, command, overrides, want):
    out = tmp_path / "o.csv"
    assert main([command, "--config", _write_sweep_cfg(tmp_path, **overrides),
                 "--out", str(out)]) == 0
    row = _rows(out)[0]
    assert ",".join(row[:13]) == want
    assert row[13] == repr(float(row[13])) and "np.float64" not in row[13]
    assert re.fullmatch(r"\d+\.\d{3}", row[14])


def test_gamma_method_in_sweep(tmp_path):
    cfg = _write_sweep_cfg(tmp_path, methods="graph:s=2:gamma=4", m_values="12", trials="1")
    out = tmp_path / "g.csv"
    assert main(["distortion-sweep", "--config", cfg, "--out", str(out)]) == 0
    row = _rows(out)[0]
    assert row[6] == "4"  # gamma column carries the independence level
    assert row[5] == "2"


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_config_path_exits_2(tmp_path):
    assert main(["distortion-sweep", "--config", str(tmp_path / "missing.cfg")]) == 2


# ---------------------------------------------------------------------------
# the README is the one copy of the key and command tables outside cli.py


def _readme_section(heading):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index(heading)
    return text[start : text.index("\n##", start + 1)]


def test_readme_names_every_config_key_and_command():
    keys = _readme_section("\n### Config files\n")
    assert [key for key in cli.KEYS if f"`{key}`" not in keys] == []
    commands = _readme_section("\nCommands:\n")
    assert [name for name in cli.COMMANDS if f"- `{name}`" not in commands] == []
