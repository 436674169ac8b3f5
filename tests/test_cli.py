import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contest_eq import NoExclusion, cli, equilibria
from contest_eq.cli import (ParseError, ValidationError, main, parse_config,
                            run_command)

from reference import V50_Q1, V20_BAN_ROOTS

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"

V30_DOC = """
[model]
mu_q = 0.0
var_q = 1.0
var_s = 2.0
C = 1.0
V = 30.0
k = 0.1

[policy]
regime = benchmark

[output]
path = {path}
"""

V50_DOC = """
[model]
mu_q = 0.0
var_q = 2.0
var_s = 5.0
C = 1.0
V = 50.0
k = 0.1
delta = 0.97

[policy]
regime = exclusion

[sim]
seed = 987
n_agents = 20000
n_periods = 400
burn_in = 100

[output]
path = {path}
"""


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _count_solves(monkeypatch):
    """Count single-cutoff equilibrium solves from here on."""
    calls = []
    solve = equilibria._solve_common

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(equilibria, "_solve_common", counted)
    return calls


def test_parse_config_echoes_model_values(tmp_path):
    cfg = parse_config(V30_DOC.format(path=tmp_path / "o.csv"))
    p = cfg.params
    assert p.quality.mean == 0.0 and p.quality.stddev == 1.0
    assert p.noise.stddev == math.sqrt(2.0)
    assert p.win_value == 30.0 and p.reject_cost == 1.0 and p.budget == 0.1
    assert cfg.policy == NoExclusion()


def test_parse_config_applies_default_discount(tmp_path):
    cfg = parse_config(V30_DOC.format(path=tmp_path / "o.csv"))
    assert cfg.params.discount == 0.97
    assert cfg.grid_size == 1000


def test_parse_config_rejects_invalid_budget(tmp_path):
    doc = V30_DOC.format(path=tmp_path / "o.csv")
    with pytest.raises(ValidationError, match=r"k must lie in \(0, 1\)"):
        parse_config(doc, overrides=["model.k=1.5"])


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ParseError, match="unknown key"):
        parse_config("[model]\nbudget_volume = 0.1\n")
    with pytest.raises(ParseError, match="unknown section"):
        parse_config("[modle]\nk = 0.1\n")


def test_readme_and_shipped_configs_parse():
    # parse_config rejects unknown keys: a documented key must be a real one
    readme = (ROOT / "README.md").read_text()
    docs = [readme.split("```ini\n", 1)[1].split("```", 1)[0]]
    docs += [path.read_text() for path in sorted(CONFIGS.glob("*.ini"))]
    assert len(docs) == 5
    for doc in docs:
        parse_config(doc)


def test_parse_config_rejects_bad_literals():
    with pytest.raises(ParseError, match="not a number"):
        parse_config("[model]\nk = lots\n")
    with pytest.raises(ParseError, match="not a number"):
        parse_config("[model]\nmu_q = lots\n")


def test_parse_config_rejects_unknown_regime():
    with pytest.raises(ValidationError, match="regime"):
        parse_config("[policy]\nregime = lottery\n")


def test_two_type_is_an_unknown_regime(tmp_path, capsys):
    # every regime names a policy, and a type block makes any of them typed:
    # the one-period-ban label of a type block is exclusion
    config = tmp_path / "two_type.ini"
    config.write_text((CONFIGS / "two_type.ini").read_text().replace(
        "regime = exclusion", "regime = two_type"))
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert record["message"] == "unknown regime 'two_type'"
    assert not out.exists()


def test_solve_command_writes_single_benchmark_row(tmp_path):
    out = tmp_path / "bench.csv"
    cfg = parse_config(V30_DOC.format(path=out))
    cfg.command = "solve"
    assert run_command(cfg) == 0
    rows = _read_rows(out)
    assert len(rows) == 1
    assert rows[0]["regime"] == "benchmark"
    assert float(rows[0]["residual"]) < 1e-8
    assert float(rows[0]["cutoff"]) < float(1.2815515655446004)


# a two-type population whose pooled problem under one-period bans has
# three roots: draw 910 of a seeded search (numpy default_rng(5)) over
# two-type models, rounded.  No normal model turned up two pooled roots in
# a seeded search of the valid box.
MULTI_ROOT_DOC = """
[model]
var_s = 0.347
C = 1.0
V = 245.0
k = 0.457
delta = 0.166
lambda_H = 0.48
mu_q_H = 3.74
var_q_H = 0.0377
mu_q_L = 0.0
var_q_L = 0.0742

[policy]
regime = exclusion

[output]
path = {path}
"""


def test_solve_writes_one_row_per_pooled_root(tmp_path, monkeypatch):
    # the command's solve is pointed at the population's pooled problem:
    # every root gets its row from the one clearing pass the solve made at
    # its roots, and no root is solved twice
    monkeypatch.setattr(cli, "solve", equilibria._solve_common)
    calls = []

    def counted(name):
        real = getattr(equilibria, name)
        monkeypatch.setattr(equilibria, name,
                            lambda *args: calls.append(name) or real(*args))

    for name in ("_root_pass", "_batch_residuals", "_clearing_thresholds"):
        counted(name)
    config = tmp_path / "multi.ini"
    config.write_text(MULTI_ROOT_DOC.format(path=tmp_path / "multi.csv"))
    assert main(["solve", "--config", str(config)]) == 0
    assert calls == ["_root_pass"]
    cfg = parse_config(config.read_text())
    rows = _read_rows(tmp_path / "multi.csv")
    assert len(rows) == 3
    cutoffs = [float(row["cutoff"]) for row in rows]
    assert cutoffs == sorted(cutoffs)
    for row, cutoff in zip(rows, cutoffs):
        assert row["regime"] == "exclusion"
        assert float(row["residual"]) < 1e-8
        _, _, _, sbar, elig = equilibria._batch_residuals(
            cfg.params, cfg.policy, cutoff)
        assert abs(float(row["sbar"]) - sbar[0]) < 1e-9
        assert abs(float(row["eligibility"]) - elig[0]) < 1e-9


def test_csv_output_is_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = parse_config(V50_DOC.format(path=out))
        cfg.command = "solve"
        assert run_command(cfg) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _cell_reference(x):
    """A cell's text as the one-call-per-cell writer formatted it."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".12g")


def test_csv_writer_formats_a_column_at_a_time_as_cell_by_cell(tmp_path):
    # every cell kind the commands write, in float columns, mixed columns
    # and text columns that need quoting
    rows = [[math.inf, "a, \"quoted\" text", 1, np.float64(-0.0), None],
            [-math.inf, "plain", np.int64(7), math.nan, 0.1 + 0.2],
            [np.float64(1e300), "", True, np.float64(-math.inf), 3],
            [-0.0, None, 2.5, np.float64(math.nan), "error: x, y"],
            [np.float64(1.0) / 3.0, "x", -1, 1e-320, np.float32(0.1)]]
    header = ["a", "b", "c", "d", "e"]
    out = tmp_path / "new.csv"
    cli._write_csv(str(out), header, rows)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell_reference(x) for x in row])
    assert out.read_bytes() == ref.read_bytes()
    # a column of floats alone takes the one-map path
    floats = [[x] for x in (math.inf, -math.inf, math.nan, -0.0,
                            np.float64(2.0 / 3.0), 1e300)]
    cli._write_csv(str(out), ["x"], floats)
    assert out.read_text().splitlines() == [
        "x", "inf", "-inf", "nan", "-0", "0.666666666667", "1e+300"]
    with pytest.raises(ValueError):
        cli._write_csv(str(out), ["x"], [[1.0], [1.0, 2.0]])


def test_cli_set_overrides(tmp_path):
    out = tmp_path / "o.csv"
    doc_path = tmp_path / "cfg.ini"
    doc_path.write_text(V30_DOC.format(path=out))
    code = main(["solve", "--config", str(doc_path),
                 "--set", "model.V=50", "--set", "model.var_q=2",
                 "--set", "model.var_s=5", "--set", "policy.regime=exclusion"])
    assert code == 0
    rows = _read_rows(out)
    assert rows[0]["regime"] == "exclusion"
    assert abs(float(rows[0]["cutoff"]) - V50_Q1) < 1e-6


def test_override_pads_are_stripped_before_the_section_lookup(tmp_path,
                                                             capsys):
    # " sim.seed=1" on a config without [sim] adds the section "sim", not
    # " sim"; an unknown padded section is a config error, not a traceback
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", str(CONFIGS / "free_entry.ini"),
                 "--set", " sim.seed=1", "--set", " sim .n_periods = 20",
                 "--set", "sim.burn_in=5", "--set", "sim.n_agents=1000",
                 "--out", str(out)]) == 0
    assert len(_read_rows(out)) == 20
    assert main(["solve", "--config", str(CONFIGS / "free_entry.ini"),
                 "--set", " simm.seed=1", "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ParseError"


@pytest.mark.parametrize("config, cutoffs", [
    ("free_entry.ini", ["sim.cutoff_H=1", "sim.cutoff_L=0"]),
    ("two_type.ini", ["sim.cutoff=1"]),
    ("two_type.ini", ["sim.cutoff=1", "sim.cutoff_H=1", "sim.cutoff_L=0"]),
    ("two_type.ini", ["sim.cutoff_H=1"]),
])
def test_sim_cutoffs_must_match_the_type_block(config, cutoffs, capsys):
    argv = ["simulate", "--config", str(CONFIGS / config),
            "--set", "sim.seed=1"]
    for item in cutoffs:
        argv += ["--set", item]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert "cutoff" in record["message"]


def test_cli_reports_machine_readable_errors(tmp_path, capsys):
    doc_path = tmp_path / "cfg.ini"
    doc_path.write_text(V30_DOC.format(path=tmp_path / "o.csv"))
    code = main(["solve", "--config", str(doc_path), "--set", "model.k=2.0"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert "k" in record["message"]


@pytest.mark.parametrize("overrides", [
    ["model.V=nan"], ["model.C=inf"], ["model.var_s=nan"], ["model.mu_q=nan"],
    ["policy.regime=signal_cutoff", "policy.sbar_ban=nan"],
])
def test_cli_rejects_non_finite_input(tmp_path, capsys, overrides):
    doc_path = tmp_path / "cfg.ini"
    doc_path.write_text(V30_DOC.format(path=tmp_path / "o.csv"))
    argv = ["solve", "--config", str(doc_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command, text, overrides, error", [
    ("solve", "[model\nV = 30\n", [], "ParseError"),
    ("solve", None, ["model.V"], "ParseError"),
    ("solve", None, ["V=30"], "ParseError"),
    ("solve", None, ["sweep.axis=mu"], "ValidationError"),
    ("solve", None, ["output.grid_size=99"], "ValidationError"),
    ("sweep", None, [], "ValidationError"),
    # the quality is stated once: one normal, or the types
    ("solve", None, ["model.mu_q_H=3"], "ValidationError"),
    ("solve", (CONFIGS / "two_type.ini").read_text(),
     ["model.mu_q=3", "model.var_q=9", "output.path={path}"],
     "ValidationError"),
    ("simulate", None, ["sim.seed=1", "sim.cutoff=nan"], "ValidationError"),
], ids=["syntax", "no-equals", "no-section", "sweep-axis", "grid-size",
        "sweep-without-axis", "type-key-without-lambda",
        "pooled-keys-with-lambda", "nan-cutoff"])
def test_config_errors_exit_2_with_a_typed_record(tmp_path, capsys, command,
                                                  text, overrides, error):
    doc_path = tmp_path / "cfg.ini"
    doc_path.write_text(text or V30_DOC.format(path=tmp_path / "o.csv"))
    argv = [command, "--config", str(doc_path)]
    for item in overrides:
        argv += ["--set", item.format(path=tmp_path / "o.csv")]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == error
    assert not (tmp_path / "o.csv").exists()


def test_simulate_without_a_csv_suffix_appends_summary(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(CONFIGS / "free_entry.ini"),
                 "--set", "sim.seed=1", "--set", "sim.n_agents=1000",
                 "--set", "sim.n_periods=20", "--set", "sim.burn_in=5",
                 "--out", str(out)]) == 0
    assert len(_read_rows(out)) == 20
    assert len(_read_rows(tmp_path / "run_summary")) == 1


def test_long_ban_solve_meets_residual_contract(tmp_path):
    out = tmp_path / "o.csv"
    code = main(["solve", "--config", str(CONFIGS / "ban_length.ini"),
                 "--set", "policy.t=5000", "--out", str(out)])
    assert code == 0
    assert float(_read_rows(out)[0]["residual"]) < 1e-8


def test_simulate_requires_seed(tmp_path):
    out = tmp_path / "o.csv"
    cfg = parse_config(V30_DOC.format(path=out))
    cfg.command = "simulate"
    with pytest.raises(ValidationError, match="seed"):
        run_command(cfg)


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_seed_outside_the_philox_keys_is_a_config_error(seed, capsys):
    argv = ["simulate", "--config", str(CONFIGS / "one_period_bans.ini"),
            "--set", f"sim.seed={seed}"]
    with pytest.raises(ValidationError, match="seed"):
        parse_config((CONFIGS / "one_period_bans.ini").read_text(), argv[-1:])
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"


def test_contract_miss_is_a_solver_failure(tmp_path, monkeypatch, capsys):
    # a root polished only to 1e-3 misses the 1e-8 residual contract: solve
    # exits 1 with a record and no CSV, sweep records the miss in its row
    monkeypatch.setattr(equilibria, "_ROOT_TOL", 1e-3)
    config, out = str(CONFIGS / "free_entry.ini"), tmp_path / "o.csv"
    assert main(["solve", "--config", config, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NoConvergence"
    assert not out.exists()
    assert main(["sweep", "--config", config, "--set", "sweep.axis=V",
                 "--set", "sweep.values=30", "--out", str(out)]) == 1
    assert _read_rows(out)[0]["regime"].startswith("error: benchmark root")


def test_simulate_tracks_analytic_eligibility(tmp_path):
    out = tmp_path / "sim.csv"
    cfg = parse_config(V50_DOC.format(path=out))
    cfg.command = "simulate"
    assert run_command(cfg) == 0
    rows = _read_rows(out)
    assert len(rows) == 400
    elig = np.array([float(r["eligibility"]) for r in rows[100:]])
    summary = _read_rows(tmp_path / "sim_summary.csv")[0]
    alpha = float(summary["analytic_eligibility_1"])
    assert abs(elig.mean() - alpha) < 0.01


def test_compare_command_reports_single_crossing(tmp_path, monkeypatch):
    out = tmp_path / "cmp.csv"
    cfg = parse_config(V50_DOC.format(path=out))
    cfg.command = "compare"
    assert run_command(cfg) == 0
    report = _read_rows(tmp_path / "cmp_report.csv")[0]
    assert report["verdict"] == "single_crossing"
    assert float(report["qbar"]) > float(report["policy_cutoff"])
    grid = _read_rows(out)
    assert set(grid[0]) == {"q", "h_policy", "h_benchmark", "cdf_diff"}
    # a benchmark regime is its own reference: one solve, not two
    calls = _count_solves(monkeypatch)
    assert main(["compare", "--config", str(CONFIGS / "free_entry.ini"),
                 "--out", str(tmp_path / "free.csv")]) == 0
    assert len(calls) == 1


def test_figures_command_reproduces_ban_length_ordering(tmp_path,
                                                       monkeypatch):
    outdir = tmp_path / "figs"
    doc = """
[model]
mu_q = 0.0
var_q = 1.0
var_s = 1.0
C = 1.0
V = 20.0
k = 0.1
delta = 0.85

[output]
path = {path}
""".format(path=outdir)
    cfg = parse_config(doc)
    cfg.command = "figures"
    calls = _count_solves(monkeypatch)
    assert run_command(cfg) == 0
    # benchmark, then t = 1 (shared by figures 2 and 3), 5 and 50
    assert len(calls) == 4
    for name in ("figure1.csv", "figure2.csv", "figure3.csv"):
        assert (outdir / name).exists()
    roots = {}
    with open(outdir / "figure3.csv") as fh:
        for row in csv.DictReader(fh):
            if row["series"] == "root":
                roots[int(float(row["x"]))] = float(row["y"])
    assert roots[50] < roots[1] < roots[5]
    for t in (1, 5, 50):
        assert abs(roots[t] - V20_BAN_ROOTS[t]) < 1e-6


def test_sweep_and_figures_share_a_working_directory(tmp_path, monkeypatch):
    # ban_length.ini's one output path serves both commands: the sweep's
    # CSV file and the figures' directory must not collide
    monkeypatch.chdir(tmp_path)
    config = str(CONFIGS / "ban_length.ini")
    assert main(["sweep", "--config", config]) == 0
    swept = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["figures", "--config", config]) == 0
    figures = tmp_path / "ban_length"
    assert sorted(p.name for p in figures.iterdir()) == [
        "figure1.csv", "figure2.csv", "figure3.csv"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
            if p.is_file()} == swept
    assert main(["sweep", "--config", config]) == 0
    assert len(list(figures.iterdir())) == 3


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    doc = V50_DOC.format(path=out) + "\n[sweep]\naxis = V\nvalues = 50, 500\n"
    cfg = parse_config(doc)
    cfg.command = "sweep"
    assert run_command(cfg) == 0
    rows = _read_rows(out)
    assert [float(r["axis_value"]) for r in rows] == [50.0, 500.0]
    assert all(float(r["residual"]) < 1e-8 for r in rows)


def test_two_type_sweep_solves_the_two_type_model(tmp_path):
    # a model-scalar axis solves every value with the configured policy's
    # typed steady state: the V = 50 row is the solve row plus its axis
    # value
    config = str(CONFIGS / "two_type.ini")
    solved, swept = tmp_path / "solve.csv", tmp_path / "sweep.csv"
    assert main(["solve", "--config", config, "--out", str(solved)]) == 0
    assert main(["sweep", "--config", config, "--set", "sweep.axis=V",
                 "--set", "sweep.values=50", "--out", str(swept)]) == 0
    row = _read_rows(swept)[0]
    assert row.pop("axis_value") == "50"
    assert row == _read_rows(solved)[0]
    # the ban length and the signal bar solve the typed model too: each row
    # is the solve row of that policy
    for axis, regime in (("t", "multi_period"), ("sbar_ban", "signal_cutoff")):
        policy = ["--set", f"policy.regime={regime}",
                  "--set", f"policy.{axis}=2"]
        assert main(["solve", "--config", config, "--out", str(solved)]
                    + policy) == 0
        assert main(["sweep", "--config", config,
                     "--set", f"sweep.axis={axis}", "--set", "sweep.values=2",
                     "--out", str(swept)]) == 0
        row = _read_rows(swept)[0]
        assert row.pop("axis_value") == "2"
        assert row == _read_rows(solved)[0]
        assert row["cutoff_2"] != ""


@pytest.mark.parametrize("policy", [
    ["policy.regime=benchmark"], ["policy.regime=exclusion"],
    ["policy.regime=multi_period", "policy.t=5"],
    ["policy.regime=signal_cutoff", "policy.sbar_ban=0"],
], ids=lambda policy: policy[0].split("=")[1])
def test_type_block_solves_and_simulates_under_every_regime(tmp_path, policy):
    # a type block makes every regime typed: one cutoff per type in the
    # *_2 columns, and a simulation that keeps each type's eligible share
    # near its analytic value
    argv = ["--config", str(CONFIGS / "two_type.ini")]
    for item in policy + ["sim.seed=4", "sim.n_agents=20000",
                          "sim.n_periods=250", "sim.burn_in=50"]:
        argv += ["--set", item]
    solved, simulated = tmp_path / "solve.csv", tmp_path / "sim.csv"
    assert main(["solve", "--out", str(solved)] + argv) == 0
    row = _read_rows(solved)[0]
    assert row["regime"].startswith(policy[0].split("=")[1])
    assert float(row["cutoff"]) >= float(row["cutoff_2"])
    assert main(["simulate", "--out", str(simulated)] + argv) == 0
    summary = _read_rows(tmp_path / "sim_summary.csv")[0]
    for i, suffix in ((1, ""), (2, "_2")):
        assert summary[f"analytic_cutoff_{i}"] == row[f"cutoff{suffix}"]
        assert abs(float(summary[f"mean_eligibility_{i}"])
                   - float(row[f"eligibility{suffix}"])) < 0.01


# sha256 of (simulate CSV, summary CSV) per shipped config at seed 7, 5000
# agents, 60 periods and a burn-in of 10
SIMULATE_SHA256 = {
    "ban_length.ini": (
        "748fc74a52f7b953e2b488bf5dcd1d09a26fcb72a2ca55b7b7ba2801627d2aa6",
        "a3b53ed79217165a9def4a0c6be4198bdf96f8cb2097b7342372eddb909da897"),
    "free_entry.ini": (
        "9aeac3e0ceaba55b74a4a90d70db01b7ec68932e005f7b12a9753f46068434b1",
        "7f9960cfd414961f400f5397f44791eb0de3884845a328e726a4f288a610f8d1"),
    "one_period_bans.ini": (
        "b181a70529a7a020a8cda02aaea7554fe49e54db63c89a3280f060dc9c5fcb36",
        "c9eb3352fc0d348af02e817b0948a1275ab0a6acfee46ae52193be59373a3dc0"),
    "two_type.ini": (
        "9e368098ec92735725f3139a5219bc0bfd1d17c7c89194347aecfd78d5ee2ec2",
        "9463b06c701467c9531c4c0a4893e0428fd80920652b97f1947ae7e93456a507"),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_csvs_are_pinned(name, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(CONFIGS / name),
                 "--out", str(out), "--set", "sim.seed=7",
                 "--set", "sim.n_agents=5000", "--set", "sim.n_periods=60",
                 "--set", "sim.burn_in=10"]) == 0
    got = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                for path in (out, tmp_path / "out_summary.csv"))
    assert got == SIMULATE_SHA256[name]


def test_fractional_ban_length_sweep_fails_inline(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(CONFIGS / "ban_length.ini"),
                 "--set", "sweep.values=2, 2.5", "--out", str(out)]) == 1
    rows = _read_rows(out)
    assert rows[0]["regime"] == "multi_period(t=2)"
    assert rows[1]["regime"].startswith("error: ban length")
    assert rows[1]["axis_value"] == "2.5"


def test_programming_errors_propagate(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken solver")

    monkeypatch.setattr(equilibria, "_solve_common", broken)
    with pytest.raises(TypeError, match="broken solver"):
        main(["solve", "--config", str(CONFIGS / "free_entry.ini"),
              "--out", str(tmp_path / "o.csv")])


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_a_broadcast_error_propagates_out_of_main(command, tmp_path,
                                                  monkeypatch, capsys):
    # only values the model rejects and solver failures become exit codes
    def broken(*args, **kwargs):
        return np.zeros(3) + np.zeros(2)

    monkeypatch.setattr(equilibria, "_root_pass", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main([command, "--config", str(CONFIGS / "ban_length.ini"),
              "--out", str(tmp_path / "o.csv")])
    assert capsys.readouterr().err == ""


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] in ("FileNotFoundError", "OSError")


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize adds about 22 MB of resident memory and 0.25 s of
    # import to every process that loads it; scipy.stats (whose
    # multivariate_normal also gives the orthant) about 45 MB and 0.9 s
    code = ("import sys, contest_eq, contest_eq.cli; "
            "sys.exit(any(m in sys.modules for m in ('scipy.optimize', "
            "'scipy.stats', 'scipy.integrate')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
