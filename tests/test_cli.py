import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from contest_eq.cli import (ParseError, ValidationError, main,
                            parse_config, run_command)

from reference import V50_Q1, V20_BAN_ROOTS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def test_parse_config_echoes_model_values(tmp_path):
    cfg = parse_config(V30_DOC.format(path=tmp_path / "o.csv"))
    p = cfg.params
    assert p.quality.mean == 0.0 and p.quality.stddev == 1.0
    assert p.noise.stddev == math.sqrt(2.0)
    assert p.win_value == 30.0 and p.reject_cost == 1.0 and p.budget == 0.1
    assert cfg.regime == "benchmark"


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


def test_parse_config_rejects_bad_literals():
    with pytest.raises(ParseError, match="not a number"):
        parse_config("[model]\nk = lots\n")
    with pytest.raises(ParseError, match="not a number"):
        parse_config("[model]\nmu_q = lots\n")


def test_parse_config_rejects_unknown_regime():
    with pytest.raises(ValidationError, match="regime"):
        parse_config("[policy]\nregime = lottery\n")


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


def test_csv_output_is_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = parse_config(V50_DOC.format(path=out))
        cfg.command = "solve"
        assert run_command(cfg) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


def test_compare_command_reports_single_crossing(tmp_path):
    out = tmp_path / "cmp.csv"
    cfg = parse_config(V50_DOC.format(path=out))
    cfg.command = "compare"
    assert run_command(cfg) == 0
    report = _read_rows(tmp_path / "cmp_report.csv")[0]
    assert report["verdict"] == "single_crossing"
    assert float(report["qbar"]) > float(report["policy_cutoff"])
    grid = _read_rows(out)
    assert set(grid[0]) == {"q", "h_policy", "h_benchmark", "cdf_diff"}


def test_figures_command_reproduces_ban_length_ordering(tmp_path):
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
    assert run_command(cfg) == 0
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


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    doc = V50_DOC.format(path=out) + "\n[sweep]\naxis = V\nvalues = 50, 500\n"
    cfg = parse_config(doc)
    cfg.command = "sweep"
    assert run_command(cfg) == 0
    rows = _read_rows(out)
    assert [float(r["axis_value"]) for r in rows] == [50.0, 500.0]
    assert all(float(r["residual"]) < 1e-8 for r in rows)


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] in ("FileNotFoundError", "OSError")
