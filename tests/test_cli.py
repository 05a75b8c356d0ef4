"""Command-line interface: subcommands, outputs, exit codes."""

import json
import math

import pytest

from signedflow.cli import main


def _write_cfg(tmp_path, extra=None):
    cfg = {
        "potential": {"kind": "wall"},
        "regime": {"m": 2},
        "initial": {"kind": "density", "components": [
            {"sign": 1, "mass": 1.0, "center": 0.0, "width": 1.0}]},
        "n_list": [16, 32],
        "t_end": 0.1,
        "snapshot_times": [0.1],
        "grid": {"half_width": 2.0, "nodes": 160, "rho": 0.5},
    }
    cfg.update(extra or {})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_check_potential_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check-potential", "--pot", "wall", "--profile", "hj3",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert any(it["item"] == "even" for it in report["items"])


def test_check_potential_failure_exit_code(tmp_path):
    code = main(["check-potential", "--pot", "riesz", "--a", "2.0",
                 "--profile", "hj1"])
    assert code == 2


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "initial": {"kind": "particles", "x": [-0.5, 0.5], "b": [1, -1]},
        "potential": {"kind": "log"},
        "regime": {"m": 1, "alpha": 1.0},
        "t_end": 0.6,
        "snapshot_times": [0.3, 0.6],
    })
    traj = tmp_path / "traj.csv"
    events = tmp_path / "events.jsonl"
    code = main(["simulate", "--config", str(cfg), "--traj", str(traj),
                 "--events", str(events)])
    assert code == 0
    assert traj.read_text().splitlines()[0] == "t,x_0,x_1,b_0,b_1"
    ev = json.loads(events.read_text().splitlines()[0])
    assert ev["b_after"] == [0, 0]
    summary = capsys.readouterr().out
    assert "accepted" in summary and "rejected" in summary
    assert "force evaluations" in summary
    assert "set by the gap cap" in summary


def test_simulate_writes_stats(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "initial": {"kind": "particles", "x": [-0.5, 0.5], "b": [1, -1]},
        "potential": {"kind": "log"},
        "regime": {"m": 1, "alpha": 1.0},
        "t_end": 0.6,
        "snapshot_times": [0.3],
    })
    stats = tmp_path / "stats.json"
    code = main(["simulate", "--config", str(cfg), "--stats", str(stats)])
    assert code == 0
    st = json.loads(stats.read_text())
    assert st["events"] == 1
    assert st["accepted"] > 0 and st["force_evals"] > st["accepted"]
    # one pair per evaluation until the event, none after it
    assert 0 < st["pair_evals"] < st["force_evals"]
    # the snapshot at 0.3 and t_end each set one step
    assert st["snapshot_capped"] == 1 and st["end_capped"] == 1
    capped = st["gap_capped"] + st["snapshot_capped"] + st["end_capped"]
    assert capped <= st["accepted"] + st["rejected"]
    # the closing pair's time to contact shrinks error control's proposal
    assert 0 < st["contact_scaled"] <= st["accepted"]
    summary = capsys.readouterr().out
    assert (f"{st['gap_capped']} steps set by the gap cap, "
            f"{st['contact_scaled']} shrunk by the time to contact") in summary
    assert (f"{st['snapshot_capped']} by a snapshot time, "
            f"{st['end_capped']} by t_end") in summary
    assert f"{st['pair_evals']} pairs swept" in summary


def test_simulate_reports_unordered_sweeps(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "initial": {"kind": "particles", "x": [-0.5, 0.5], "b": [1, -1]},
        "potential": {"kind": "log"},
        "regime": {"m": 1, "alpha": 1.0},
        "t_end": 0.6,
    })
    stats = tmp_path / "stats.json"
    assert main(["simulate", "--config", str(cfg), "--stats", str(stats)]) == 0
    st = json.loads(stats.read_text())
    # one chunk per evaluation: at most one general-form sweep each
    assert 0 <= st["unordered_sweeps"] <= st["force_evals"]
    assert (f"{st['unordered_sweeps']} chunk sweeps of unordered points"
            in capsys.readouterr().out)


def test_pde_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "grid.csv"
    stats = tmp_path / "stats.json"
    code = main(["pde", "--config", str(cfg), "--out", str(out),
                 "--stats", str(stats)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "x,u"
    summary = capsys.readouterr().out
    assert "steps (move " in summary and "t_end 1)" in summary
    assert "Newton iterations" in summary
    st = json.loads(stats.read_text())
    assert st["steps"] == sum(st["limited_by"].values()) > 0
    assert st["limited_by"]["t_end"] == 1
    assert st["newton_iters"] >= st["steps"]
    assert 0 < st["dt_min"] <= 0.1
    assert st["max_principle_violation"] <= 1e-10
    assert f"{st['steps']} steps" in summary


@pytest.mark.parametrize("m", [1, 2])
def test_pde_subcommand_rejects_non_finite_grid(tmp_path, capsys, m):
    cfg = _write_cfg(tmp_path, {"grid": {"half_width": float("nan"),
                                         "nodes": 50, "rho": 0.5}})
    code = main(["pde", "--config", str(cfg), "--m", str(m)])
    assert code == 1
    assert "must be finite" in capsys.readouterr().err


def test_pde_subcommand_rejects_density_off_the_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "initial": {"kind": "density", "components": [
            {"sign": 1, "mass": 1.0, "center": 2.0, "width": 1.0}]},
        "grid": {"half_width": 2.5, "nodes": 160, "rho": 0.5}})
    assert main(["pde", "--config", str(cfg)]) == 1
    assert "does not fit the grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["pde", "--m", "1"], ["pde", "--m", "2"],
                                  ["converge"]], ids=["pde-m1", "pde-m2", "converge"])
def test_subcommands_reject_single_node_grid(tmp_path, capsys, argv):
    cfg = _write_cfg(tmp_path, {"grid": {"half_width": 2.0, "nodes": 1,
                                         "rho": 0.5}})
    code = main([*argv, "--config", str(cfg)])
    assert code == 1
    assert "grid nodes" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [{"n_list": []}, {"snapshot_times": []},
                                   {"tolerances": {"conv_tol": 0.05}}],
                         ids=["n_list", "snapshot_times", "tolerances"])
def test_converge_rejects_incomplete_config(tmp_path, capsys, extra):
    cfg = _write_cfg(tmp_path, extra)
    assert main(["converge", "--config", str(cfg)]) == 1
    assert list(extra)[0] in capsys.readouterr().err


@pytest.mark.parametrize("comp", [{"width": 0.0}, {"width": -1.0},
                                  {"mass": math.nan}, {"center": math.inf}],
                         ids=["zero-width", "negative-width", "nan-mass",
                              "inf-center"])
def test_converge_rejects_bad_density_component(tmp_path, capsys, comp):
    # a zero width divided by zero in the density, an uncaught traceback
    cfg = _write_cfg(tmp_path, {"initial": {"kind": "density", "components": [
        {"sign": 1, "mass": 1.0, "center": 0.0, "width": 1.0, **comp}]}})
    assert main(["converge", "--config", str(cfg)]) == 1
    assert "component" in capsys.readouterr().err


def test_converge_rejects_tolerance_that_is_not_a_number(tmp_path, capsys):
    # a string tolerance ended in a TypeError traceback
    cfg = _write_cfg(tmp_path, {"tolerances": {
        "conv_tol": "0.05", "slack": 1.1, "rk_tol": 1e-9, "quad_tol": 1e-9}})
    assert main(["converge", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "number" in err


def test_converge_subcommand(tmp_path):
    cfg = _write_cfg(tmp_path)
    rep = tmp_path / "report.json"
    csv = tmp_path / "rows.csv"
    code = main(["converge", "--config", str(cfg), "--out", str(rep),
                 "--csv", str(csv)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["passed"]
    assert csv.read_text().splitlines()[0] == "n,t,distance"


def test_converge_writes_stats(tmp_path):
    cfg = _write_cfg(tmp_path)
    stats = tmp_path / "stats.json"
    assert main(["converge", "--config", str(cfg), "--stats", str(stats)]) == 0
    runs = json.loads(stats.read_text())
    assert [r["n"] for r in runs] == [16, 32]
    for r in runs:
        assert r["events"] == 0 and r["accepted"] > 0
        assert r["force_evals"] > r["accepted"] + r["rejected"]


def test_hamiltonian_test_rhs(tmp_path):
    cfg = _write_cfg(tmp_path, {"potential": {"kind": "wall"},
                                "regime": {"m": 3, "beta": 1.0}})
    out = tmp_path / "rhs.csv"
    code = main(["hamiltonian-test", "--lemma", "rhs", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "eps,value,abs_err"


def test_fit_exponent_subcommand(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "initial": {"kind": "particles", "x": [-0.5, 0.5], "b": [1, -1]},
        "potential": {"kind": "power_law_force", "a": 0.5},
        "regime": {"m": 1, "alpha": 1.0},
        "t_end": 1.1,
    })
    out = tmp_path / "fit.json"
    code = main(["fit-exponent", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    fit = json.loads(out.read_text())
    assert fit["passed"]
    assert fit["slope"] == pytest.approx(0.4, abs=0.04)


def test_runtime_error_exit_code(tmp_path):
    code = main(["converge", "--config", str(tmp_path / "missing.json")])
    assert code == 1


def test_invalid_config_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"potential": {"kind": "wall"},
                             "regime": {"m": 9}}))
    code = main(["converge", "--config", str(p)])
    assert code == 1
