"""Experiment harness: configs, placement, envelopes, fits, convergence."""

import dataclasses
import json
import math

import numpy as np
import pytest

from signedflow import (DataError, ExperimentConfig, ParticleState,
                        SignedDensity, cumulative_charge,
                        fit_collision_exponent, fit_exponent_from_series,
                        log_potential, power_law_force_potential,
                        quantile_particles, quartic_envelope, run_convergence,
                        simulate, sup_distance)
from signedflow import harness
from signedflow.harness import convergence_csv


# ---------------------------------------------------------------------------
# densities and quantile placement
# ---------------------------------------------------------------------------

def density_one_sign():
    return SignedDensity.from_spec([
        {"sign": 1, "mass": 1.0, "center": 0.0, "width": 1.0}])


def density_signed():
    return SignedDensity.from_spec([
        {"sign": 1, "mass": 0.6, "center": -0.9, "width": 1.0},
        {"sign": -1, "mass": 0.4, "center": 0.9, "width": 1.0}])


def test_quantile_placement_converges_uniformly():
    dens = density_one_sign()
    xs = np.linspace(-2.5, 2.5, 2001)
    prim = dens.primitive(xs)
    for n in (20, 80, 320):
        st = quantile_particles(dens, n)
        assert st.n == n
        u = cumulative_charge(st)

        class _Probe:
            def __call__(self, x):
                return np.interp(x, xs, prim)

            def candidate_points(self, lo, hi):
                return xs[(xs >= lo) & (xs <= hi)]

        d = sup_distance(u, _Probe(), (-2.4, 2.4))
        assert d <= 0.5 / n + 5e-3


def test_quantile_placement_signed_counts():
    st = quantile_particles(density_signed(), 50)
    assert int(np.sum(st.b == 1)) == 30
    assert int(np.sum(st.b == -1)) == 20
    st.validate()


def test_quantile_placement_rejects_zero_particles():
    dens = SignedDensity.from_spec([
        {"sign": 1, "mass": 0.001, "center": -0.9, "width": 1.0},
        {"sign": -1, "mass": 0.001, "center": 0.9, "width": 1.0}])
    with pytest.raises(DataError, match=r"n = 10 .*0\.001"):
        quantile_particles(dens, 10)


def test_density_primitive_mass():
    dens = density_signed()
    assert dens.primitive(np.array([10.0]))[0] == pytest.approx(0.2, abs=1e-6)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _cfg_dict():
    return {
        "potential": {"kind": "wall"},
        "regime": {"m": 2},
        "initial": {"kind": "density", "components": [
            {"sign": 1, "mass": 1.0, "center": 0.0, "width": 1.0}]},
        "n_list": [16, 32],
        "t_end": 0.1,
        "snapshot_times": [0.1],
        "grid": {"half_width": 2.0, "nodes": 192, "rho": 0.5},
        "seed": 7,
    }


def test_config_roundtrip_and_hash(tmp_path):
    d = _cfg_dict()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    cfg = ExperimentConfig.from_json(p)
    cfg2 = ExperimentConfig.from_dict(json.loads(json.dumps(d)))
    assert cfg.config_hash() == cfg2.config_hash()


def test_config_validation_errors():
    bad = _cfg_dict()
    bad["regime"] = {"m": 4}
    with pytest.raises(DataError):
        ExperimentConfig.from_dict(bad)
    bad = _cfg_dict()
    bad["snapshot_times"] = [0.5]
    with pytest.raises(DataError):
        ExperimentConfig.from_dict(bad)
    bad = _cfg_dict()
    bad["bogus_key"] = 1
    with pytest.raises(DataError):
        ExperimentConfig.from_dict(bad)
    # a nan tolerance makes every comparison with it false, so a check
    # would pass; an infinite one checks nothing; one that is not a number
    # fails the first comparison with a TypeError
    tols = {"conv_tol": 0.05, "slack": 1.1, "rk_tol": 1e-9, "quad_tol": 1e-9}
    for val in (math.nan, math.inf, "0.05", None):
        for key in tols:
            bad = _cfg_dict()
            bad["tolerances"] = {**tols, key: val}
            with pytest.raises(DataError, match=key):
                ExperimentConfig.from_dict(bad)
        bad = _cfg_dict()
        bad["t_end"] = val
        with pytest.raises(DataError, match="t_end"):
            ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("nodes", [1, 0, 2.5, "512", True, None])
def test_config_rejects_grid_below_two_nodes(nodes):
    bad = _cfg_dict()
    bad["grid"] = {"half_width": 2.0, "nodes": nodes, "rho": 0.5}
    with pytest.raises(DataError, match="nodes"):
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("key", ["n_list", "snapshot_times"])
def test_config_rejects_empty_run_lists(key):
    # a convergence check over no n or no time would compare nothing
    bad = _cfg_dict()
    bad[key] = []
    with pytest.raises(DataError, match=key):
        ExperimentConfig.from_dict(bad)


def test_config_names_missing_tolerances():
    bad = _cfg_dict()
    bad["tolerances"] = {"conv_tol": 0.05}
    with pytest.raises(DataError, match="slack, rk_tol, quad_tol"):
        ExperimentConfig.from_dict(bad)
    bad["tolerances"] = {"conv_tol": 0.05, "slack": 1.1, "rk_tol": 1e-9,
                         "quad_tol": 1e-9}
    assert ExperimentConfig.from_dict(bad).tolerances["rk_tol"] == 1e-9


def test_two_node_grid_solves():
    d = _cfg_dict()
    d["grid"] = {"half_width": 2.0, "nodes": 2, "rho": 0.5}
    out, info = harness.solve_limit_equation(ExperimentConfig.from_dict(d))
    assert out.n == 2 and info.steps == 1


def test_limit_solve_rejects_density_off_the_grid():
    # support [1, 3] on a grid ending at 2.5: the fixed end value would hold
    # 0.896 of the unit mass against a far field of 1
    d = _cfg_dict()
    d["initial"]["components"][0]["center"] = 2.0
    d["grid"] = {"half_width": 2.5, "nodes": 192, "rho": 0.5}
    with pytest.raises(DataError, match=r"support \[1, 3\].*grid \[-2.5, 2.5\]"):
        harness.solve_limit_equation(ExperimentConfig.from_dict(d))


# ---------------------------------------------------------------------------
# quartic envelopes
# ---------------------------------------------------------------------------

def _bump(x):
    with np.errstate(over="ignore"):
        return np.where(np.abs(x) < 1,
                        np.exp(-1.0 / np.maximum(1 - x ** 2, 1e-12)), 0.0)


def test_envelope_of_zero_is_zero():
    xs = np.linspace(-3, 3, 301)
    we = quartic_envelope(xs, np.zeros_like(xs), 1.0)
    assert np.max(np.abs(we.env)) <= 1e-12
    assert we.feasible


def test_envelope_counts_its_sweeps():
    xs = np.linspace(-2, 2, 257)
    assert quartic_envelope(xs, -np.abs(xs), 1.0).sweeps == 1
    # infeasible: the minimal K is bracketed and bisected, one sweep a step
    assert quartic_envelope(xs, 0.3 * np.sin(3 * xs), 4.0).sweeps > 1


def test_envelope_absolute_value_touches_everywhere():
    # -|x| can be wrapped from above by unit quartics at every point
    xs = np.linspace(-3, 3, 401)
    we = quartic_envelope(xs, -np.abs(xs), 1.0)
    assert we.feasible
    assert np.max(we.env + np.abs(xs)) <= 1e-10
    assert np.all(we.env >= -np.abs(xs) - 1e-12)
    assert we.check_well_property()


def test_envelope_mollifier_infeasible_at_center():
    xs = np.linspace(-3, 3, 401)
    we = quartic_envelope(xs, -_bump(xs / 2.0), 0.01)
    i0 = np.argmin(np.abs(xs))
    assert not we.feasible
    assert not we.touched[i0]
    assert we.min_feasible_K is not None and we.min_feasible_K > 0.01


def test_envelope_majorizes_and_has_wells():
    rng = np.random.default_rng(1)
    xs = np.linspace(-2, 2, 257)
    phi = np.sin(3 * xs) * 0.3 + rng.uniform(-0.05, 0.05, len(xs))
    we = quartic_envelope(xs, phi, 4.0)
    assert np.all(we.env >= phi - 1e-10)
    # by construction the envelope itself can be wrapped by the same quartics
    assert we.check_well_property(tol=1e-6)


@pytest.mark.parametrize("phi_of, K", [(lambda x: x ** 2, 1.0),
                                       (lambda x: 0.3 * np.sin(3 * x), 4.0)],
                         ids=["square", "sine"])
def test_envelope_well_property_at_well_bottoms(phi_of, K):
    # the envelope bottoms out at wells, where a finite-difference slope
    # cannot recover the well center; the stored arg-min centers can
    xs = np.linspace(-2, 2, 257)
    we = quartic_envelope(xs, phi_of(xs), K)
    assert 0 < np.argmin(we.env) < len(xs) - 1
    assert we.check_well_property()


def test_envelope_well_property_can_fail():
    xs = np.linspace(-2, 2, 257)
    we = quartic_envelope(xs, 0.3 * np.sin(3 * xs), 4.0)
    assert we.check_well_property()
    # phi lies below the envelope where it is not touched, so measured from
    # phi the wells are too shallow
    assert not dataclasses.replace(we, env=we.phi).check_well_property()
    # lowering a well bottom leaves its neighbors above the well
    env = we.env.copy()
    env[np.argmin(env)] -= 1e-3
    assert not dataclasses.replace(we, env=env).check_well_property()


def _dense_reference(xs, phi, K):
    """The dense envelope sweep with ** 4 on the signed offsets, as first
    written; the reference for the sweep on absolute offsets.  Returns env,
    the arg-min centers and the count of wells, every (center, sample)."""
    dx = xs[1] - xs[0]
    slope_max = float(np.max(np.abs(np.diff(phi)))) / dx
    pad = 1.5 * (slope_max / (4.0 * K)) ** (1.0 / 3.0) + 2.0 * dx
    n_pad = int(np.ceil(pad / dx))
    left = xs[0] - dx * np.arange(n_pad, 0, -1)
    right = xs[-1] + dx * np.arange(1, n_pad + 1)
    y0 = np.concatenate([left, xs, right])
    c = np.max(phi[None, :] - K * (xs[None, :] - y0[:, None]) ** 4, axis=1)
    wells = K * (xs[None, :] - y0[:, None]) ** 4 + c[:, None]
    best = np.argmin(wells, axis=0)
    env = wells[best, np.arange(len(xs))]
    return env, y0[best], wells.size


def _envelope_inputs():
    rng = np.random.default_rng(1)
    x3, x2 = np.linspace(-3, 3, 401), np.linspace(-2, 2, 257)
    x512 = np.linspace(-2, 2, 512)
    return {
        "zero": (np.linspace(-3, 3, 301), np.zeros(301), 1.0),
        "abs": (x3, -np.abs(x3), 1.0),
        "mollifier": (x3, -_bump(x3 / 2.0), 0.01),
        "noisy-sine": (x2, 0.3 * np.sin(3 * x2)
                       + rng.uniform(-0.05, 0.05, len(x2)), 4.0),
        "square": (x2, x2 ** 2, 1.0),
        "sine": (x2, 0.3 * np.sin(3 * x2), 4.0),
        "sine-512": (x512, 0.3 * np.sin(3 * x512), 4.0),
    }


@pytest.mark.parametrize("case", list(_envelope_inputs()))
def test_envelope_matches_dense_reference(monkeypatch, case):
    xs, phi, K = _envelope_inputs()[case]
    we = quartic_envelope(xs, phi, K)
    monkeypatch.setattr(harness, "_quartic_env_values", _dense_reference)
    ref = quartic_envelope(xs, phi, K)
    scale = max(1.0, float(np.max(np.abs(phi))))
    assert np.max(np.abs(we.env - ref.env)) <= 1e-15 * scale
    assert we.min_feasible_K == ref.min_feasible_K
    # a center may differ only where two wells tie to rounding: the
    # reference's well about the new center must attain its minimum
    for k in np.flatnonzero(we.centers != ref.centers):
        y0 = we.centers[k]
        well = K * (xs[k] - y0) ** 4 + np.max(phi - K * (xs - y0) ** 4)
        assert abs(well - ref.env[k]) <= 1e-15 * scale


def _dense_abs_sweep(xs, phi, K):
    """One dense sweep with the band's arithmetic (** 4 on absolute offsets)
    and the first arg-min center: the band must match it bit for bit."""
    y0 = harness._env_blocks(xs, phi, K)[0]
    wells = K * np.abs(xs[None, :] - y0[:, None]) ** 4
    wells += np.max(phi[None, :] - wells, axis=1)[:, None]
    best = np.argmin(wells, axis=0)
    return wells[best, np.arange(len(xs))], y0[best]


def _band_phi(kind, xs):
    rng = np.random.default_rng(len(xs))
    return {"sine": 0.3 * np.sin(3 * xs),
            "noise": rng.uniform(-0.05, 0.05, len(xs)),
            "kink-cubic": -np.abs(xs) + 0.1 * xs ** 3,
            "walk": np.cumsum(rng.normal(0.0, 0.05, len(xs))),
            # wells that tie with the own center to rounding
            "plateau": np.full(len(xs), 1e12)}[kind]


_BAND_N = (17, 257, 700)
_BAND_K = (1e-2, 1.0, 4.0, 1e3, 1e6, 1e8)
_BAND_PHI = ("sine", "noise", "kink-cubic", "walk", "plateau")


@pytest.mark.parametrize("n", _BAND_N)
@pytest.mark.parametrize("K", _BAND_K)
@pytest.mark.parametrize("kind", _BAND_PHI)
def test_envelope_band_matches_dense_reference(kind, K, n):
    xs = np.linspace(-2, 2, n)
    phi = _band_phi(kind, xs)
    env, centers, wells = harness._quartic_env_values(xs, phi, K)
    ref_env, ref_centers = _dense_abs_sweep(xs, phi, K)
    assert env.tobytes() == ref_env.tobytes()
    assert centers.tobytes() == ref_centers.tobytes()
    # against the signed-offset reference, as the blocked sweep is checked
    ref_env, ref_centers, dense = _dense_reference(xs, phi, K)
    assert wells <= dense
    scale = max(1.0, float(np.max(np.abs(phi))))
    assert np.max(np.abs(env - ref_env)) <= 1e-15 * scale
    for k in np.flatnonzero(centers != ref_centers):
        y0 = centers[k]
        well = K * (xs[k] - y0) ** 4 + np.max(phi - K * (xs - y0) ** 4)
        assert abs(well - ref_env[k]) <= 1e-15 * scale


def test_envelope_band_cases_include_pads_wider_than_the_band():
    # the rule for pad centers matters where n_pad exceeds the band
    wide = []
    for n in _BAND_N:
        xs = np.linspace(-2, 2, n)
        for K in _BAND_K:
            for kind in _BAND_PHI:
                phi = _band_phi(kind, xs)
                n_pad = (len(harness._env_blocks(xs, phi, K)[0]) - n) // 2
                band = np.ceil((np.ptp(phi) / K) ** 0.25 / (xs[1] - xs[0])) + 2
                if n_pad > band and band < n:
                    wide.append((kind, K, n))
    assert wide


def test_envelope_counts_its_wells():
    xs = np.linspace(-2, 2, 512)
    phi = 0.3 * np.sin(3 * xs)
    we = quartic_envelope(xs, phi, 4.0)
    # the widest pad is the first sweep's, at the least K
    dense = len(harness._env_blocks(xs, phi, 4.0)[0]) * len(xs)
    assert we.sweeps > 1
    assert we.wells < 0.25 * we.sweeps * dense
    # a feasible input whose band covers the grid: one dense sweep
    xs = np.linspace(-3, 3, 401)
    phi = -np.abs(xs)
    we = quartic_envelope(xs, phi, 1e-3)
    assert we.feasible and we.sweeps == 1
    assert we.wells == len(harness._env_blocks(xs, phi, 1e-3)[0]) * len(xs)


def test_envelope_reports_no_feasible_K_below_the_cap(monkeypatch):
    # this input's least feasible K is about 1.88e6
    xs = np.linspace(-2, 2, 512)
    monkeypatch.setattr(harness, "K_CAP", 1e6)
    with pytest.raises(DataError, match="no feasible K below the bisection cap"):
        quartic_envelope(xs, 0.3 * np.sin(3 * xs), 4.0)


@pytest.mark.parametrize("xs, phi, K", [
    (np.linspace(-2, 2, 64), np.zeros(64), -1.0),
    (np.linspace(-2, 2, 64), np.zeros(64), 0.0),
    (np.linspace(-2, 2, 64), np.zeros(64), np.inf),
    (np.linspace(-2, 2, 64), np.zeros(64), np.nan),
    (np.linspace(2, -2, 64), np.zeros(64), 1.0),
    (np.linspace(-2, 2, 64) ** 3, np.zeros(64), 1.0),
    (np.linspace(-2, 2, 64), np.where(np.arange(64) == 5, np.nan, 0.0), 1.0),
    (np.linspace(-2, 2, 64), np.where(np.arange(64) == 5, np.inf, 0.0), 1.0),
], ids=["K<0", "K=0", "K=inf", "K=nan", "decreasing-xs", "uneven-xs",
        "nan-phi", "inf-phi"])
def test_envelope_rejects_bad_input_before_any_sweep(monkeypatch, xs, phi, K):
    def no_sweep(*args):
        raise AssertionError("swept before validating the input")
    monkeypatch.setattr(harness, "_quartic_env_values", no_sweep)
    with pytest.raises(DataError):
        quartic_envelope(xs, phi, K)


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.0, 0.5, 1.5])
def test_fit_exponent_two_particle(a):
    pot = power_law_force_potential(a)
    st = ParticleState(0.0, [-0.5, 0.5], [1, -1])  # gap 1, so tau = 1
    res = simulate(st, pot, 1.0, None, 1.1)
    fit = fit_collision_exponent(res)
    target = 1.0 / (2.0 + a)
    assert abs(fit.slope - target) <= 0.1 * target
    assert fit.ci_low <= fit.slope <= fit.ci_high


def test_fit_exponent_synthetic_series():
    tau = 1.0
    times = tau - np.geomspace(1e-6, 1e-1, 200)
    gaps = (tau - times) ** 0.4
    fit = fit_exponent_from_series(times, gaps, tau)
    assert fit.slope == pytest.approx(0.4, abs=1e-6)


def test_fit_exponent_insufficient_decades():
    tau = 1.0
    times = tau - np.linspace(0.01, 0.02, 50)
    gaps = (tau - times) ** 0.5
    with pytest.raises(DataError):
        fit_exponent_from_series(times, gaps, tau)


def test_fit_exponent_no_events():
    st = ParticleState(0.0, [-0.5, 0.5], [1, 1])
    res = simulate(st, log_potential(), 1.0, None, 0.05)
    with pytest.raises(DataError):
        fit_collision_exponent(res)


# ---------------------------------------------------------------------------
# convergence runner
# ---------------------------------------------------------------------------

def test_run_convergence_small_m2():
    cfg = ExperimentConfig.from_dict(_cfg_dict())
    report = run_convergence(cfg)
    assert report["passed"], report["notes"]
    ns = [r["n"] for r in report["rows"]]
    assert ns == [16, 32]
    csv = convergence_csv(report)
    assert csv.splitlines()[0] == "n,t,distance"
    assert report["compliance"]["passed"]
    assert len(report["config_hash"]) == 16


def test_run_convergence_zero_density():
    cfg_d = _cfg_dict()
    # equal-mass overlapping bumps of opposite sign: u0 identically 0
    cfg_d["initial"] = {"kind": "density", "components": [
        {"sign": 1, "mass": 0.5, "center": 0.0, "width": 1.0},
        {"sign": -1, "mass": 0.5, "center": 0.0, "width": 1.0}]}
    cfg_d["regime"] = {"m": 1, "alpha": 1.0}
    cfg_d["potential"] = {"kind": "log"}
    cfg_d["n_list"] = [16, 32]
    cfg = ExperimentConfig.from_dict(cfg_d)
    report = run_convergence(cfg)
    # everything annihilates at once: distances at the jump-size level
    assert report["events_total"] > 0
    assert all(r["distance"] <= 1.0 / r["n"] + 0.01 for r in report["rows"])


def test_run_convergence_fails_when_particles_leave_window():
    # C9's signed log config under a harmonic field: the field acts as
    # b_i g(x_i), so it pushes the negative charges outward, past the
    # window the limit grid compares on
    cfg = ExperimentConfig.from_dict({
        "potential": {"kind": "log"},
        "regime": {"m": 1, "alpha": 1.0},
        "initial": {"kind": "density", "components": [
            {"sign": 1, "mass": 0.6, "center": -0.9, "width": 1.0},
            {"sign": -1, "mass": 0.4, "center": 0.9, "width": 1.0}]},
        "field": {"kind": "harmonic", "k": 4.0},
        "n_list": [25, 50],
        "t_end": 0.2,
        "snapshot_times": [0.1, 0.2],
        "grid": {"half_width": 3.0, "nodes": 512, "rho": 0.5},
        "tolerances": {"conv_tol": 0.05, "slack": 1.1, "rk_tol": 1e-9,
                       "quad_tol": 1e-9},
    })
    report = run_convergence(cfg)
    assert not report["passed"]
    assert ("n=50, t=0.2: 3 charged particles outside the comparison window "
            "[-2.965, 2.965]") in report["notes"], report["notes"]


def test_report_reproducible():
    cfg = ExperimentConfig.from_dict(_cfg_dict())
    a = run_convergence(cfg)
    b = run_convergence(cfg)
    assert a["rows"] == b["rows"]
    assert convergence_csv(a) == convergence_csv(b)
