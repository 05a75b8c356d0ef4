"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and runtime budgets are asserted, not advisory.
"""

import math
import time

import numpy as np
import pytest

from signedflow import (ExperimentConfig, GridFunction, ParticleState,
                        ScalingRegime, TestFunction, audit_assumptions,
                        density_from_primitive, fit_collision_exponent,
                        l1_norm, log_potential, power_law_force_potential,
                        quartic_probe_sweep, rhs_convergence_table,
                        run_convergence, simulate, solve_local,
                        stability_experiment, staircase_identity,
                        wall_potential)

PI2_3 = math.pi ** 2 / 3.0


def _report(k, ok, detail):
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


# ---------------------------------------------------------------------------
# 1. two-particle collision oracles
# ---------------------------------------------------------------------------

def test_criterion_1_two_particle_oracles():
    details = []
    for a in (0.0, 0.5, 1.5):
        for d0 in (0.5, 1.0):
            pot = power_law_force_potential(a)
            st = ParticleState(0.0, [-d0 / 2, d0 / 2], [1, -1])
            tic = time.time()
            res = simulate(st, pot, 1.0, None, 1.1 * d0 ** (2 + a) + 0.01)
            el = time.time() - tic
            tau = res.events.events[0].tau
            exact = d0 ** (2 + a)
            rel = abs(tau - exact) / exact
            assert rel <= 1e-5, (a, d0, rel)
            assert el < 1.0, f"runtime {el:.2f}s"
            details.append(f"a={a} d0={d0} rel={rel:.1e}")

    st = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    tic = time.time()
    res = simulate(st, log_potential(), 1.0, None, 0.6,
                   t_eval=np.linspace(0.0, 0.4999, 40))
    el = time.time() - tic
    tau = res.events.events[0].tau
    assert abs(tau - 0.5) <= 1e-5
    sup = max(max(abs(s.x[0] + 0.5 * math.sqrt(1 - 2 * s.t)),
                  abs(s.x[1] - 0.5 * math.sqrt(1 - 2 * s.t)))
              for s in res.snapshots)
    assert sup <= 1e-4
    assert el < 1.0
    _report(1, True, f"6 power-law taus at <=1e-5 rel; log pair "
                     f"tau err {abs(tau - 0.5):.1e}, traj sup {sup:.1e}")


# ---------------------------------------------------------------------------
# 2. invariant suite on 50 randomized configurations
# ---------------------------------------------------------------------------

def test_criterion_2_invariant_suite():
    tic = time.time()
    t_end = 0.1
    events_seen = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(8, 65))
        x = np.sort(rng.uniform(-1, 1, n)) + np.arange(n) * 1e-9
        b = rng.choice([-1, 1], n)
        pot = log_potential() if seed % 2 == 0 else wall_potential()
        alpha = 1.0 if seed % 2 == 0 else float(np.sqrt(n))
        res = simulate(ParticleState(0.0, x, b), pot, alpha, None, t_end)
        d = res.diagnostics.arrays()
        with np.errstate(invalid="ignore"):
            for key in ("d_plus", "d_minus"):
                v = d[key]
                fin = np.isfinite(v[:-1]) & np.isfinite(v[1:])
                assert np.all(np.diff(v)[fin] >= -1e-8), (seed, key)
        assert np.max(np.abs(d["m1"] - d["m1"][0])) <= 1e-8 * t_end, seed
        assert res.state.net_charge == int(np.sum(b)), seed
        for ev in res.events:
            s = list(ev.b_before)
            assert abs(sum(s)) <= 1, seed
            assert all(s[k] * s[k + 1] == -1 for k in range(len(s) - 1)), seed
            events_seen += 1
    el = time.time() - tic
    assert el < 120.0, f"runtime {el:.1f}s"
    _report(2, True, f"50 runs, {events_seen} events, {el:.0f}s")


# ---------------------------------------------------------------------------
# 3. collision exponents
# ---------------------------------------------------------------------------

def test_criterion_3_collision_exponents():
    details = []
    for a in (0.0, 0.5, 1.5):
        pot = power_law_force_potential(a)
        target = 1.0 / (2.0 + a)
        # two particles
        st = ParticleState(0.0, [-0.5, 0.5], [1, -1])
        res = simulate(st, pot, 1.0, None, 1.1)
        fit2 = fit_collision_exponent(res)
        assert abs(fit2.slope - target) <= 0.1 * target, (a, fit2.slope)
        # three particles, alternating
        st = ParticleState(0.0, [-0.5, 0.0, 0.5], [1, -1, 1])
        res = simulate(st, pot, 1.0, None, 2.0)
        fit3 = fit_collision_exponent(res)
        assert abs(fit3.slope - target) <= 0.1 * target, (a, fit3.slope)
        details.append(f"a={a}: {fit2.slope:.3f}/{fit3.slope:.3f} vs {target:.3f}")
    _report(3, True, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. stability
# ---------------------------------------------------------------------------

def test_criterion_4_stability():
    sigmas = [1e-3, 1e-4]
    # two-particle oracle: linear-in-sigma both before and after the event
    st2 = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    rep2 = stability_experiment(st2, sigmas, log_potential(), 1.0, None, 1.0,
                                seed=0)
    for s, dp, dq in zip(rep2.sigmas, rep2.sup_distance_pre,
                         rep2.sup_distance_post):
        assert dp <= 10.0 * s, (s, dp)
        assert dq <= 10.0 * s, (s, dq)
    assert rep2.charges_match[1]

    # three-particle collision: linear bound before the collision window;
    # the perturbed cluster may split, so afterwards the deviation is only
    # required to shrink with sigma while the charge outcome agrees
    st3 = ParticleState(0.0, [-0.6, 0.0, 0.6], [1, -1, 1])
    rep3 = stability_experiment(st3, sigmas, log_potential(), 1.0, None, 2.0,
                                seed=3, exclusion_halfwidth=0.15)
    for s, dp in zip(rep3.sigmas, rep3.sup_distance_pre):
        assert dp <= 10.0 * s, (s, dp)
    assert rep3.charges_match[1]
    assert rep3.sup_distance_post[1] <= rep3.sup_distance_post[0]
    _report(4, True,
            f"2p pre/post {rep2.sup_distance_pre[1]:.1e}/"
            f"{rep2.sup_distance_post[1]:.1e} at sigma=1e-4; "
            f"3p pre {rep3.sup_distance_pre[1]:.1e}, charges match")


# ---------------------------------------------------------------------------
# 5. wall potential
# ---------------------------------------------------------------------------

def test_criterion_5_wall_potential():
    pot = wall_potential()

    def fd4(f, x, h):
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

    for k in (1, 2, 3):
        for x in np.geomspace(1e-3, 1e2, 41):
            h = min(5e-3, 1e-3 * x)
            fd = fd4(lambda y: pot.deriv(y, k - 1), x, h)
            val = pot.deriv(x, k)
            assert abs(fd - val) <= 1e-6 * abs(val), (k, x)

    # quadrature against the exponential-series oracle sum_k 1/k^2 = pi^2/6
    # per piece, i.e. ||V||_L1 = pi^2/3
    val = l1_norm(pot, 1e-9)
    ks = np.arange(1, 2_000_001, dtype=float)
    series = 2.0 * (2.0 * float(np.sum(0.5 / ks ** 2)) + 2.0 * 0.5 / ks[-1])
    assert abs(val - PI2_3) <= 1e-6
    assert abs(val - series) <= 2e-6

    rep = audit_assumptions(pot, "hj3")
    assert rep.passed, rep.to_json()
    _report(5, True, f"derivs FD-matched, ||V||_L1 err {abs(val - PI2_3):.1e}, "
                     f"hj3 audit {sum(1 for i in rep.items)} items pass")


# ---------------------------------------------------------------------------
# 6. convergence of the quantized operator to its limit
# ---------------------------------------------------------------------------

def test_criterion_6_rhs_convergence():
    tic = time.time()
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
    cases = [
        (1, log_potential(), ScalingRegime(m=1, alpha=1.0)),
        (2, wall_potential(), ScalingRegime(m=2)),
        (3, wall_potential(), ScalingRegime(m=3, beta=1.0)),
    ]
    probes = [("sin", TestFunction.sin(), (0.3, 0.7, 1.1)),
              ("cubic", TestFunction.cubic(), (-0.7, 0.2, 0.9))]
    checked = 0
    for m, pot, reg in cases:
        for name, phi, points in probes:
            for x in points:
                rows, limit = rhs_convergence_table(phi, x, m, pot, reg,
                                                    eps_list)
                errs = [r[2] for r in rows]
                # decreasing until the double-precision floor: once an error
                # sits below 1e-6 relative (the steep rescaled kernel
                # amplifies radius roundoff to ~1e-7 absolute), further
                # decrease is not resolvable in doubles
                floor = 1e-6 * abs(limit)
                assert all(b < a or b <= floor
                           for a, b in zip(errs[:-1], errs[1:])), \
                    (m, name, x, errs)
                assert errs[-1] <= 0.05 * abs(limit), (m, name, x, errs[-1], limit)
                checked += 1
    el = time.time() - tic
    assert el < 60.0, f"runtime {el:.1f}s"
    _report(6, True, f"{checked} (m, probe, point) tables decreasing, "
                     f"finest <= 5%; {el:.0f}s")


# ---------------------------------------------------------------------------
# 7. degenerate-gradient probe bound
# ---------------------------------------------------------------------------

def test_criterion_7_parabola_bound():
    quad_tol = 1e-9
    eps_grid = [1.0, 1e-1, 1e-2, 1e-3, 1e-4]
    half = np.geomspace(1e-3, 2.0, 12)
    gammas = np.concatenate([-half[::-1], half])
    cases = [(log_potential(), ScalingRegime(m=1, alpha=1.0), "log m1"),
             (wall_potential(), ScalingRegime(m=2), "wall m2"),
             (wall_potential(), ScalingRegime(m=3, beta=1.0), "wall m3")]
    details = []
    for pot, reg, tag in cases:
        rows, per_max = quartic_probe_sweep(pot, reg, 2.0, 2.0, eps_grid,
                                            gammas, quad_tol)
        assert min(r[2] for r in rows) >= -quad_tol, tag
        finest = sorted(per_max)[:2]
        lo, hi = per_max[finest[0]], per_max[finest[1]]
        assert abs(hi - lo) <= 0.2 * max(hi, lo), (tag, lo, hi)
        details.append(f"{tag} max={hi:.1f}")
    _report(7, True, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. limit-equation solvers
# ---------------------------------------------------------------------------

def test_criterion_8_pde_solvers():
    tic = time.time()
    wall = wall_potential()
    # constants preserved exactly
    uc = GridFunction(-1.0, 0.01, np.full(201, 0.7), 0.7, 0.7)
    out, info = solve_local(uc, 2, wall, 1.0, None, 0.05)
    assert np.array_equal(out.values, uc.values)
    assert info.max_principle_violation == 0.0

    # self-similar single-sign density on a 2048-node grid
    nv = l1_norm(wall, 1e-10)
    D = nv / 2.0
    mass, t0 = 1.0, 1.0
    c = (3.0 * mass / (4.0 * math.sqrt(12.0))) ** (2.0 / 3.0)
    xi0 = math.sqrt(12.0 * c)

    def prof(t, x):
        s = (D * t) ** (1.0 / 3.0)
        return np.maximum(c - (x / s) ** 2 / 12.0, 0.0) / s

    def prim(t, x):
        s = (D * t) ** (1.0 / 3.0)
        xi = np.clip(x / s, -xi0, xi0)
        return c * (xi + xi0) - (xi ** 3 + xi0 ** 3) / 36.0

    L, N = 3.2, 2048
    xs = np.linspace(-L, L, N)
    dx = xs[1] - xs[0]
    u0 = GridFunction(-L, dx, prim(t0, xs), 0.0, mass)
    uT, info = solve_local(u0, 2, wall, 1.0, None, 0.5)
    assert info.max_principle_violation == 0.0
    kap = density_from_primitive(uT)
    exact = prof(t0 + 0.5, xs)
    l1e = float(np.sum(np.abs(kap.values - exact)) / np.sum(np.abs(exact)))
    el = time.time() - tic
    assert l1e <= 0.02, l1e
    assert el < 30.0, f"runtime {el:.1f}s"
    _report(8, True, f"constants exact, max principle clean, self-similar "
                     f"L1 err {l1e:.2e} on 2048 nodes in {info.summary()}; "
                     f"{el:.2f}s")


# ---------------------------------------------------------------------------
# 9. discrete-to-continuum convergence
# ---------------------------------------------------------------------------

def test_criterion_9_discrete_to_continuum():
    tic = time.time()
    base = {
        "n_list": [25, 50, 100, 200],
        "t_end": 0.2,
        "snapshot_times": [0.1, 0.2],
        "tolerances": {"conv_tol": 0.05, "slack": 1.1, "rk_tol": 1e-9,
                       "quad_tol": 1e-9},
    }
    cfg_i = ExperimentConfig.from_dict({
        **base,
        "potential": {"kind": "wall"},
        "regime": {"m": 2},
        "initial": {"kind": "density", "components": [
            {"sign": 1, "mass": 1.0, "center": 0.0, "width": 1.0}]},
        "grid": {"half_width": 2.5, "nodes": 512, "rho": 0.5},
    })
    rep_i = run_convergence(cfg_i)
    assert rep_i["passed"], rep_i["notes"]

    cfg_ii = ExperimentConfig.from_dict({
        **base,
        "potential": {"kind": "log"},
        "regime": {"m": 1, "alpha": 1.0},
        "initial": {"kind": "density", "components": [
            {"sign": 1, "mass": 0.6, "center": -0.9, "width": 1.0},
            {"sign": -1, "mass": 0.4, "center": 0.9, "width": 1.0}]},
        "grid": {"half_width": 3.0, "nodes": 512, "rho": 0.5},
    })
    rep_ii = run_convergence(cfg_ii)
    assert rep_ii["passed"], rep_ii["notes"]
    assert rep_ii["events_total"] >= 1  # annihilation happened

    el = time.time() - tic
    assert el < 600.0, f"runtime {el:.1f}s"
    final_i = rep_i["rows"][-1]["distance"]
    final_ii = rep_ii["rows"][-1]["distance"]
    _report(9, True, f"single-sign m2 final {final_i:.3f}, signed m1 final "
                     f"{final_ii:.3f} ({rep_ii['events_total']} events); "
                     f"{el:.0f}s")


# ---------------------------------------------------------------------------
# 10. step-identity properties
# ---------------------------------------------------------------------------

def test_criterion_10_step_identity():
    tic = time.time()
    rng = np.random.default_rng(0)
    for eps in (1.0, 0.125, 2.0 ** -7):
        g = rng.uniform(-40.0, 40.0, 100_000)
        on_grid = np.round(g / eps) * eps == g
        g_off = g[~on_grid]
        up = staircase_identity(g_off, eps, "upper")
        lo = staircase_identity(g_off, eps, "lower")
        tol = 1e-12 * (np.abs(g_off) + eps)
        # oddness off the grid
        assert np.allclose(staircase_identity(-g_off, eps, "upper"), -up,
                           atol=1e-12)
        # sawtooth bound
        assert np.all(up - g_off > -eps / 2 - tol)
        assert np.all(up - g_off <= eps / 2 + tol)
        assert np.all(np.abs(up) <= np.abs(g_off) + eps / 2 + tol)
        # envelopes agree off the grid, differ exactly on it
        assert np.array_equal(up, lo)
        ks = rng.integers(-300, 300, 1000)
        grid_pts = ks * eps
        du = staircase_identity(grid_pts, eps, "upper")
        dl = staircase_identity(grid_pts, eps, "lower")
        assert np.allclose(du - dl, eps)
    el = time.time() - tic
    assert el < 1.0, f"runtime {el:.2f}s"
    _report(10, True, f"3 x 100k samples, oddness/sawtooth/envelope checks; "
                      f"{el:.2f}s")
