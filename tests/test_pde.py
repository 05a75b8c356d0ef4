"""Limit-equation solvers: constants, Barenblatt, comparison, symmetry."""

import math

import numpy as np
import pytest

import signedflow.pde
from signedflow import (ConvergenceError, DataError, GridFunction,
                        ParticleState, cumulative_charge,
                        density_from_primitive, l1_norm, log_potential,
                        simulate, solve_local, solve_nonlocal, sup_distance,
                        wall_potential)
from signedflow.potentials import make_field

WALL = wall_potential()
LOGP = log_potential()


# ---------------------------------------------------------------------------
# closed-form self-similar density (single sign, intermediate scaling)
# ---------------------------------------------------------------------------

def barenblatt(t, x, mass, diff_coeff):
    """Self-similar solution of k_t = D (k^2)_xx with the given mass."""
    c = (3.0 * mass / (4.0 * math.sqrt(12.0))) ** (2.0 / 3.0)
    s = (diff_coeff * t) ** (1.0 / 3.0)
    xi = np.asarray(x, dtype=float) / s
    return np.maximum(c - xi ** 2 / 12.0, 0.0) / s


def barenblatt_primitive(t, x, mass, diff_coeff):
    c = (3.0 * mass / (4.0 * math.sqrt(12.0))) ** (2.0 / 3.0)
    xi0 = math.sqrt(12.0 * c)
    s = (diff_coeff * t) ** (1.0 / 3.0)
    xi = np.clip(np.asarray(x, dtype=float) / s, -xi0, xi0)
    return c * (xi + xi0) - (xi ** 3 + xi0 ** 3) / 36.0


@pytest.fixture(scope="module")
def wall_l1():
    return l1_norm(WALL, 1e-10)


# ---------------------------------------------------------------------------
# constants and trivial solutions
# ---------------------------------------------------------------------------

def test_constants_preserved_local():
    u0 = GridFunction(-1.0, 0.01, np.full(201, 0.7), 0.7, 0.7)
    out, info = solve_local(u0, 2, WALL, 1.0, None, 0.05)
    assert np.array_equal(out.values, u0.values)
    assert info.max_principle_violation == 0.0


def test_constants_preserved_nonlocal():
    u0 = GridFunction(-1.0, 0.01, np.full(201, -0.3), -0.3, -0.3)
    out, _ = solve_nonlocal(u0, LOGP, 1.0, None, 0.05)
    assert np.array_equal(out.values, u0.values)


def test_constant_with_transport_field():
    # U' = 1 everywhere, but |u_x| = 0 kills the transport
    fld = make_field({"kind": "tilt", "c": 1.0})
    u0 = GridFunction(-1.0, 0.01, np.full(201, 0.4), 0.4, 0.4)
    out, _ = solve_local(u0, 2, WALL, 1.0, fld, 0.05)
    assert np.array_equal(out.values, u0.values)


# ---------------------------------------------------------------------------
# Barenblatt oracle (smaller grid here; the 2048-node run is acceptance)
# ---------------------------------------------------------------------------

def test_barenblatt_m2(wall_l1):
    D = wall_l1 / 2.0
    L, N, t0 = 3.2, 512, 1.0
    xs = np.linspace(-L, L, N)
    dx = xs[1] - xs[0]
    u0 = GridFunction(-L, dx, barenblatt_primitive(t0, xs, 1.0, D), 0.0, 1.0)
    out, info = solve_local(u0, 2, WALL, 1.0, None, 0.5)
    kap = density_from_primitive(out)
    exact = barenblatt(t0 + 0.5, xs, 1.0, D)
    l1e = np.sum(np.abs(kap.values - exact)) / np.sum(np.abs(exact))
    assert l1e < 0.02
    assert info.max_principle_violation == 0.0


def test_density_from_primitive_cases(wall_l1):
    # constant
    u = GridFunction(0.0, 0.1, np.full(11, 2.0), 2.0, 2.0)
    assert np.allclose(density_from_primitive(u).values, 0.0)
    # ramp of slope 3 on [0, 1]
    xs = np.linspace(-1, 2, 301)
    vals = np.clip(xs, 0.0, 1.0) * 3.0
    u = GridFunction(-1.0, xs[1] - xs[0], vals, 0.0, 3.0)
    k = density_from_primitive(u)
    inner = (xs > 0.05) & (xs < 0.95)
    assert np.allclose(k.values[inner], 3.0)
    # integral identity: trapezoid of the density recovers the rise
    assert np.trapezoid(k.values, xs) == pytest.approx(3.0, abs=(xs[1] - xs[0]) ** 2 * 100)
    # Barenblatt primitive differentiates back to the profile in L1
    D = wall_l1 / 2.0
    xs = np.linspace(-3, 3, 1001)
    u = GridFunction(-3.0, xs[1] - xs[0],
                     barenblatt_primitive(1.0, xs, 1.0, D), 0.0, 1.0)
    k = density_from_primitive(u)
    exact = barenblatt(1.0, xs, 1.0, D)
    assert np.sum(np.abs(k.values - exact)) * (xs[1] - xs[0]) <= 2 * (xs[1] - xs[0])


# ---------------------------------------------------------------------------
# scheme structure
# ---------------------------------------------------------------------------

def test_max_principle_both_solvers(wall_l1):
    rng = np.random.default_rng(0)
    xs = np.linspace(-2, 2, 257)
    dx = xs[1] - xs[0]
    vals = np.cumsum(rng.uniform(-1, 1, 257)) * dx
    vals -= vals[0]
    vals *= 0.5 / max(1e-9, np.max(np.abs(vals)))
    vals[-1] = vals[-2]
    u0 = GridFunction(-2.0, dx, vals, vals[0], vals[-1])
    _, info_a = solve_local(u0, 2, WALL, 1.0, None, 0.05)
    assert info_a.max_principle_violation <= 1e-12
    _, info_b = solve_nonlocal(u0, LOGP, 1.0, None, 0.02)
    assert info_b.max_principle_violation <= 1e-12


def test_discrete_comparison_principle():
    # ordered data stay ordered under the shared-step monotone scheme
    rng = np.random.default_rng(42)
    xs = np.linspace(-2, 2, 129)
    dx = xs[1] - xs[0]
    for trial in range(5):
        base = np.tanh(xs) * 0.4
        bump = rng.uniform(0.0, 0.2) * np.exp(-xs ** 2 / rng.uniform(0.3, 1.0))
        lo_v = base - bump
        hi_v = base + bump
        lo_v[0] = lo_v[1]; lo_v[-1] = lo_v[-2]
        hi_v[0] = hi_v[1]; hi_v[-1] = hi_v[-2]
        u_lo = GridFunction(-2.0, dx, lo_v, lo_v[0], lo_v[-1])
        u_hi = GridFunction(-2.0, dx, hi_v, hi_v[0], hi_v[-1])
        a, _ = solve_local(u_lo, 2, WALL, 1.0, None, 0.02)
        b, _ = solve_local(u_hi, 2, WALL, 1.0, None, 0.02)
        assert np.all(a.values <= b.values + 1e-10)


def test_local_monotone_at_large_steps(wall_l1, monkeypatch):
    # one implicit step 60x the explicit bound dx^2 / (2 max f) keeps the
    # maximum principle exactly and keeps ordered data ordered; a step takes
    # 5x the move bound
    monkeypatch.setattr(signedflow.pde, "CFL_SAFETY", 5.0)
    rng = np.random.default_rng(7)
    xs = np.linspace(-2, 2, 129)
    dx = xs[1] - xs[0]
    for trial in range(3):
        base = np.tanh(xs) * 0.4
        bump = rng.uniform(0.05, 0.2) * np.exp(-xs ** 2 / rng.uniform(0.3, 1.0))
        pair = [base - bump, base + bump]
        for v in pair:
            v[0] = v[1]; v[-1] = v[-2]
        explicit = min(dx ** 2 / (2 * wall_l1 * np.max(np.abs(np.diff(v)) / dx))
                       for v in pair)
        t_end = 60.0 * explicit
        outs = []
        for v in pair:
            u0 = GridFunction(-2.0, dx, v, v[0], v[-1])
            out, info = solve_local(u0, 2, WALL, 1.0, None, t_end)
            assert info.steps == 1 and info.dt_min == t_end
            assert info.max_principle_violation == 0.0
            outs.append(out.values)
        assert np.all(outs[0] <= outs[1])


def _old_ball_bound(v, dx, rho=0.5):
    """The explicit ball-term bound dx^2 / (i2 max|u_x|) of the log kernel."""
    from signedflow.hamiltonians import kernel_second_moment
    i2 = kernel_second_moment(LOGP, 1.0, max(2, round(rho / dx)) * dx)
    return dx ** 2 / (i2 * float(np.max(np.abs(np.diff(v)))) / dx)


def test_nonlocal_monotone_at_large_steps(monkeypatch):
    # one step 50x the explicit ball-term bound, inside the transport CFL
    # bound (CFL_SAFETY = 1): the implicit ball term keeps the maximum
    # principle exactly on signed data and keeps ordered data ordered
    monkeypatch.setattr(signedflow.pde, "CFL_SAFETY", 1.0)
    rng = np.random.default_rng(7)
    xs = np.linspace(-2, 2, 513)
    dx = xs[1] - xs[0]
    signed = 0.4 * np.exp(-xs ** 2 / 0.1)
    cases = [[signed]]
    for trial in range(2):
        base = np.tanh(2 * xs) * 0.4
        bump = rng.uniform(0.05, 0.2) * np.exp(-xs ** 2 / rng.uniform(0.3, 1.0))
        cases.append([base - bump, base + bump])
    for vals in cases:
        for v in vals:
            v[0] = v[1]; v[-1] = v[-2]
        t_end = 50.0 * min(_old_ball_bound(v, dx) for v in vals)
        outs = []
        for v in vals:
            u0 = GridFunction(-2.0, dx, v, v[0], v[-1])
            out, info = solve_nonlocal(u0, LOGP, 1.0, None, t_end)
            assert info.steps == 1 and info.dt_min == t_end
            assert info.max_principle_violation == 0.0
            outs.append(out.values)
        if len(outs) == 2:
            assert np.all(outs[0] <= outs[1])


def test_nonlocal_semicircle_spreads():
    # the unit-mass semicircle spreads as R(t)^2 = R0^2 + 4t under the log
    # kernel at alpha = 1, in a few dozen steps
    def primitive(r, x):
        xc = np.clip(x, -r, r)
        return 0.5 + (xc * np.sqrt(r * r - xc * xc)
                      + r * r * np.arcsin(xc / r)) / (math.pi * r * r)
    xs = np.linspace(-3.0, 3.0, 512)
    u0 = GridFunction(-3.0, xs[1] - xs[0], primitive(1.0, xs), 0.0, 1.0)
    out, info = solve_nonlocal(u0, LOGP, 1.0, None, 0.2, rho=0.5)
    err = float(np.max(np.abs(out.values - primitive(math.sqrt(1.0 + 0.8), xs))))
    assert err <= 0.015
    assert info.steps <= 100
    assert info.max_principle_violation == 0.0


def test_nonlocal_velocity_guard_raises(monkeypatch):
    from signedflow import pde
    monkeypatch.setattr(pde, "VELOCITY_GUARD", 1e-3)
    xs = np.linspace(-2, 2, 129)
    vals = 0.5 * (1 + np.tanh(2 * xs))
    vals[0] = vals[1]; vals[-1] = vals[-2]
    u0 = GridFunction(-2.0, xs[1] - xs[0], vals, vals[0], vals[-1])
    with pytest.raises(ConvergenceError, match="refine dx"):
        solve_nonlocal(u0, LOGP, 1.0, None, 0.02)


def test_nonlocal_refuses_a_divergent_kernel_before_stepping(monkeypatch):
    # z^2 V'' = 3.75 z^-1.5 is not integrable at 0: the ball term has no
    # finite mobility, and the solve stops before its time loop
    from signedflow import pde, riesz_potential

    def no_march(*args, **kwargs):
        raise AssertionError("the time loop was entered")

    monkeypatch.setattr(pde, "_march", no_march)
    xs = np.linspace(-2, 2, 129)
    vals = 0.5 * (1 + np.tanh(2 * xs))
    u0 = GridFunction(-2.0, xs[1] - xs[0], vals, vals[0], vals[-1])
    with pytest.raises(ConvergenceError, match="second kernel moment diverges"):
        solve_nonlocal(u0, riesz_potential(1.5), 1.0, None, 0.02)


def test_grid_refinement_first_order(wall_l1):
    D = wall_l1 / 2.0
    L, t0 = 3.2, 1.0

    def run(n):
        xs = np.linspace(-L, L, n)
        dx = xs[1] - xs[0]
        u0 = GridFunction(-L, dx, barenblatt_primitive(t0, xs, 1.0, D), 0.0, 1.0)
        out, _ = solve_local(u0, 2, WALL, 1.0, None, 0.25)
        return xs, out.values

    xa, ua = run(256)
    xb, ub = run(512)
    xc, uc = run(1024)
    ref = np.interp(xa, xc, uc)
    ea = float(np.max(np.abs(ua - ref)))
    eb = float(np.max(np.abs(np.interp(xa, xb, ub) - ref)))
    assert ea / eb >= 1.5


def test_flux_form_mass_conservation(wall_l1):
    # over the single-sign region the density mass changes only through the
    # endpoint fluxes, which vanish where the density vanishes
    D = wall_l1 / 2.0
    xs = np.linspace(-3.2, 3.2, 513)
    dx = xs[1] - xs[0]
    u0 = GridFunction(-3.2, dx, barenblatt_primitive(1.0, xs, 1.0, D), 0.0, 1.0)
    out, _ = solve_local(u0, 2, WALL, 1.0, None, 0.3)
    # total density mass = far_right - far_left exactly (telescoping fluxes)
    assert out.values[-1] - out.values[0] == pytest.approx(1.0, abs=1e-12)
    assert float(np.min(np.diff(out.values))) >= -1e-12  # stays single-sign
    assert out.check_farfield()


def test_one_step_flux_identity(wall_l1):
    # exact discrete identity of the implicit step: the staggered-density mass
    # over an interior window changes only by the endpoint fluxes G(u_x) at the
    # end-of-step slopes, with G the solver's own mobility antiderivative
    from signedflow.pde import _abs_mobility
    D = wall_l1 / 2.0
    xs = np.linspace(-3.2, 3.2, 257)
    dx = xs[1] - xs[0]
    v0 = barenblatt_primitive(1.0, xs, 1.0, D)
    u0 = GridFunction(-3.2, dx, v0, 0.0, 1.0)
    d0 = np.diff(v0) / dx
    mobility = _abs_mobility(l1_norm(WALL, 1e-8))
    fmax = float(np.max(mobility(d0)[0]))
    dt = 0.9 * 0.45 * dx ** 2 / (2 * fmax)  # far below one step's move bound
    out, info = solve_local(u0, 2, WALL, 1.0, None, dt)
    assert info.steps == 1
    d1 = np.diff(out.values) / dx
    g1 = mobility(d1)[1]
    a, b = 40, 200
    mass_change = float(np.sum(d1[a:b] - d0[a:b])) * dx
    flux_change = info.dt_min / dx * ((g1[b] - g1[b - 1]) - (g1[a] - g1[a - 1]))
    assert mass_change == pytest.approx(flux_change, abs=1e-14)


@pytest.mark.parametrize("m", [2, 3])
def test_mobility_antiderivative_matches_f(m):
    # Newton's Jacobian takes f as the derivative of G: they must agree
    # between the table nodes and beyond the table, not only at the nodes.
    # At m = 2 the solver's mobility is the closed form c|p|.
    from signedflow import MobilityTable, ScalingRegime
    from signedflow.pde import _abs_mobility
    if m == 3:
        mobility = MobilityTable.build(WALL, ScalingRegime(m=3, beta=1.0), 3.0,
                                       num=65)
        ps = mobility.ps
    else:
        mobility = _abs_mobility(l1_norm(WALL, 1e-8))
        ps = np.linspace(-3.0, 3.0, 65)
    h = np.diff(ps)
    p = np.concatenate([ps[:-1] + 0.3 * h, [-4.5, 4.5]])
    e = 1e-4 * h[0]
    slope = (mobility(p + e)[1] - mobility(p - e)[1]) / (2 * e)
    assert slope == pytest.approx(mobility(p)[0], rel=1e-8)


def test_solve_info_counts_step_limits():
    # every step is charged to exactly one bound and Newton runs once per
    # step at least, in both solvers
    fld = make_field({"kind": "tilt", "c": 40.0})
    xs = np.linspace(-2, 2, 129)
    vals = 0.5 * (1 + np.tanh(2 * xs))
    vals[0] = vals[1]; vals[-1] = vals[-2]
    u0 = GridFunction(-2.0, xs[1] - xs[0], vals, vals[0], vals[-1])
    for field, bound in ((None, "move"), (fld, "advection")):
        _, info = solve_local(u0, 2, WALL, 1.0, field, 0.02, t_eval=[0.0101])
        assert sum(info.limited_by.values()) == info.steps
        assert info.limited_by[bound] == info.steps - 2
        assert info.limited_by["snapshot"] == info.limited_by["t_end"] == 1
        assert info.newton_iters >= info.steps
    _, info = solve_nonlocal(u0, LOGP, 1.0, None, 0.02)
    assert "diffusion" not in info.limited_by
    assert sum(info.limited_by.values()) == info.steps
    assert info.newton_iters >= info.steps


def test_newton_iteration_cap_raises(wall_l1, monkeypatch):
    from signedflow import pde
    monkeypatch.setattr(pde, "NEWTON_MAX_ITERS", 1)
    xs = np.linspace(-3.2, 3.2, 129)
    u0 = GridFunction(-3.2, xs[1] - xs[0],
                      barenblatt_primitive(1.0, xs, 1.0, wall_l1 / 2.0), 0.0, 1.0)
    with pytest.raises(ConvergenceError, match="Newton"):
        solve_local(u0, 2, WALL, 1.0, None, 0.1)


def test_singular_jacobian_raises():
    # a negative mobility that zeroes the Jacobian is reported, not solved
    # through
    from signedflow.pde import _implicit_diffusion
    u = np.array([0.0, 0.5, 1.0, 1.5])

    def mobility(p):
        return np.array([-1.0, 0.0, -1.0]), np.zeros_like(p)
    with pytest.raises(ConvergenceError, match="singular"):
        _implicit_diffusion(u, u[1:-1], 1.0, 1.0, mobility)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("solve", [
    lambda u0: solve_local(u0, 2, WALL, 1.0, None, 0.01),
    lambda u0: solve_nonlocal(u0, LOGP, 1.0, None, 0.01),
], ids=["local", "nonlocal"])
def test_tiny_grids_solve(solve, n):
    # grids with fewer than two interior nodes still take their step
    u0 = GridFunction(0.0, 0.5, np.linspace(0.0, 1.0, n), 0.0, 1.0)
    out, info = solve(u0)
    assert info.steps >= 1 and np.all(np.isfinite(out.values))
    assert info.max_principle_violation == 0.0


@pytest.mark.parametrize("x0, dx, values, far", [
    (math.nan, 0.1, [0.0, 1.0], (0.0, 1.0)),
    (math.inf, 0.1, [0.0, 1.0], (0.0, 1.0)),
    (0.0, math.nan, [0.0, 1.0], (0.0, 1.0)),
    (0.0, math.inf, [0.0, 1.0], (0.0, 1.0)),
    (0.0, 0.1, [0.0, math.nan], (0.0, 1.0)),
    (0.0, 0.1, [-math.inf, 1.0], (0.0, 1.0)),
    (0.0, 0.1, [0.0, 1.0], (math.nan, 1.0)),
    (0.0, 0.1, [0.0, 1.0], (0.0, math.inf)),
    (0.0, 0.0, [0.0, 1.0], (0.0, 1.0)),
    (0.0, -0.1, [0.0, 1.0], (0.0, 1.0)),
], ids=["x0-nan", "x0-inf", "dx-nan", "dx-inf", "value-nan", "value-inf",
        "far-left-nan", "far-right-inf", "dx-zero", "dx-negative"])
def test_grid_function_rejects_bad_input(x0, dx, values, far):
    with pytest.raises(DataError):
        GridFunction(x0, dx, np.array(values), *far)


@pytest.mark.parametrize("solve", [
    lambda u0, fld: solve_local(u0, 2, WALL, 1.0, fld, 0.02),
    lambda u0, fld: solve_nonlocal(u0, LOGP, 1.0, fld, 0.02),
], ids=["local", "nonlocal"])
def test_non_finite_field_rejected(solve):
    from signedflow import ExternalField
    fld = ExternalField(u=lambda x: np.zeros_like(x),
                        uprime=lambda x: np.where(x > 0.5, np.nan, 1.0))
    xs = np.linspace(-2, 2, 65)
    vals = 0.5 * (1 + np.tanh(2 * xs))
    vals[0] = vals[1]; vals[-1] = vals[-2]
    u0 = GridFunction(-2.0, xs[1] - xs[0], vals, vals[0], vals[-1])
    with pytest.raises(DataError):
        solve(u0, fld)


def test_march_rejects_non_finite_step():
    from signedflow.pde import _march
    u0 = GridFunction(0.0, 0.1, np.zeros(5), 0.0, 0.0)

    def nan_flux(p):
        return np.ones_like(p), np.full_like(p, np.nan)

    def prepare(u, d):
        return nan_flux, np.zeros_like(u)
    with pytest.raises(ConvergenceError):
        _march(u0, 1.0, None, prepare)


@pytest.mark.parametrize("solve", [
    lambda u0, t, t_eval: solve_local(u0, 2, WALL, 1.0, None, t, t_eval=t_eval),
    lambda u0, t, t_eval: solve_nonlocal(u0, LOGP, 1.0, None, t, t_eval=t_eval),
], ids=["local", "nonlocal"])
def test_snapshot_at_time_zero_takes_no_step(solve):
    # a request at t <= 0 is the initial data, not a forced tiny step
    xs = np.linspace(-2, 2, 129)
    vals = 0.5 * (1 + np.tanh(2 * xs))
    vals[0] = vals[1]; vals[-1] = vals[-2]
    u0 = GridFunction(-2.0, xs[1] - xs[0], vals, vals[0], vals[-1])
    out, info = solve(u0, 0.02, [0.02, 0.0, -1.0])
    ref, ref_info = solve(u0, 0.02, [0.02])
    assert [t for t, _ in info.snapshots] == [-1.0, 0.0, 0.02]
    assert np.array_equal(info.snapshots[0][1], u0.values)
    assert np.array_equal(info.snapshots[1][1], u0.values)
    assert info.steps == ref_info.steps
    assert info.dt_min == ref_info.dt_min
    assert np.array_equal(out.values, ref.values)


def _dense_farfield(pot, alpha, xs, dx, k_off, u):
    """Far-field velocity from per (node, segment) annulus integrals."""
    n = len(xs)
    j = np.arange(n - 1)
    i = np.arange(n)
    zl = dx * (j[None, :] - i[:, None])
    zr = zl + dx
    outside = (j[None, :] >= i[:, None] + k_off) | \
              (j[None, :] + 1 <= i[:, None] - k_off)

    def vp(z):
        out = np.zeros_like(z)
        mask = z != 0
        out[mask] = alpha ** 2 * pot.deriv(alpha * z[mask], 1)
        return out

    def w(z):
        out = np.zeros_like(z)
        mask = z != 0
        za = z[mask]
        out[mask] = za * alpha ** 2 * pot.deriv(alpha * za, 1) \
            - alpha * pot.deriv(alpha * za, 0)
        return out

    dvp = np.where(outside, vp(zr) - vp(zl), 0.0)
    dwc = np.where(outside, w(zr) - w(zl), 0.0) \
        - (xs[:-1][None, :] - xs[:, None]) * dvp
    s = np.diff(u) / dx
    far = (dvp * u[:-1]).sum(axis=1) - u * dvp.sum(axis=1) \
        + (dwc * s).sum(axis=1)
    scale = (np.abs(dvp) * np.abs(u[:-1])).sum(axis=1) \
        + np.abs(u * dvp.sum(axis=1)) + (np.abs(dwc) * np.abs(s)).sum(axis=1)
    return far, scale


@pytest.mark.parametrize("pot, alpha", [(LOGP, 1.0), (WALL, 2.0)],
                         ids=["log", "wall"])
@pytest.mark.parametrize("n", [64, 257])
def test_farfield_kernels_match_dense_reference(pot, alpha, n):
    from signedflow.pde import _apply_kernel, _farfield_kernels
    rng = np.random.default_rng(n)
    xs = np.linspace(-2.0, 2.0, n)
    dx = xs[1] - xs[0]
    u = np.cumsum(rng.uniform(-1.0, 1.0, n)) * dx
    for k_off in (2, n // 2, n - 1):
        ref, scale = _dense_farfield(pot, alpha, xs, dx, k_off, u)
        dvp, dwc = _farfield_kernels(pot, alpha, dx, n, k_off)
        assert dvp.shape == dwc.shape == (2 * n - 2,)
        row = _apply_kernel(dvp, np.ones(n - 1))
        far = _apply_kernel(dvp, u[:-1]) - u * row \
            + _apply_kernel(dwc, np.diff(u) / dx)
        assert np.all(np.abs(far - ref) <= 1e-12 * scale), k_off


def test_antisymmetry_preserved_nonlocal():
    xs = np.linspace(-2, 2, 201)
    dx = xs[1] - xs[0]
    vals = 0.4 * np.tanh(3 * xs)
    vals[0] = vals[1]; vals[-1] = vals[-2]
    vals = 0.5 * (vals - vals[::-1])  # exactly antisymmetric
    u0 = GridFunction(-2.0, dx, vals, vals[0], vals[-1])
    out, _ = solve_nonlocal(u0, LOGP, 1.0, None, 0.05)
    assert np.max(np.abs(out.values + out.values[::-1])) <= 1e-8


def test_m3_local_solver_runs(wall_l1):
    xs = np.linspace(-2, 2, 257)
    dx = xs[1] - xs[0]
    vals = 0.5 * (1 + np.tanh(2 * xs)) * 0.6
    vals[0] = vals[1]; vals[-1] = vals[-2]
    u0 = GridFunction(-2.0, dx, vals, vals[0], vals[-1])
    out, info = solve_local(u0, 3, WALL, 1.0, None, 0.05)
    assert info.max_principle_violation <= 1e-12
    assert np.all(np.isfinite(out.values))


# ---------------------------------------------------------------------------
# cross-validation against the particle system
# ---------------------------------------------------------------------------

def test_nonlocal_matches_particles_single_sign():
    def bump(x):
        return np.where(np.abs(x) < 1, 15 / 16 * (1 - x ** 2) ** 2, 0.0)
    xf = np.linspace(-1, 1, 20001)
    v = bump(xf)
    cdf = np.concatenate([[0], np.cumsum((v[1:] + v[:-1]) / 2 * np.diff(xf))])
    cdf /= cdf[-1]

    n = 400
    x0 = np.interp((np.arange(n) + 0.5) / n, cdf, xf)
    st0 = ParticleState(0.0, x0, np.ones(n, dtype=int))
    res = simulate(st0, LOGP, 1.0, None, 0.2, t_eval=[0.2])

    L, N = 3.0, 512
    xs = np.linspace(-L, L, N)
    dx = xs[1] - xs[0]
    u0 = GridFunction(-L, dx, np.interp(xs, xf, cdf, left=0, right=1), 0.0, 1.0)
    out, _ = solve_nonlocal(u0, LOGP, 1.0, None, 0.2, rho=0.5)
    d = sup_distance(cumulative_charge(res.snapshots[0]), out, (-2.5, 2.5))
    assert d <= 0.05
