"""Quantized and compensated singular operators."""

import math

import numpy as np
import pytest

from signedflow import (ClampedProbe, ConvergenceError,
                        DegenerateGradientError, HamiltonianParams,
                        ScalingRegime, Staircase, TestFunction,
                        compensated_nonlocal, kernel_second_moment,
                        limiting_rhs, log_potential, quantized_nonlocal,
                        quartic_probe_sweep, quartic_probe_value,
                        rescaled_derivative, rhs_convergence_table,
                        riesz_potential, staircase_identity, wall_potential)
from signedflow import hamiltonians

PI2_3 = math.pi ** 2 / 3.0
LOGP = log_potential()
WALL = wall_potential()


# ---------------------------------------------------------------------------
# quantized operator
# ---------------------------------------------------------------------------

def test_linear_probe_ball_exact_zero():
    phi = TestFunction.linear(1.0)
    params = HamiltonianParams(rho=1.0, eps=1e-3, alpha_eps=1.0)
    far = Staircase.constant(0.0)
    val, parts = quantized_nonlocal(phi, far, 0.0, LOGP, params, parts=True)
    assert parts["ball"] == 0.0          # odd integrand pairs away exactly
    assert parts["rho0"] == pytest.approx(params.eps, rel=1e-9)
    # zero far increments leave only the envelope offset of E at 0
    vp1 = abs(LOGP.deriv(1.0, 1))
    assert abs(parts["tail"]) <= params.eps * vp1 + 1e-15


@pytest.mark.parametrize("eps", [1e-2, 3e-3, 7e-4, 3e-5])
@pytest.mark.parametrize("slope", [0.7, 3.3])
def test_linear_probe_sides_cancel_bitwise(slope, eps):
    # both sides' crossing sums take the same radii in the same order
    ball, _ = hamiltonians._paired_ball(TestFunction.linear(slope), 0.0, LOGP,
                                        1.0, eps, 1.0)
    assert ball == 0.0


def test_envelope_average_cancels_zero_increments():
    phi = TestFunction.linear(1.0)
    params = HamiltonianParams(rho=1.0, eps=1e-4, alpha_eps=1.0)
    far = Staircase.constant(0.0)
    up = quantized_nonlocal(phi, far, 0.0, LOGP, params, envelope="upper")
    lo = quantized_nonlocal(phi, far, 0.0, LOGP, params, envelope="lower")
    assert up + lo == pytest.approx(0.0, abs=1e-14)


def test_envelope_difference_bounded():
    phi = TestFunction.sin()
    params = HamiltonianParams(rho=1.0, eps=1e-2, alpha_eps=1.0)
    far = ClampedProbe(phi, 0.3, 1.0)
    up, pu = quantized_nonlocal(phi, far, 0.3, LOGP, params, "upper", parts=True)
    lo, pl = quantized_nonlocal(phi, far, 0.3, LOGP, params, "lower", parts=True)
    bound = params.eps * abs(LOGP.deriv(max(pu["rho0"], 1e-12), 1))
    assert abs(up - lo) <= bound + 1e-12
    # the ball's increment meets eps*Z at single points only
    assert pu["ball"] == pl["ball"]


def _reference_ball(phi, x, pot, rho, eps, alpha, envelope="upper",
                    inverse_right=None, inverse_left=None,
                    crit_right=None, crit_left=None):
    """The ball as first written: both sides' crossings and piece bounds
    merged into one grid, E summed over both sides at every midpoint, and
    the sum taken by parts with math.fsum."""
    f0 = float(phi.f(np.array([x]))[0])
    sides = []
    for side, inverse, crit in ((1, inverse_right, crit_right),
                                (-1, inverse_left, crit_left)):
        def g(r, side=side):
            return np.asarray(phi.f(x + side * np.asarray(r)), dtype=float) - f0

        def dg(r, side=side):
            return side * np.asarray(phi.d1(x + side * np.asarray(r)), dtype=float)

        if crit is None:
            crit = hamiltonians._critical_radii(dg, 0.0, rho)
        radii, _ = hamiltonians._side_crossings(g, dg, 0.0, rho, eps,
                                                crit=crit, inverse=inverse,
                                                x=x)
        sides.append((g, radii, [c for c in crit if 0.0 < c < rho]))
    crossings = np.concatenate([radii for _, radii, _ in sides])
    rho0 = float(crossings.min(initial=rho))
    if rho0 >= rho:
        return 0.0
    radii = np.concatenate([crossings] + [np.asarray(b, dtype=float)
                                          for _, _, b in sides])
    radii = radii[(radii > rho0) & (radii < rho)]
    grid = np.unique(np.concatenate([[rho0], radii, [rho]]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    e_sum = sum(staircase_identity(g(mids), eps, envelope) for g, _, _ in sides)
    vp = rescaled_derivative(pot, alpha, grid, 1)
    pieces = [e_sum[-1] * vp[-1], -e_sum[0] * vp[0]]
    pieces.extend((-np.diff(e_sum) * vp[1:-1]).tolist())
    return math.fsum(pieces)


_BALL_KERNELS = {
    "log": (LOGP, lambda eps: 1.0),
    "wall m2": (WALL, ScalingRegime(m=2).alpha_of_eps),
    "wall m3": (WALL, ScalingRegime(m=3, beta=1.0).alpha_of_eps),
}


@pytest.mark.parametrize("probe, x, kernel, eps", [
    (probe, x, kernel, eps)
    for eps in (1e-2, 1e-3, 1e-4)
    for kernel in _BALL_KERNELS
    for probe, x in (("sin", 0.3), ("cubic", -0.7))
] + [("sin", 0.3, "wall m2", 1e-5)])  # bisected pieces of several blocks
def test_crossing_sum_matches_merged_grid(probe, x, kernel, eps):
    phi = getattr(TestFunction, probe)()
    pot, alpha_of_eps = _BALL_KERNELS[kernel]
    alpha = alpha_of_eps(eps)
    ball, _ = hamiltonians._paired_ball(phi, x, pot, 1.0, eps, alpha)
    ref = _reference_ball(phi, x, pot, 1.0, eps, alpha)
    assert ball == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("radii", [[0.0, 0.5], [0.5, -0.25]])
def test_crossing_sum_refuses_radii_off_the_half_line(radii):
    # the sum evaluates V' on (0, inf) directly, and refuses as
    # Potential.deriv does at x = 0
    with pytest.raises(ValueError, match="x = 0"):
        hamiltonians._crossing_sum(WALL, 2.0, 1e-2,
                                   [(np.array(radii), 1.0)], 1.0)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("gamma", [2.0, -2.0, 0.5, -0.5])
def test_quartic_probe_matches_merged_grid(gamma, eps):
    K = 2.0
    alpha = ScalingRegime(m=3, beta=1.0).alpha_of_eps(eps)
    inv_r, inv_l = hamiltonians._quartic_inverses(K, gamma)
    ref = _reference_ball(TestFunction.shifted_quartic(K, gamma), 0.0, WALL,
                          1.0, eps, alpha, inverse_right=inv_r,
                          inverse_left=inv_l,
                          crit_right=[-gamma] if gamma < 0 else [],
                          crit_left=[gamma] if gamma > 0 else [])
    val = quartic_probe_value(WALL, K, gamma, eps, alpha)
    assert val == pytest.approx(gamma ** 2 * ref, rel=1e-10)


@pytest.mark.parametrize("x", [0.3, -0.4])
def test_bisected_crossings_match_closed_form(x):
    # sin's crossings of the levels k eps from the grid walk and bisection,
    # against arcsin; each side's piece spans several grid chunks and blocks
    eps, f0 = 1e-5, math.sin(x)
    for side in (1, -1):
        def g(r, side=side):
            return np.sin(x + side * np.asarray(r)) - f0

        def dg(r, side=side):
            return side * np.cos(x + side * np.asarray(r))

        radii, signs = hamiltonians._side_crossings(g, dg, 0.0, 1.0, eps)
        sign = math.copysign(1.0, math.sin(x + side) - f0)
        levels = sign * eps * np.arange(1, len(radii) + 1)
        exact = side * (np.arcsin(f0 + levels) - x)
        assert len(radii) == math.ceil(abs(math.sin(x + side) - f0) / eps) - 1
        assert len(radii) > 2 * hamiltonians._BLOCK
        assert np.all(signs == sign)
        assert np.max(np.abs(radii - exact)) <= 1e-13


# sin at x = 1.2 and 1.5 has a critical radius inside the right side's
# ball, so the last brackets of its first piece end at a critical point; at
# x = 1e5 the round-off of x + r is 1e5 times that of the radii
@pytest.mark.parametrize("probe, x", [("sin", 0.3), ("sin", -0.4),
                                      ("sin", 1.2), ("sin", 1.5),
                                      ("cubic", -0.7), ("sin", 1e5)])
@pytest.mark.parametrize("eps", [1e-3, 1e-5])
def test_newton_crossings_match_bisection(monkeypatch, probe, x, eps):
    # every root within a few ulp of its own conditioning: the round-off of
    # the argument x + r and of the probe's values over the slope
    phi = getattr(TestFunction, probe)()
    f0 = float(phi.f(np.array([x]))[0])
    solve = hamiltonians._solve_levels
    for side in (1, -1):
        def g(r, side=side):
            return np.asarray(phi.f(x + side * np.asarray(r)), dtype=float) - f0

        def dg(r, side=side):
            return side * np.asarray(phi.d1(x + side * np.asarray(r)),
                                     dtype=float)

        newton, signs = hamiltonians._side_crossings(g, dg, 0.0, 1.0, eps,
                                                     x=x)
        with monkeypatch.context() as mp:
            # the same brackets, each solved without its slope
            mp.setattr(hamiltonians, "_solve_levels",
                       lambda g, zlo, zhi, glo, levels, dg=None, tol=0.0:
                       solve(g, zlo, zhi, glo, levels))
            bisect, bisect_signs = hamiltonians._side_crossings(g, dg, 0.0,
                                                                1.0, eps, x=x)
        assert len(newton) == len(bisect) and np.array_equal(signs,
                                                             bisect_signs)
        z = x + side * bisect
        cond = (np.spacing(abs(x) + bisect)
                + np.spacing(1.0 + np.abs(phi.f(z))) / np.abs(phi.d1(z)))
        assert np.all(np.abs(newton - bisect) <= 4 * cond)


@pytest.mark.parametrize("probe, x", [("sin", 0.3), ("sin", 1.2),
                                      ("cubic", -0.7), ("sin", 1e5)])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-5])
def test_newton_evaluates_few_times_per_block(monkeypatch, probe, x, eps):
    # g is evaluated about three times a level, not BISECT_ITERS + 1 times;
    # a root next to its bracket's end may take a few halvings alone
    solve = hamiltonians._solve_levels
    blocks = []

    def counted(g, zlo, zhi, glo, levels, dg=None, tol=0.0):
        sizes = []

        def g_counted(r):
            sizes.append(len(r))
            return g(r)

        out = solve(g_counted, zlo, zhi, glo, levels, dg, tol)
        if dg is not None:  # not the bisection of a critical radius
            blocks.append((len(zlo), sizes))
        return out

    monkeypatch.setattr(hamiltonians, "_solve_levels", counted)
    phi = getattr(TestFunction, probe)()
    alpha = ScalingRegime(m=2).alpha_of_eps(eps)
    hamiltonians._paired_ball(phi, x, WALL, 1.0, eps, alpha)
    levels = sum(n for n, _ in blocks)
    assert levels > 0
    assert max(len(sizes) for _, sizes in blocks) <= 16
    assert sum(sum(sizes) for _, sizes in blocks) <= 4 * levels


def test_newton_stops_on_a_jittering_function():
    # g rises with slope 1 through 0.5 + k / 1024 and carries a round-off
    # of about 5 ulp, so Newton's steps jitter by several ulp and never fall
    # below 4 ulp; the step rule still ends every root in a few evaluations
    calls = []

    def g(r):
        calls.append(len(r))
        r = np.asarray(r, dtype=float)
        return r - 0.5 + 5 * np.spacing(0.5) * np.sign(np.sin(1e16 * r))

    levels = np.arange(1, 101) / 1024.0
    exact = 0.5 + levels
    lo, hi = exact - 1e-3, exact + 2e-3
    for tol, most in ((2.0 ** -42 * 0.5, 4), (4 * np.spacing(1.0), None)):
        calls.clear()
        roots = hamiltonians._solve_levels(
            g, lo, hi, g(lo), levels, lambda r: np.ones_like(r), tol)
        assert np.all(np.abs(roots - exact) <= 16 * np.spacing(exact))
        if most is not None:
            assert len(calls) - 1 <= most
        else:   # a 4-ulp rule leaves some roots to the cap
            assert len(calls) - 1 == hamiltonians.BISECT_ITERS


def test_newton_keeps_the_bracket_at_a_zero_slope():
    # both brackets start Newton at r = 0, where the slope of r^3 is zero:
    # the step is inf or nan, the midpoint is taken instead, and Newton
    # resumes from there
    def g(r):
        return np.asarray(r, dtype=float) ** 3

    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    roots = hamiltonians._solve_levels(
        g, lo, hi, g(lo), np.array([1e-3, 0.125]), lambda r: 3 * r * r,
        2.0 ** -42)
    assert roots == pytest.approx([0.1, 0.5], rel=1e-15)


@pytest.mark.parametrize("q", [1e-12, 1e-8, 1e-4])
@pytest.mark.parametrize("gamma", [0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
def test_quartic_inverse_near_zero_high_precision(gamma, q):
    # the crossing of the level L = +-K q next to z = 0, where
    # -shift + sig (shift^4 + L/K)^(1/4) cancels, against 50-digit roots:
    # the left side's increment is the right side's at shift = -gamma
    mp = pytest.importorskip("mpmath")
    K = 2.0
    for inverse, shift in zip(hamiltonians._quartic_inverses(K, gamma),
                              (gamma, -gamma)):
        # the increment rises from 0 if shift > 0, else dips until -shift
        level, b = (K * q, 1.0) if shift > 0 else (-K * q, -shift)
        r = float(inverse(np.array([level]), 0.0, b)[0])
        with mp.workdps(50):
            s = mp.mpf(shift)
            root = mp.root(s ** 4 + mp.mpf(level) / K, 4)
            exact = mp.sign(s) * root - s
            assert abs((r - exact) / exact) <= 1e-14


@pytest.mark.parametrize("field", ["rho", "eps", "alpha_eps"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_params_reject_nonpositive_or_non_finite(field, bad):
    kwargs = {"rho": 1.0, "eps": 1e-2, "alpha_eps": 1.0, field: bad}
    with pytest.raises(ValueError):
        HamiltonianParams(**kwargs)


def test_degenerate_gradient_raises():
    phi = TestFunction.quadratic(0.5)  # phi'(0) = 0
    params = HamiltonianParams(rho=1.0, eps=1e-2, alpha_eps=1.0)
    with pytest.raises(DegenerateGradientError):
        quantized_nonlocal(phi, Staircase.constant(0.0), 0.0, LOGP, params)


def test_core_radius_detected_positive():
    phi = TestFunction.sin()
    params = HamiltonianParams(rho=1.0, eps=1e-3, alpha_eps=1.0)
    _, parts = quantized_nonlocal(phi, ClampedProbe(phi, 0.0, 1.0), 0.0, LOGP,
                                  params, parts=True)
    # |sin z| reaches eps near z = eps: the detected core is about that size
    assert 0.5e-3 < parts["rho0"] < 2e-3


@pytest.mark.parametrize("gamma", [0.05, -0.05])
def test_core_radius_at_return_to_zero(gamma):
    # K((z + gamma)^4 - gamma^4) dips by K gamma^4 << eps on the side of
    # -gamma and returns to 0 at |z| = 2|gamma| before either side reaches
    # eps: the core ends at that level-0 crossing
    phi = TestFunction.shifted_quartic(2.0, gamma)
    params = HamiltonianParams(rho=1.0, eps=1e-2, alpha_eps=1.0)
    _, parts = quantized_nonlocal(phi, Staircase.constant(0.0), 0.0, LOGP,
                                  params, parts=True)
    assert parts["rho0"] == pytest.approx(0.1, rel=1e-12)


def test_far_field_bound():
    # |tail| <= (4 ||v||_inf + eps) |V_alpha'(rho)|
    vals = np.array([0.0, 0.6, -0.2])
    far = Staircase(np.array([2.0, 3.0]), vals)
    phi = TestFunction.linear(1.0)
    for eps in (1e-1, 1e-3):
        params = HamiltonianParams(rho=1.0, eps=eps, alpha_eps=2.0)
        _, parts = quantized_nonlocal(phi, far, 0.5, LOGP, params, parts=True)
        vmax = float(np.max(np.abs(vals)))
        bound = (4 * vmax + eps) * abs(2.0 ** 2 * LOGP.deriv(2.0 * 1.0, 1))
        assert abs(parts["tail"]) <= bound + 1e-12


def test_rho_independence_with_matching_farfield():
    # moving mass between the probe slot and the far slot leaves the value
    # unchanged when the far field equals the probe on the annulus
    phi = TestFunction.sin()
    x = 0.4
    far = ClampedProbe(phi, x, 2.0)
    v1 = quantized_nonlocal(phi, far, x, WALL,
                            HamiltonianParams(rho=1.0, eps=1e-3, alpha_eps=3.0))
    v2 = quantized_nonlocal(phi, far, x, WALL,
                            HamiltonianParams(rho=2.0, eps=1e-3, alpha_eps=3.0))
    assert v1 == pytest.approx(v2, abs=2e-9)


def test_monotone_in_probe():
    # phi >= psi touching at x with equal nonzero slope: the ball integral
    # for phi dominates (kernel >= 0 and the step identity nondecreasing)
    psi = TestFunction.sin()
    phi = TestFunction(
        lambda z: np.sin(z) + (z - 0.3) ** 2,
        lambda z: np.cos(z) + 2 * (z - 0.3),
        lambda z: -np.sin(z) + 2.0)
    params = HamiltonianParams(rho=1.0, eps=1e-3, alpha_eps=1.0)
    far = Staircase.constant(0.0)
    _, a = quantized_nonlocal(phi, far, 0.3, LOGP, params, parts=True)
    _, b = quantized_nonlocal(psi, far, 0.3, LOGP, params, parts=True)
    assert a["ball"] >= b["ball"] - 1e-12


# ---------------------------------------------------------------------------
# compensated operator
# ---------------------------------------------------------------------------

def test_compensated_quadratic_log_kernel():
    # int_{-1}^{1} (z^2/2) z^-2 dz = 1
    psi = TestFunction.quadratic(0.5)
    val = compensated_nonlocal(psi, Staircase.constant(0.0), 0.0, LOGP, 1.0,
                               1.0, quad_tol=1e-11)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_compensated_linear_far_only():
    psi = TestFunction.linear(2.0)
    far = Staircase(np.array([3.0]), np.array([0.0, 1.0]))
    val, parts = compensated_nonlocal(psi, far, 0.0, LOGP, 1.0, 1.0,
                                      parts=True)
    assert parts["ball"] == pytest.approx(0.0, abs=1e-12)
    assert parts["tail"] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_compensated_rho_independence():
    psi = TestFunction.sin()
    x = 0.2
    far = ClampedProbe(psi, x, 2.5)
    v1 = compensated_nonlocal(psi, far, x, LOGP, 0.5, 1.0, quad_tol=1e-11)
    v2 = compensated_nonlocal(psi, far, x, LOGP, 1.5, 1.0, quad_tol=1e-11)
    assert v1 == pytest.approx(v2, abs=2e-9)


def test_kernel_second_moment_log():
    # log kernel: int_{B_rho} z^2 V_alpha'' dz = 2 alpha rho
    assert kernel_second_moment(LOGP, 1.0, 0.5) == pytest.approx(1.0, abs=1e-9)
    assert kernel_second_moment(LOGP, 3.0, 0.5) == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("rho", [1.0, 0.05])
@pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
def test_kernel_second_moment_riesz_closed_form(a, rho):
    # z^2 V'' = a (a+1) z^-a: 2 a (a+1) rho^(1-a) / (1-a), 3, 34.2 and 394.02
    # at rho = 1.  At a = 0.9, z^2 V'' overflows below z ~ 1e-106; at
    # a = 0.99, a third of the integral lies below z = 1e-275 rho
    exact = 2.0 * a * (a + 1.0) * rho ** (1.0 - a) / (1.0 - a)
    assert abs(kernel_second_moment(riesz_potential(a), 1.0, rho, 1e-10)
               - exact) <= 1e-10


@pytest.mark.parametrize("rho", [1.0, 0.05])
@pytest.mark.parametrize("a", [1.0, 1.5])
def test_kernel_second_moment_divergent_kernel_raises(a, rho):
    with pytest.raises(ConvergenceError, match="second kernel moment diverges"):
        kernel_second_moment(riesz_potential(a), 1.0, rho)


# ---------------------------------------------------------------------------
# limiting right-hand sides
# ---------------------------------------------------------------------------

def test_limit_m2_degenerate_point():
    assert limiting_rhs(TestFunction.sin(), 0.0, 2, WALL, 1.0) \
        == pytest.approx(0.0, abs=1e-12)


def test_limit_m2_quarter_pi():
    val = limiting_rhs(TestFunction.sin(), math.pi / 4, 2, WALL, 1.0)
    assert val == pytest.approx(-PI2_3 * math.sqrt(2) / 2, abs=1e-6)
    assert val == pytest.approx(-2.3262880665462932, abs=1e-6)


def test_limit_m3_sign_symmetric():
    # equal |phi'| and phi'' with opposite slope signs give equal values
    up = TestFunction(lambda z: np.sin(z), np.cos, lambda z: -np.sin(z))
    dn = TestFunction(lambda z: -np.sin(-z) - 2 * np.sin(z) + np.sin(z),
                      lambda z: -np.cos(z),
                      lambda z: np.sin(z) * 0 - np.sin(z))
    x = 0.4
    a = limiting_rhs(up, x, 3, WALL, 1.0)
    # direct formula with flipped slope sign
    d1, d2 = float(np.cos(x)), float(-np.sin(x))
    from signedflow import lattice_series
    b = 1.0 / abs(-d1) ** 3 * lattice_series(WALL, 1.0 / -d1) * d2
    assert a == pytest.approx(b, rel=1e-10)


def test_limit_m1_is_compensated_ball():
    phi = TestFunction.sin()
    a = limiting_rhs(phi, 0.3, 1, LOGP, 1.0, quad_tol=1e-10)
    b, parts = compensated_nonlocal(phi, Staircase.constant(0.0), 0.3, LOGP,
                                    1.0, 1.0, quad_tol=1e-10, parts=True)
    assert a == pytest.approx(parts["ball"], abs=1e-9)


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,pot,reg", [
    (1, LOGP, ScalingRegime(m=1, alpha=1.0)),
    (2, WALL, ScalingRegime(m=2)),
    (3, WALL, ScalingRegime(m=3, beta=1.0)),
])
def test_rhs_convergence_each_regime(m, pot, reg):
    rows, limit = rhs_convergence_table(TestFunction.sin(), 0.3, m, pot, reg,
                                        [1e-1, 1e-2, 1e-3])
    errs = [r[2] for r in rows]
    assert all(b < a for a, b in zip(errs[:-1], errs[1:]))
    assert errs[-1] <= 0.05 * abs(limit)


def test_rhs_degenerate_curvature_point_richardson():
    # sin at x = 0 under the intermediate scaling: phi''(0) = 0, so the
    # limit vanishes; the sweep records finite values and extrapolates to 0
    # (here exactly 0 at every resolution: the increment is odd about 0, so
    # the paired evaluation cancels identically)
    reg = ScalingRegime(m=2)
    rows, limit = rhs_convergence_table(TestFunction.sin(), 0.0, 2, WALL, reg,
                                        [1e-2, 1e-3, 1e-4])
    assert limit == pytest.approx(0.0, abs=1e-10)
    vals = [r[1] for r in rows]
    assert all(np.isfinite(v) for v in vals)
    r = math.sqrt(10.0)  # errors scale like sqrt(eps) in this regime
    extrap = (r * vals[2] - vals[1]) / (r - 1.0)
    assert abs(extrap) <= 2e-3
    assert max(abs(v) for v in vals) <= 1e-12


# ---------------------------------------------------------------------------
# degenerate-gradient probe
# ---------------------------------------------------------------------------

def test_quartic_probe_nonnegative_and_finite():
    v = quartic_probe_value(LOGP, 2.0, 2.0, 1.0, 1.0)
    assert np.isfinite(v) and v >= 0.0


def test_quartic_probe_sign_symmetry():
    a = quartic_probe_value(LOGP, 2.0, 0.7, 1e-2, 1.0)
    b = quartic_probe_value(LOGP, 2.0, -0.7, 1e-2, 1.0)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.35, -0.35, -0.05, -1e-3])
def test_quartic_probe_matches_generic_path(gamma):
    # closed-form crossings against the generic bisection machinery
    from signedflow.hamiltonians import TestFunction as TF, _paired_ball
    K, eps = 2.0, 1e-3
    fast = quartic_probe_value(WALL, K, gamma, eps, 5.0)
    phi = TF.shifted_quartic(K, gamma)
    ball, _ = _paired_ball(phi, 0.0, WALL, 1.0, eps, 5.0)
    assert fast == pytest.approx(gamma ** 2 * ball, rel=1e-9)


def test_quartic_probe_zero_gamma_raises():
    with pytest.raises(DegenerateGradientError):
        quartic_probe_value(LOGP, 2.0, 0.0, 1e-2, 1.0)


def test_shifted_quartic_is_exactly_even():
    # (z, gamma) -> (-z, -gamma) maps z + gamma to its negative exactly, so
    # f must agree bit for bit and d1 must flip its sign bit for bit
    z = np.linspace(-2.0, 2.0, 4001)
    for K, gamma in [(2.0, 0.7), (2.0, 1.5), (0.5, 0.3), (4.0, 1e-3)]:
        pos = TestFunction.shifted_quartic(K, gamma)
        neg = TestFunction.shifted_quartic(K, -gamma)
        assert np.array_equal(neg.f(-z), pos.f(z))
        assert np.array_equal(neg.d1(-z), -pos.d1(z))


@pytest.mark.parametrize("K", [-1.0, 0.0, math.nan])
def test_quartic_probe_rejects_nonpositive_K(K):
    with pytest.raises(ValueError):
        quartic_probe_value(LOGP, K, 0.5, 1e-2, 1.0)


@pytest.mark.parametrize("eps, alpha", [
    (-1e-2, 1.0), (0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (1e-2, -1.0), (1e-2, 0.0), (1e-2, math.nan),
], ids=["eps<0", "eps=0", "eps-nan", "eps-inf", "alpha<0", "alpha=0",
        "alpha-nan"])
def test_quartic_probe_rejects_bad_resolution(eps, alpha):
    with pytest.raises(ValueError):
        quartic_probe_value(LOGP, 2.0, 0.5, eps, alpha)


@pytest.mark.parametrize("K, L, gammas, eps_grid, err", [
    (-1.0, 2.0, [0.5], [1e-1, 1e-2], ValueError),
    (0.0, 2.0, [0.5], [1e-1, 1e-2], ValueError),
    (2.0, 0.0, [0.5], [1e-1, 1e-2], ValueError),
    (2.0, 1.0, [0.5, 1.5], [1e-1, 1e-2], ValueError),
    (2.0, 1.0, [0.5, math.nan], [1e-1, 1e-2], ValueError),
    (2.0, 2.0, [0.5, 0.0], [1e-1, 1e-2], DegenerateGradientError),
    (2.0, 2.0, [0.5], [1e-1, 0.0], ValueError),
    (2.0, 2.0, [0.5], [1e-1, -1e-2], ValueError),
    (2.0, 2.0, [0.5], [1e-1, math.nan], ValueError),
], ids=["K<0", "K=0", "L=0", "gamma>L", "gamma-nan", "gamma=0", "eps=0",
        "eps<0", "eps-nan"])
def test_quartic_sweep_checks_inputs_before_any_probe(monkeypatch, K, L,
                                                      gammas, eps_grid, err):
    calls = []
    monkeypatch.setattr(hamiltonians, "quartic_probe_value",
                        lambda *args: calls.append(args) or 0.0)
    with pytest.raises(err):
        quartic_probe_sweep(LOGP, ScalingRegime(m=1, alpha=1.0), K, L,
                            eps_grid, gammas)
    assert calls == []


def test_quartic_sweep_small():
    gammas = [-1.5, -0.3, -1e-3, 1e-3, 0.3, 1.5]
    rows, per_max = quartic_probe_sweep(LOGP, ScalingRegime(m=1, alpha=1.0),
                                        2.0, 2.0, [1e-1, 1e-2], gammas)
    assert min(r[2] for r in rows) >= -1e-9
    assert len(rows) == 12


@pytest.mark.parametrize("gammas", [
    [-1.5, -0.3, -1e-3, 1e-3, 0.3, 1.5],
    [-1.5, -0.3, 0.7, 1.5, 2.0],
    [0.3, -0.3, 0.3, 1.0, -1.0, -0.3],
], ids=["symmetric", "asymmetric", "repeated"])
@pytest.mark.parametrize("pot, regime", [
    (LOGP, ScalingRegime(m=1, alpha=1.0)),
    (WALL, ScalingRegime(m=3, beta=1.0)),
], ids=["log-m1", "wall-m3"])
def test_probe_sweep_reuses_mirror_values(monkeypatch, pot, regime, gammas):
    eps_grid = [1e-1, 1e-3]
    calls = []
    paired_ball = hamiltonians._paired_ball
    monkeypatch.setattr(hamiltonians, "_paired_ball",
                        lambda *a, **kw: calls.append(a) or paired_ball(*a, **kw))
    rows, per_max = quartic_probe_sweep(pot, regime, 2.0, 2.0, eps_grid, gammas)
    # one probe per mirror pair (and per repeated gamma) and eps
    assert len(calls) == len(eps_grid) * len({abs(g) for g in gammas})
    assert [(e, g) for e, g, _ in rows] == [(e, g) for e in eps_grid
                                            for g in gammas]
    for eps, gamma, val in rows:
        ref = quartic_probe_value(pot, 2.0, gamma, eps,
                                  regime.alpha_of_eps(eps))
        assert val == ref, (eps, gamma)
    for eps in eps_grid:
        assert per_max[eps] == max(0.0, *(v for e, _, v in rows if e == eps))
