"""Potential families: closed forms, integrals, series, audits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h

from signedflow import (ConvergenceError, NonIntegrableError, ScalingRegime,
                        UnsupportedOrderError, audit_assumptions,
                        custom_potential, l1_norm, lattice_series,
                        log_potential, mobility, power_law_force_potential,
                        rescaled_derivative, riesz_potential, wall_potential)
from signedflow import potentials
from signedflow.potentials import ExternalField, make_field

PI2_3 = math.pi ** 2 / 3.0
WALL_V1_AT_1 = -0.7240616609663105  # -1/sinh(1)^2


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------

def test_rescale_log_order1():
    assert rescaled_derivative(log_potential(), 1.0, 1.0, 1) == -1.0


def test_rescale_wall_order1_closed_form():
    v = rescaled_derivative(wall_potential(), 1.0, 1.0, 1)
    assert v == pytest.approx(WALL_V1_AT_1, rel=1e-14)
    assert v == pytest.approx(-1.0 / math.sinh(1.0) ** 2, rel=1e-14)


def test_rescale_riesz_order0():
    pot = riesz_potential(0.5)
    assert rescaled_derivative(pot, 2.0, 0.5, 0) == pytest.approx(2.0)


def test_rescale_chain_rule():
    pot = wall_potential()
    # alpha^(k+1) V^(k)(alpha x) against a finite difference of alpha V(alpha x)
    alpha, x, h = 3.0, 0.7, 1e-6
    fd = (alpha * pot.deriv(alpha * (x + h), 0)
          - alpha * pot.deriv(alpha * (x - h), 0)) / (2 * h)
    assert rescaled_derivative(pot, alpha, x, 1) == pytest.approx(fd, rel=1e-8)


def test_rescale_errors():
    pot = custom_potential([lambda x: -np.log(x)], singularity_exponent=0.0)
    with pytest.raises(UnsupportedOrderError):
        rescaled_derivative(pot, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        log_potential().deriv(0.0, 1)


# ---------------------------------------------------------------------------
# evenness / oddness and finite-difference cross-checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.0, 0.5, 1.5, -0.5, 2.0, 0.25])
def test_power_family_tables_match_closed_forms_bitwise(a):
    # the Riesz and power-law force tables, and log's for a = 0, against
    # their closed forms; coefficients multiply left to right
    x = np.geomspace(1e-8, 1e6, 20001)
    if a == 0:
        c = 0.5
        pots = [(log_potential(), [-np.log(x), -1.0 / x, 1.0 / x ** 2,
                                   -2.0 / x ** 3, 6.0 / x ** 4]),
                (power_law_force_potential(0.0),
                 [-c * np.log(x), -c / x, c / x ** 2, -2.0 * c / x ** 3,
                  6.0 * c / x ** 4])]
    else:
        p1, p2, p3 = -a, -a * (-a - 1), -a * (-a - 1) * (-a - 2)
        p4 = -a * (-a - 1) * (-a - 2) * (-a - 3)
        pots = [(pot, [s * x ** -a, s * p1 * x ** (-a - 1),
                       s * p2 * x ** (-a - 2), s * p3 * x ** (-a - 3),
                       s * p4 * x ** (-a - 4)])
                for pot, s in ((riesz_potential(a), -1.0 if a < 0 else 1.0),
                               (power_law_force_potential(a),
                                1.0 / (2.0 + a) / a))]
    for pot, table in pots:
        for k, ref in enumerate(table):
            assert pot.derivs[k](x).tobytes() == ref.tobytes(), (pot.name, k)


@pytest.mark.parametrize("pot", [log_potential(), wall_potential(),
                                 riesz_potential(0.5), riesz_potential(-0.5),
                                 power_law_force_potential(1.5)])
def test_parity(pot):
    xs = np.geomspace(1e-2, 5.0, 7)
    for k in range(5):
        sign = (-1.0) ** k
        assert np.allclose(pot.deriv(-xs, k), sign * pot.deriv(xs, k),
                           rtol=1e-13)


def _fd4(f, x, h):
    # fourth-order central stencil
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


@pytest.mark.parametrize("pot", [log_potential(), wall_potential(),
                                 riesz_potential(0.5), riesz_potential(1.5)])
def test_derivatives_match_finite_differences(pot):
    # orders k <= 3: FD of V^(k-1) matches V^(k) within 1e-6 relative on a
    # log grid spanning [1e-3, 1e2]
    xs = np.geomspace(1e-3, 1e2, 41)
    for k in (1, 2, 3):
        for x in xs:
            # step small against both the power singularity and the
            # exponential tail rate
            h = min(5e-3, 1e-3 * x) if pot.tail_class == "exponential" \
                else 1e-3 * x
            fd = _fd4(lambda y: pot.deriv(y, k - 1), x, h)
            val = pot.deriv(x, k)
            assert fd == pytest.approx(val, rel=1e-6, abs=1e-300)


def test_wall_closed_forms_high_precision():
    # closed-form wall derivatives against high-precision numeric
    # differentiation, to 1e-12 relative
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    V = lambda x: x * mp.coth(x) - mp.log(2 * mp.sinh(x))
    pot = wall_potential()
    for x in (0.001, 0.3, 1.0, 7.0, 25.0):
        for k in (1, 2, 3, 4):
            ref = float(mp.diff(V, mp.mpf(x), k))
            assert pot.deriv(x, k) == pytest.approx(ref, rel=1e-12)


def test_wall_potential_small_arguments_high_precision():
    # V itself down to x = 1e-200, where 1 - exp(-2x) rounds to 0
    mp = pytest.importorskip("mpmath")
    v0 = wall_potential().derivs[0]
    with mp.workdps(50):
        for x in (1e-6, 1e-10, 1e-15, 1e-17, 1e-200, 0.3, 1.0, 25.0):
            xm = mp.mpf(x)
            ref = float(xm * mp.coth(xm) - mp.log(2 * mp.sinh(xm)))
            assert float(v0(x)) == pytest.approx(ref, rel=1e-15, abs=0.0), x


def test_wall_large_argument_stable():
    pot = wall_potential()
    for k in range(5):
        v = pot.deriv(500.0, k)
        assert np.isfinite(v)
    assert pot.deriv(500.0, 0) >= 0.0
    assert pot.deriv(1e30, 0) == 0.0  # underflows cleanly, no overflow


@pytest.mark.parametrize("lo,hi", [(1e-3, 19.0), (20.5, 60.0), (1e-3, 60.0),
                                   (350.0, 450.0)])
def test_wall_first_derivative_arrays_match_pointwise(lo, hi):
    # orders 1-4; the last range straddles the clamp at x = 400
    x = np.concatenate([np.geomspace(lo, hi, 97), [400.0] if lo < 400.0 < hi else []])
    for vk in wall_potential().derivs[1:]:
        whole = vk(x)
        one_by_one = np.array([vk(np.array([xi]))[0] for xi in x])
        assert whole.tobytes() == one_by_one.tobytes()
        assert np.ndim(vk(3.0)) == 0 and vk(3.0) == vk(np.array([3.0]))[0]


def test_wall_derivatives_high_precision_whole_range():
    # orders 1-4 from 1e-60 to 1e300, and densely where the values become
    # subnormal, against mpmath at 150 digits: within 4e-15 relative where
    # the reference is a normal double, within one subnormal step (exactly 0
    # beyond x = 400) where it is not
    mp = pytest.importorskip("mpmath")
    pot = wall_potential()
    xs = np.concatenate([np.geomspace(1e-60, 1e300, 2750),
                         np.linspace(300.0, 420.0, 401)])
    refs = {
        1: lambda x, s, c: -x / s ** 2,
        2: lambda x, s, c: (2 * x * c - s) / s ** 3,
        3: lambda x, s, c: (4 * (s - x * c) * c - 2 * x) / s ** 4,
        4: lambda x, s, c: (4 * s ** 3 - 8 * x * s ** 2 * c - 2 * s
                            - 16 * s * c ** 2 + 16 * x * c ** 3
                            + 8 * x * c) / s ** 5,
    }
    tiny = np.finfo(float).tiny
    step = np.nextafter(0.0, 1.0)
    with mp.workdps(150):
        for k, fk in refs.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = pot.derivs[k](xs)
                assert np.ndim(pot.derivs[k](2.0)) == 0
            for x, g in zip(xs, got):
                xm = mp.mpf(x)
                ref = float(fk(xm, mp.sinh(xm), mp.cosh(xm)))
                if abs(ref) >= tiny:
                    assert abs(g - ref) <= 4e-15 * abs(ref), (k, x)
                else:
                    assert abs(g - ref) <= step, (k, x)
                    assert x < 400.0 or g == 0.0, (k, x)
    # V'(x) = -1/x to double precision near 0, down to where it overflows
    v1 = pot.derivs[1]
    assert v1(1e-200) == -1e200
    assert v1(1e-300) == -1.0 / 1e-300  # -9.999999999999999e+299


# ---------------------------------------------------------------------------
# L1 norm
# ---------------------------------------------------------------------------

def test_l1_wall_series_oracle():
    # independent oracle: termwise integration of the exponential expansion
    # gives sum_k 1/(2k^2) for each of the two pieces, i.e. pi^2/12 each
    K = 200_000
    ks = np.arange(1, K + 1, dtype=float)
    piece = float(np.sum(0.5 / ks ** 2))  # + tail bound below
    tail = 0.5 / K  # int_K^inf dk/2k^2
    series = 2.0 * (2.0 * piece)
    assert abs(series + 2 * 2 * tail / 2 - PI2_3) < 1e-5  # oracle sanity
    val = l1_norm(wall_potential(), 1e-10)
    assert val == pytest.approx(PI2_3, abs=1e-8)


def test_l1_nonintegrable_log_names_tail():
    with pytest.raises(NonIntegrableError) as err:
        l1_norm(log_potential())
    assert err.value.end == "tail"


def test_l1_nonintegrable_riesz_ends():
    with pytest.raises(NonIntegrableError) as err:
        l1_norm(riesz_potential(0.5))
    assert err.value.end == "tail"
    with pytest.raises(NonIntegrableError) as err:
        l1_norm(riesz_potential(2.0))
    assert err.value.end == "origin"


def test_l1_custom_endpoint_singularity_and_exponential_tail():
    # |x|^-1/2 e^-|x| integrates to 2 Gamma(1/2) = 2 sqrt(pi) over R
    pot = custom_potential([lambda x: x ** -0.5 * np.exp(-x)], name="gamma",
                           l1_integrable=True, tail_class="exponential")
    assert abs(l1_norm(pot, 1e-10) - 2.0 * math.sqrt(math.pi)) <= 1e-10


def test_l1_custom_unit_bump():
    # normalized smooth bump of unit mass
    def bump(x):
        return np.where(np.abs(x) < 1.0, 15.0 / 16.0 * (1 - x ** 2) ** 2, 0.0)
    pot = custom_potential([bump], name="bump", l1_integrable=True,
                           tail_class="exponential")
    assert l1_norm(pot, 1e-8) == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# lattice series
# ---------------------------------------------------------------------------

def test_lattice_series_wall_far():
    # exponential tails: the first term dominates at x = 10
    pot = wall_potential()
    val = lattice_series(pot, 10.0, tol=1e-10)
    assert val == pytest.approx(pot.deriv(10.0, 2), abs=1e-10)


def test_lattice_series_even():
    pot = wall_potential()
    assert lattice_series(pot, -2.3) == pytest.approx(lattice_series(pot, 2.3),
                                                      rel=1e-14)


def test_lattice_series_compact_support():
    def d2(x):
        return np.where((x > 0) & (x < 2.0), np.sin(np.pi * x / 2.0) ** 2, 0.0)
    pot = custom_potential(
        [lambda x: np.zeros_like(x), lambda x: np.zeros_like(x), d2],
        name="compact", monotone_derivative_magnitudes=False)
    assert lattice_series(pot, 3.0, tol=1e-12) == 0.0


def test_lattice_series_truncation_self_consistent():
    pot = wall_potential()
    a = lattice_series(pot, 0.05, tol=1e-9)
    b = lattice_series(pot, 0.05, tol=1e-12)  # forces a larger cutoff
    assert abs(a - b) < 1e-9


def test_lattice_series_diverges_for_riesz():
    with pytest.raises(ConvergenceError):
        lattice_series(riesz_potential(0.5), 1.0, tol=1e-10)


def test_lattice_series_reports_a_stuck_tail_bound(monkeypatch):
    # the wall's series at x = 0.05 needs far more than 8 terms for 1e-9
    monkeypatch.setattr(potentials, "LATTICE_TERMS_MAX", 8)
    with pytest.raises(ConvergenceError, match="stuck above tol=1e-09 at K=16"):
        lattice_series(wall_potential(), 0.05, tol=1e-9)


# ---------------------------------------------------------------------------
# mobility
# ---------------------------------------------------------------------------

def test_mobility_m3_zero():
    assert mobility(wall_potential(), ScalingRegime(m=3), 0.0) == 0.0


def test_mobility_m2_wall():
    val = mobility(wall_potential(), ScalingRegime(m=2), -2.0, tol=1e-8)
    assert val == pytest.approx(2 * PI2_3, abs=1e-6)


def test_mobility_m1_unsupported():
    with pytest.raises(ValueError):
        mobility(wall_potential(), ScalingRegime(m=1), 1.0)


def test_mobility_m3_linear_bound_near_zero():
    # f3(y) <= (1/y^2) V''(1/y) + y int_{1/y}^inf (z + 1/y)^2 V''(z) dz <= C y
    from scipy.integrate import quad
    pot = wall_potential()
    reg = ScalingRegime(m=3, beta=1.0)
    ys = np.array([0.02, 0.05, 0.1, 0.2, 0.5])
    vals = np.array([mobility(pot, reg, float(y), 1e-12) for y in ys])
    assert np.all(vals >= 0.0)
    bounds = []
    for y in ys:
        x = 1.0 / y
        tail, _ = quad(lambda z: (z + x) ** 2 * pot.deriv(z, 2), x, x + 40.0,
                       limit=200)
        bounds.append(pot.deriv(x, 2) / y ** 2 + tail / y ** 2 / x)
    bounds = np.array(bounds)
    assert np.all(vals <= bounds * (1 + 1e-9))
    c_fit = float(np.max(bounds / ys))
    assert np.all(vals <= c_fit * ys)


def test_mobility_m3_local_lipschitz():
    pot = wall_potential()
    reg = ScalingRegime(m=3, beta=1.0)
    ys = np.linspace(-2.0, 2.0, 41)
    vals = np.array([mobility(pot, reg, float(y), 1e-9) for y in ys])
    q_coarse = np.abs(np.diff(vals) / np.diff(ys))
    lip = float(np.max(q_coarse))
    yf = np.linspace(-2.0, 2.0, 161)
    vf = np.array([mobility(pot, reg, float(y), 1e-9) for y in yf])
    q_fine = np.abs(np.diff(vf) / np.diff(yf))
    assert np.max(q_fine) <= 1.10 * lip


def test_mobility_m3_even():
    pot = wall_potential()
    reg = ScalingRegime(m=3, beta=1.3)
    assert mobility(pot, reg, 0.4) == pytest.approx(mobility(pot, reg, -0.4),
                                                    rel=1e-12)


# ---------------------------------------------------------------------------
# sign ledger and the dipole monotonicity lemma
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pot", [log_potential(), wall_potential(),
                                 riesz_potential(0.5), riesz_potential(-0.5)])
def test_sign_ledger_all_alphas(pot):
    xs = np.geomspace(1e-4, 50.0, 200)
    for alpha in (0.5, 1.0, 10.0):
        f = -rescaled_derivative(pot, alpha, xs, 1)
        fp = -rescaled_derivative(pot, alpha, xs, 2)
        fpp = -rescaled_derivative(pot, alpha, xs, 3)
        assert np.all(f >= 0)
        assert np.all(fp <= 0)
        assert np.all(fpp >= 0)


@pytest.mark.parametrize("pot", [log_potential(), wall_potential(),
                                 riesz_potential(1.5)])
def test_dipole_difference_nondecreasing(pot):
    # x -> f(x + gamma) - f(x) nondecreasing on (0, inf)
    xs = np.geomspace(1e-3, 30.0, 400)
    for gamma in (0.1, 1.0):
        f = lambda x: -pot.deriv(x, 1)
        diff = f(xs + gamma) - f(xs)
        assert np.all(np.diff(diff) >= -1e-12 * np.maximum(np.abs(diff[:-1]), 1.0))


@given(st_h.floats(0.01, 3.0), st_h.sampled_from(["log", "wall", "riesz"]))
@settings(max_examples=60, deadline=None)
def test_dipole_difference_nondecreasing_property(gamma, kind):
    pot = {"log": log_potential(), "wall": wall_potential(),
           "riesz": riesz_potential(0.7)}[kind]
    xs = np.geomspace(1e-3, 20.0, 160)
    f = lambda x: -pot.deriv(x, 1)
    diff = f(xs + gamma) - f(xs)
    assert np.all(np.diff(diff) >= -1e-11 * np.maximum(np.abs(diff[:-1]), 1.0))


@given(st_h.floats(0.1, 8.0), st_h.floats(0.05, 20.0),
       st_h.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_rescale_chain_rule_property(alpha, x, order):
    pot = wall_potential()
    direct = rescaled_derivative(pot, alpha, x, order)
    assert direct == pytest.approx(
        alpha ** (order + 1) * pot.deriv(alpha * x, order), rel=1e-14)
    # oddness/evenness of the rescaled derivative
    mirrored = rescaled_derivative(pot, alpha, -x, order)
    assert mirrored == pytest.approx((-1.0) ** order * direct, rel=1e-13)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_audit_wall_hj3_all_pass():
    rep = audit_assumptions(wall_potential(), "hj3")
    assert rep.passed, rep.to_json()


def test_audit_riesz_half_hj1():
    rep = audit_assumptions(riesz_potential(0.5), "hj1")
    assert rep.passed, rep.to_json()
    assert rep.fitted_exponent == pytest.approx(0.5, abs=0.02)


def test_audit_riesz_two_fails_on_x2vpp():
    rep = audit_assumptions(riesz_potential(2.0), "hj1")
    assert not rep.passed
    assert rep.item("x2_Vpp_L1_origin").status == "fail"


def test_audit_well_posedness_wall():
    rep = audit_assumptions(wall_potential(), "well-posedness")
    assert rep.passed
    assert rep.item("singularity_lower_bound").status == "pass"


@pytest.mark.parametrize("profile, order", [
    ("well-posedness", None), ("hj1", 3), ("hj2", 3), ("hj3", 4)])
def test_audit_reports_missing_orders_without_raising(profile, order):
    # the wall's derivatives of orders 0..2 only: every hj profile needs
    # order 3 or 4 and must report it; well-posedness needs none above 2
    pot = custom_potential(wall_potential().derivs[:3], l1_integrable=True,
                           tail_class="exponential",
                           monotone_derivative_magnitudes=True)
    rep = audit_assumptions(pot, profile)
    if order is None:
        assert rep.passed, rep.to_json()
    else:
        assert not rep.passed
        assert rep.item(f"deriv_order_{order}").status == "fail"


def test_audit_tail_ledger_across_sign_changes():
    # V = (2 - x) e^-x: each |V^(k)| has a kink at x = k + 2, inside the
    # decade (1, 10), which the tanh-sinh rule crosses only by halving it;
    # the tail of |V| over (1, inf) is 2 e^-2
    e = np.exp
    pot = custom_potential([lambda x: (2 - x) * e(-x), lambda x: (x - 3) * e(-x),
                            lambda x: (4 - x) * e(-x), lambda x: (x - 5) * e(-x)],
                           l1_integrable=True, tail_class="exponential",
                           monotone_derivative_magnitudes=True)
    rep = audit_assumptions(pot, "hj3")
    for k in range(4):
        assert rep.item(f"tail_W31_order_{k}").status == "pass", rep.to_json()
    assert rep.item("x3_V3_L1_tail").status == "pass"
    estimate = rep.item("tail_W31_order_0").data["estimate"]
    assert abs(estimate - 2.0 * math.exp(-2.0)) <= 1e-8


def test_audit_report_serializes():
    import json
    rep = audit_assumptions(log_potential(), "well-posedness")
    parsed = json.loads(rep.to_json())
    assert {"item", "status", "data"} <= set(parsed["items"][0])


# ---------------------------------------------------------------------------
# scaling regimes and external fields
# ---------------------------------------------------------------------------

def test_regime_alpha_of():
    assert ScalingRegime(m=2).alpha_of(10_000) == pytest.approx(100.0)
    assert ScalingRegime(m=3, beta=2.0).alpha_of(50) == pytest.approx(100.0)
    assert ScalingRegime(m=1, alpha=3.0).alpha_of(999) == 3.0


def test_external_field_lipschitz():
    fld = make_field({"kind": "harmonic", "k": 2.0})
    assert fld.check_lipschitz()
    bad = ExternalField(u=lambda x: np.asarray(x) ** 2,
                        uprime=lambda x: 2.0 * np.asarray(x, dtype=float),
                        lipschitz_bound_uprime=0.5)
    assert not bad.check_lipschitz()
