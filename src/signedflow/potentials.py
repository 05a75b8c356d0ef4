"""Interaction potentials, scaling regimes and assumption audits.

An interaction potential V is even on R \\ {0} and convex on (0, inf).  The
built-in families are

    log     V(x) = -log|x|
    riesz   V(x) = -|x|^-a (-1 < a < 0),  |x|^-a (a > 0)
    wall    V(x) = x*coth(x) - log|2 sinh(x)|

plus user-supplied ``custom`` potentials given by derivative evaluators on
(0, inf).  Evaluation at x < 0 follows from evenness: even-order derivatives
are even, odd-order derivatives are odd.

The pair force is f = -V', the external force g = -U'.  The rescaled family
V_alpha(x) = alpha * V(alpha * x) conserves the integral of V.

The wall derivatives have one form each, in s = sinh(x), k = coth(x) and
c = 1/s:

    V'    = -x / s / s
    V''   = ((2xk - 1) c) c
    V'''  = ((4(1 - xk)k - 2(x c) c) c) c
    V'''' = ((4 - 8xk - 16k^2 + 16xk^3) c) c + (((8xk - 2) c) c c) c

evaluated at x clamped to 400, beyond which each is below the smallest
subnormal double (so they return exactly 0 there) and past which np.sinh
leaves its fast path.  V' equals -1/x to double precision down to where
that overflows.

Fixed numerics are module constants: check_lipschitz samples LIPSCHITZ_GRID
and allows the bound times LIPSCHITZ_SLACK, lattice_series sums at most
LATTICE_TERMS_MAX terms, and the audits' grids and thresholds are the
constants from AUDIT_GRID on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, NonIntegrableError, UnsupportedOrderError

__all__ = [
    "Potential",
    "ScalingRegime",
    "ExternalField",
    "ComplianceItem",
    "ComplianceReport",
    "log_potential",
    "riesz_potential",
    "wall_potential",
    "power_law_force_potential",
    "custom_potential",
    "make_potential",
    "rescaled_derivative",
    "l1_norm",
    "lattice_series",
    "mobility",
    "audit_assumptions",
    "AUDIT_PROFILES",
]


# ---------------------------------------------------------------------------
# Potential families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Even interaction potential with derivative evaluators on (0, inf).

    ``derivs[k]`` evaluates the k-th derivative for x > 0 (vectorized).
    ``singularity_exponent`` is the declared a with |V'(x)| ~ x^(-1-a) near 0,
    or None when unknown.  ``monotone_derivative_magnitudes`` declares that
    |V^(k)| is nonincreasing on (0, inf), in which case the decreasing
    envelope sup_{y>x} |V^(k)(y)| equals |V^(k)(x)|.
    """

    name: str
    derivs: tuple
    singularity_exponent: float | None = None
    l1_integrable: bool = False
    nonintegrable_end: str | None = None  # which end fails when not L1
    tail_class: str = "power"             # "exponential" | "power" | "log"
    monotone_derivative_magnitudes: bool = True
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def max_order(self) -> int:
        return len(self.derivs) - 1

    def deriv(self, x, order: int):
        """V^(order)(x) for x != 0, extended from (0, inf) by evenness."""
        if order < 0 or order > self.max_order:
            raise UnsupportedOrderError(
                f"potential '{self.name}' supports derivative orders "
                f"0..{self.max_order}, got {order}")
        x = np.asarray(x, dtype=float)
        if np.any(x == 0.0):
            raise ValueError("potential evaluated at x = 0")
        val = np.asarray(self.derivs[order](np.abs(x)), dtype=float)
        if order % 2 == 1:
            val = val * np.sign(x)
        if val.ndim == 0:
            return float(val)
        return val

    def __call__(self, x):
        return self.deriv(x, 0)

    def force(self, x, alpha: float = 1.0):
        """Pair force f(x) = -V_alpha'(x) = -alpha^2 V'(alpha x); odd in x."""
        return -rescaled_derivative(self, alpha, x, 1)

    def envelope(self, x, order: int):
        """Decreasing envelope sup_{y > x} |V^(order)(y)| for x > 0."""
        x = np.asarray(x, dtype=float)
        if self.monotone_derivative_magnitudes:
            return np.abs(self.deriv(x, order))
        # coarse numeric sup on a log grid from x outward
        def one(xi):
            ys = np.geomspace(xi, max(100.0 * xi, 1e3), 4096)
            return float(np.max(np.abs(self.deriv(ys, order))))
        if x.ndim == 0:
            return one(float(x))
        return np.array([one(xi) for xi in x])


def _log_derivs(c):
    """Derivatives of c V with V(x) = -log x, orders 0..4."""
    return (
        lambda x: -c * np.log(x),
        lambda x: -c / x,
        lambda x: c / x ** 2,
        lambda x: -2.0 * c / x ** 3,
        lambda x: 6.0 * c / x ** 4,
    )


def _power_derivs(a, scale):
    """Derivatives of scale x^-a, orders 0..4, each coeff * x^(-a-k)."""
    def make(k):
        coeff = scale * math.prod(-a - j for j in range(k))
        return lambda x, c=coeff, p=-a - k: c * x ** p

    return tuple(make(k) for k in range(5))


def log_potential() -> Potential:
    """V(x) = -log|x|: Coulomb-type force f(x) = 1/x."""
    return Potential(
        name="log",
        derivs=_log_derivs(1.0),
        singularity_exponent=0.0,
        l1_integrable=False,
        nonintegrable_end="tail",
        tail_class="log",
    )


def riesz_potential(a: float) -> Potential:
    """Extended Riesz potential with exponent a in (-1, inf), a != 0.

    V(x) = -|x|^-a for a < 0 and |x|^-a for a > 0, so that the force
    -V'(x) = |a| sign(x) |x|^(-1-a) is attractive between opposite signs.
    """
    if a <= -1:
        raise ValueError("riesz exponent must satisfy a > -1")
    if a == 0:
        return log_potential()
    return Potential(
        name=f"riesz(a={a:g})",
        derivs=_power_derivs(a, -1.0 if a < 0 else 1.0),
        singularity_exponent=a,
        l1_integrable=False,
        nonintegrable_end="origin" if a >= 1 else "tail",
        tail_class="power",
    )


def _wall_derivs():
    # Orders 1-4 take x clamped at X_MAX, a numerical constant: beyond 400
    # each of them is below the smallest subnormal double, so the clamp
    # returns exactly 0 there, and it keeps np.sinh on its fast path (a few
    # ns per element up to 600, 10-20 times more at 700; numpy 2.4 on an
    # AVX-512 x86-64).  The factors of c = 1/sinh(x) are applied one at a
    # time, as c * c underflows for x in (350, 400) before the value does.
    X_MAX = 400.0

    def v0(x):
        # 2x e^-2x/(1 - e^-2x) - log(1 - e^-2x): cancellation-free at all x
        # (expm1 keeps 1 - u exact near 0, where the log takes it directly;
        # log1p keeps the log term for small u).  Each log skips the other's
        # entries, so log1p never sees u = 1
        x = np.asarray(x, dtype=float)
        u = np.exp(-2.0 * x)
        one_minus_u = -np.expm1(-2.0 * x)
        near = u >= 0.5
        log_term = np.log(one_minus_u, where=near, out=np.empty_like(x))
        np.log1p(-u, where=~near, out=log_term)
        return 2.0 * x * u / one_minus_u - log_term

    def v1(x):
        x = np.minimum(np.asarray(x, dtype=float), X_MAX)
        s = np.sinh(x)
        return -x / s / s

    def xkc(x):
        # clamped x, k = coth(x) and c = 1/sinh(x)
        x = np.minimum(np.asarray(x, dtype=float), X_MAX)
        return x, 1.0 / np.tanh(x), 1.0 / np.sinh(x)

    def v2(x):
        x, k, c = xkc(x)
        return ((2.0 * x * k - 1.0) * c) * c

    def v3(x):
        x, k, c = xkc(x)
        return ((4.0 * (1.0 - x * k) * k - 2.0 * (x * c) * c) * c) * c

    def v4(x):
        x, k, c = xkc(x)
        xk, kk = x * k, k * k
        return (((4.0 - 8.0 * xk - 16.0 * kk + 16.0 * xk * kk) * c) * c
                + (((8.0 * xk - 2.0) * c) * c * c) * c)

    return (v0, v1, v2, v3, v4)


def wall_potential() -> Potential:
    """Dislocation-wall potential: log singularity, exponential tails."""
    return Potential(
        name="wall",
        derivs=_wall_derivs(),
        singularity_exponent=0.0,
        l1_integrable=True,
        tail_class="exponential",
    )


def power_law_force_potential(a: float) -> Potential:
    """Potential whose force is f(x) = sign(x) |x|^(-1-a) / (2 + a).

    Normalized so that for an opposite pair with gap d the quantity d^(2+a)
    decreases at unit rate, giving collision time d0^(2+a).
    """
    if a <= -1:
        raise ValueError("exponent must satisfy a > -1")
    # V(x) = x^-a / (a (2+a)) (a log for a = 0); V' = -x^(-1-a)/(2+a)
    c = 1.0 / (2.0 + a)
    derivs = _log_derivs(c) if a == 0 else _power_derivs(a, c / a)
    return Potential(
        name=f"power_law_force(a={a:g})",
        derivs=derivs,
        singularity_exponent=a,
        l1_integrable=False,
        nonintegrable_end="origin" if a >= 1 else "tail",
        tail_class="power" if a != 0 else "log",
    )


def custom_potential(derivs: Sequence[Callable], *, name: str = "custom",
                     singularity_exponent: float | None = None,
                     l1_integrable: bool = False,
                     nonintegrable_end: str | None = None,
                     tail_class: str = "power",
                     monotone_derivative_magnitudes: bool = False) -> Potential:
    """Wrap user-supplied derivative evaluators (orders 0..len-1 on x > 0)."""
    return Potential(
        name=name,
        derivs=tuple(derivs),
        singularity_exponent=singularity_exponent,
        l1_integrable=l1_integrable,
        nonintegrable_end=nonintegrable_end,
        tail_class=tail_class,
        monotone_derivative_magnitudes=monotone_derivative_magnitudes,
    )


def make_potential(spec: dict) -> Potential:
    """Build a potential from a config mapping {"kind": ..., "a": ...}."""
    kind = spec["kind"].lower()
    if kind == "log":
        return log_potential()
    if kind == "wall":
        return wall_potential()
    if kind == "riesz":
        return riesz_potential(float(spec["a"]))
    if kind == "power_law_force":
        return power_law_force_potential(float(spec["a"]))
    raise ValueError(f"unknown potential kind '{spec['kind']}'")


# ---------------------------------------------------------------------------
# Scaling regimes and external fields
# ---------------------------------------------------------------------------

LIPSCHITZ_GRID = (-10.0, 10.0, 2001)    # check_lipschitz's samples of U'
LIPSCHITZ_SLACK = 1.01
LATTICE_TERMS_MAX = 2 ** 20     # lattice_series sums at most this many terms


@dataclass(frozen=True)
class ScalingRegime:
    """How the rescaling parameter grows with the particle count.

    m = 1: alpha_n = alpha (bounded; nonlocal limit)
    m = 2: alpha_n = sqrt(n), so 1 << alpha_n << n (local, mobility
           ||V||_L1 |y|)
    m = 3: alpha_n = beta n (local, lattice-series mobility)
    """

    m: int
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.m not in (1, 2, 3):
            raise ValueError("m must be 1, 2 or 3")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")

    def alpha_of(self, n: int) -> float:
        if self.m == 1:
            return self.alpha
        if self.m == 2:
            return math.sqrt(n)
        return self.beta * n

    def alpha_of_eps(self, eps: float) -> float:
        """Analogue of alpha_n with eps = 1/n, for any eps > 0.

        For m = 1 any rule converging to alpha qualifies; sqrt(eps) keeps
        the smooth drift term dominant over the step-quantization residue,
        so resolution sweeps shrink monotonically.
        """
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be finite and positive, got {eps!r}")
        if self.m == 1:
            return self.alpha * (1.0 + math.sqrt(eps))
        if self.m == 2:
            return eps ** -0.5
        return self.beta / eps


@dataclass(frozen=True)
class ExternalField:
    """External potential U with Lipschitz-continuous U'; force is g = -U'."""

    u: Callable
    uprime: Callable
    lipschitz_bound_uprime: float = 0.0
    name: str = "field"

    def g(self, x):
        return -np.asarray(self.uprime(x), dtype=float)

    def check_lipschitz(self) -> bool:
        xs = np.linspace(*LIPSCHITZ_GRID)
        up = np.asarray(self.uprime(xs), dtype=float)
        slopes = np.abs(np.diff(up) / np.diff(xs))
        return bool(np.all(slopes <= self.lipschitz_bound_uprime * LIPSCHITZ_SLACK
                           + 1e-15))


def zero_field() -> ExternalField:
    return ExternalField(u=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                         uprime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                         lipschitz_bound_uprime=0.0, name="zero")


def make_field(spec: dict | None) -> ExternalField:
    if spec is None or spec.get("kind", "none") == "none":
        return zero_field()
    kind = spec["kind"]
    if kind == "tilt":  # U = c x, constant force -c
        c = float(spec["c"])
        return ExternalField(u=lambda x, c=c: c * np.asarray(x, dtype=float),
                             uprime=lambda x, c=c: c * np.ones_like(np.asarray(x, dtype=float)),
                             lipschitz_bound_uprime=0.0, name=f"tilt(c={c:g})")
    if kind == "harmonic":  # U = k x^2 / 2
        k = float(spec["k"])
        return ExternalField(u=lambda x, k=k: 0.5 * k * np.asarray(x, dtype=float) ** 2,
                             uprime=lambda x, k=k: k * np.asarray(x, dtype=float),
                             lipschitz_bound_uprime=abs(k), name=f"harmonic(k={k:g})")
    raise ValueError(f"unknown field kind '{kind}'")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def rescaled_derivative(pot: Potential, alpha: float, x, order: int):
    """d^order/dx^order of alpha V(alpha x) = alpha^(order+1) V^(order)(alpha x)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return alpha ** (order + 1) * pot.deriv(np.asarray(x, dtype=float) * alpha, order)


def l1_norm(pot: Potential, tol: float = 1e-10) -> float:
    """Integral of |V| over R, split at |x| = 1.

    The origin piece uses tanh-sinh quadrature (handles integrable
    singularities); the tail uses the substitution x = e^u.
    """
    key = ("l1", tol)
    if key in pot._cache:
        return pot._cache[key]
    if not pot.l1_integrable:
        end = pot.nonintegrable_end or _probe_nonintegrable_end(pot)
        raise NonIntegrableError(
            f"potential '{pot.name}' is not integrable on R ({end} diverges)", end)

    from scipy import integrate

    res = integrate.tanhsinh(lambda x: np.abs(pot.deriv(x, 0)), 0.0, 1.0,
                             atol=tol / 8, rtol=0.0)
    if not res.success:
        raise ConvergenceError("tanh-sinh quadrature failed on (0, 1)")
    origin = float(res.integral)
    # tail via x = e^u; extend u until the integrand is below tolerance
    u_max = 4.0
    while abs(pot.deriv(math.exp(u_max), 0)) * math.exp(u_max) > tol / 100:
        u_max += 4.0
        if u_max > 64.0:
            raise NonIntegrableError(
                f"tail of |V| for '{pot.name}' decays too slowly", "tail")
    tail, terr = integrate.quad(
        lambda u: abs(pot.deriv(math.exp(u), 0)) * math.exp(u),
        0.0, u_max, epsabs=tol / 8, epsrel=0.0, limit=400)
    if not math.isfinite(tail) or terr > tol:
        raise NonIntegrableError(
            f"tail quadrature of |V| for '{pot.name}' did not converge", "tail")
    val = 2.0 * (origin + tail)
    pot._cache[key] = val
    return val


def _probe_nonintegrable_end(pot: Potential) -> str:
    # crude: compare growth of the partial integrals at both ends
    xs = np.geomspace(1e-8, 1e-2, 7)
    near = np.abs(pot.deriv(xs, 0)) * xs
    if np.any(near[0] > 10 * near[-1]):
        return "origin"
    return "tail"


def lattice_series(pot: Potential, x: float, tol: float = 1e-10) -> float:
    """Sum over k >= 1 of k^2 V''(k x), truncated with a certified tail bound.

    The tail beyond K is bounded by (1/|x|) * int_{K|x|}^inf (z+|x|)^2 E2(z) dz
    with E2 the decreasing envelope of |V''|; truncation stops once this
    bound drops below tol, at K <= LATTICE_TERMS_MAX.
    """
    from scipy import integrate

    if x == 0:
        raise ValueError("lattice series undefined at x = 0")
    ax = abs(x)

    def integrand(z):
        return (z + ax) ** 2 * float(pot.envelope(z, 2))

    # integrability probe: z * integrand must decay along the tail
    probes = np.array([integrand(ax * s) * ax * s for s in (8.0, 8e2, 8e4)])
    if not (probes[-1] < 0.5 * probes[0] or probes[-1] < tol / 100):
        raise ConvergenceError(
            f"tail of the lattice series diverges for '{pot.name}'")

    def tail_bound(k):
        lo = k * ax
        total = 0.0
        hi = lo * 10.0
        while True:
            seg, _ = integrate.quad(integrand, lo, hi, epsabs=tol / 64,
                                    epsrel=1e-10, limit=200)
            total += seg
            if hi * integrand(hi) < tol / 100 * ax:
                break
            lo, hi = hi, hi * 10.0
            if hi > 1e150:
                raise ConvergenceError(
                    f"tail of the lattice series diverges for '{pot.name}'")
        return total / ax

    k = 8
    while True:
        b = tail_bound(k)
        if b < tol:
            break
        k *= 2
        if k > LATTICE_TERMS_MAX:
            raise ConvergenceError(
                f"lattice series tail bound stuck above tol={tol:g} at K={k}")
    ks = np.arange(1, k + 1, dtype=float)
    return float(np.sum(ks ** 2 * pot.deriv(ks * ax, 2)))


def mobility(pot: Potential, regime: ScalingRegime, y: float,
             tol: float = 1e-10) -> float:
    """Mobility coefficient of the local limit equations.

    m = 2:  ||V||_L1 |y|
    m = 3:  (beta^3 / y^2) * sum_k k^2 V''(k beta / y), and 0 at y = 0.
    """
    if regime.m == 1:
        raise ValueError("no local mobility in the m=1 (nonlocal) regime")
    if regime.m == 2:
        return l1_norm(pot, tol) * abs(y)
    if y == 0.0:
        return 0.0
    beta = regime.beta
    # V'' is even, so the series depends on |y| only
    series_tol = tol * y ** 2 / beta ** 3
    s = lattice_series(pot, beta / abs(y), tol=max(series_tol, 1e-300))
    return beta ** 3 / y ** 2 * s


# ---------------------------------------------------------------------------
# Assumption audits
# ---------------------------------------------------------------------------

@dataclass
class ComplianceItem:
    item: str
    status: str            # "pass" | "fail" | "evidence"
    data: dict

    def to_dict(self):
        return {"item": self.item, "status": self.status, "data": self.data}


@dataclass
class ComplianceReport:
    potential: str
    profile: str
    items: list

    @property
    def passed(self) -> bool:
        return all(it.status != "fail" for it in self.items)

    def item(self, name: str) -> ComplianceItem:
        for it in self.items:
            if it.item == name:
                return it
        raise KeyError(name)

    @property
    def fitted_exponent(self) -> float | None:
        try:
            return self.item("singularity_upper_bound").data.get("a_fit")
        except KeyError:
            return None

    def to_json(self, indent=2) -> str:
        return json.dumps({
            "potential": self.potential,
            "profile": self.profile,
            "passed": self.passed,
            "items": [it.to_dict() for it in self.items],
        }, indent=indent)


AUDIT_PROFILES = ("well-posedness", "hj1", "hj2", "hj3")


# Sampling grids and thresholds of the audits: the log grid of the sign
# checks (lo, hi, points) and the alphas it is scaled by, the window and the
# largest log residual of the singularity fit, and the decades summed by the
# origin and tail integrals
AUDIT_GRID = (1e-6, 1e2, 161)
SIGN_ALPHAS = (0.5, 1.0, 10.0)
FIT_WINDOW = (1e-6, 1e-2)
FIT_RESID_MAX = 0.3
ORIGIN_DECADES = 7
TAIL_DECADES = 5


def _fit_singularity(pot: Potential) -> dict:
    """Least squares of log f vs log x near the origin, f = -V'."""
    xs = np.geomspace(*FIT_WINDOW, 81)
    f = -pot.deriv(xs, 1)
    if np.any(f <= 0):
        return {"a_fit": None, "C_fit": None, "resid": None, "ok": False}
    slope, intercept = np.polyfit(np.log(xs), np.log(f), 1)
    resid = float(np.max(np.abs(np.log(f) - (slope * np.log(xs) + intercept))))
    return {"a_fit": float(-slope - 1.0), "C_fit": float(np.exp(intercept)),
            "resid": resid, "ok": resid < FIT_RESID_MAX}


def _converging_integral(fn, n_decades: int, end: str) -> dict:
    """Evidence that the integral of fn at ``end`` converges: partial
    integrals over (10^-k, 1) at the "origin" or over (1, 10^k) in the
    "tail", accumulated decade by decade so no mass is missed."""
    from scipy import integrate

    s = -1 if end == "origin" else 1
    partials = []
    total = 0.0
    for k in range(1, n_decades + 1):
        lo, hi = sorted((10.0 ** (s * (k - 1)), 10.0 ** (s * k)))
        total += integrate.quad(fn, lo, hi, limit=200)[0]
        partials.append(total)
    incs = np.abs(np.diff(partials))
    converged = bool(incs[-1] < 0.05 * (abs(partials[-1]) + 1e-30)
                     and (incs[-1] <= incs[0] or incs[-1] < 1e-12))
    return {"partials": [float(p) for p in partials],
            "estimate": float(partials[-1]), "converged": converged}


def _sign_items(pot: Potential) -> list:
    """f >= 0, f' <= 0, f'' >= 0 for f = -V_alpha' on a log grid."""
    items = []
    grid = np.geomspace(*AUDIT_GRID)
    checks = [("force_nonnegative", 1, -1.0), ("force_nonincreasing", 2, 1.0)]
    if pot.max_order >= 3:
        checks.append(("force_convex", 3, -1.0))
    for name, order, sgn in checks:
        worst = 0.0
        ok = True
        for al in SIGN_ALPHAS:
            vals = sgn * rescaled_derivative(pot, al, grid, order)
            worst = min(worst, float(np.min(vals)))
            # tolerate roundoff at the level of the values themselves
            scale = np.maximum(np.abs(vals), 1e-300)
            ok = ok and bool(np.all(vals >= -1e-12 * scale))
        items.append(ComplianceItem(name, "pass" if ok else "fail",
                                    {"min_signed_value": worst,
                                     "alphas": list(SIGN_ALPHAS)}))
    return items


def _evenness_item(pot: Potential) -> ComplianceItem:
    xs = np.geomspace(1e-3, 10.0, 25)
    diff = np.abs(pot.deriv(xs, 0) - pot.deriv(-xs, 0))
    ok = bool(np.all(diff <= 1e-12 * np.maximum(np.abs(pot.deriv(xs, 0)), 1.0)))
    return ComplianceItem("even", "pass" if ok else "fail",
                          {"max_abs_diff": float(np.max(diff))})


def _order_item(pot: Potential, order: int) -> ComplianceItem:
    ok = pot.max_order >= order
    return ComplianceItem(f"deriv_order_{order}", "pass" if ok else "fail",
                          {"max_order": pot.max_order})


def audit_assumptions(pot: Potential, profile: str) -> ComplianceReport:
    """Sampling/quadrature evidence for the assumption ledger of ``profile``.

    Failures are report entries, never exceptions; grids and thresholds are
    the module constants above.  Profiles:

      well-posedness  sign conditions on f = -V', singularity lower and
                      upper bounds
      hj1             order-3 smoothness, x^2 V'' and x^3 |V'''| integrable
                      at the origin
      hj2             L1 potential, order-3 smoothness, W^{3,1} tails,
                      x^3 |V'''| in L1(R), x^4 V''' -> 0 at 0
      hj3             order-4 smoothness, x^2 V'' integrable at 0, W^{3,1}
                      tails, x^3 |V'''| in L1(1, inf), sup bounds on
                      x^4 V''' and x^5 V''''
    """
    profile = profile.lower()
    if profile not in AUDIT_PROFILES:
        raise ValueError(f"unknown audit profile '{profile}'")
    items = [_evenness_item(pot)]
    items += _sign_items(pot)

    fit = _fit_singularity(pot)
    items.append(ComplianceItem(
        "singularity_upper_bound", "evidence" if fit["ok"] else "fail", fit))

    if profile == "well-posedness":
        # x f'(x) -> -inf as x -> 0, i.e. x V''(x) -> inf
        xs = np.geomspace(1e-8, 1e-2, 13)
        xv = xs * pot.deriv(xs, 2)
        grow = bool(xv[0] > 10.0 * xv[-1] and xv[0] > 1e2)
        items.append(ComplianceItem(
            "singularity_lower_bound", "pass" if grow else "fail",
            {"x_Vpp_at": {f"{x:.1e}": float(v) for x, v in zip(xs[::4], xv[::4])}}))
        return ComplianceReport(pot.name, profile, items)

    def converging_item(name, fn, n_decades, end):
        ev = _converging_integral(fn, n_decades, end)
        return ComplianceItem(name, "pass" if ev["converged"] else "fail", ev)

    def x3_v3(x):
        return x ** 3 * float(pot.envelope(x, 3))

    items.append(_order_item(pot, 4 if profile == "hj3" else 3))
    if profile == "hj2":
        try:
            v = l1_norm(pot, 1e-8)
            items.append(ComplianceItem("V_L1", "pass", {"l1_norm": v}))
        except (NonIntegrableError, ConvergenceError) as exc:
            items.append(ComplianceItem("V_L1", "fail", {"error": str(exc)}))
        if pot.max_order >= 3:
            xs = np.geomspace(1e-6, 1e-2, 9)
            x4v3 = xs ** 4 * np.abs(pot.deriv(xs, 3))
            items.append(ComplianceItem(
                "x4_V3_to_0_origin",
                "pass" if (x4v3[0] < 0.1 * max(x4v3[-1], 1e-12) or x4v3[0] < 1e-10) else "fail",
                {"values": [float(v) for v in x4v3[::4]]}))
    else:
        items.append(converging_item("x2_Vpp_L1_origin",
                                     lambda x: x ** 2 * pot.deriv(x, 2),
                                     ORIGIN_DECADES, "origin"))
    if profile != "hj3" and pot.max_order >= 3:
        items.append(converging_item("x3_V3_L1_origin", x3_v3,
                                     ORIGIN_DECADES, "origin"))
    if profile == "hj1":
        return ComplianceReport(pot.name, profile, items)

    # hj2 / hj3 share the tail ledger
    for k in range(0, min(pot.max_order, 3) + 1):
        items.append(converging_item(f"tail_W31_order_{k}",
                                     lambda x, k=k: abs(pot.deriv(x, k)),
                                     TAIL_DECADES, "tail"))
    if pot.max_order >= 3:
        items.append(converging_item("x3_V3_L1_tail", x3_v3,
                                     TAIL_DECADES, "tail"))

    if profile == "hj3":
        for k in (3, 4):
            if k > pot.max_order:
                continue
            xs = np.geomspace(1.0, 1e4, 41)
            vals = xs ** (k + 1) * np.abs(pot.deriv(xs, k))
            bounded = bool(np.max(vals) < np.inf and vals[-1] <= max(np.max(vals), 1e-12))
            items.append(ComplianceItem(
                f"sup_x{k + 1}_V{k}", "pass" if bounded else "fail",
                {"sup_on_grid": float(np.max(vals)), "at_x4": float(vals[-1])}))

    return ComplianceReport(pot.name, profile, items)
