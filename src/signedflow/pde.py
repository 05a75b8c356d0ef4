"""Monotone schemes for the integrated limit equations.

Local form (intermediate and lattice scalings):

    u_t = f_m(u_x) u_xx + U'(x) |u_x|,   f_m >= 0, f_m(0) = 0.

The diffusion is written in flux form u_t = (G(u_x))_x with G' = f_m, which
is pointwise identical to f_m(u_x) u_xx, and advanced by implicit Euler: each
step solves

    v_i - dt/dx (G(Dv_i) - G(Dv_{i-1})) = u_i + dt T(u)_i,
    Dv_i = (v_{i+1} - v_i) / dx,

by Newton's method.  The Jacobian is tridiagonal: its off-diagonal entries
-dt f_m / dx^2 are <= 0 and its diagonal, 1 minus their sum, dominates them.
It is an M-matrix, so the step is monotone at any dt, and the density over
an interval changes only by the endpoint fluxes.  The transport
T(u) = U'|u_x| stays explicit (Godunov upwinding under dt <= dx / max|U'|),
which keeps the whole step monotone.  Accuracy, not stability, bounds the
step: the profile moves at most one cell per step,

    dt <= dx max|Du| / max|(G(Du_i) - G(Du_{i-1})) / dx|.

Nonlocal form (bounded scaling):

    u_t = (M[u] + U'(x)) |u_x|,

where M[u](x) is the compensated kernel integral with the local quadratic
interpolant of u in the ball slot and the raw grid values outside.  The ball
slot contributes (i2/2) u_xx |u_x|, i2 the kernel's second moment: the m = 2
diffusion with mobility f = (i2/2)|p|, so it takes the same implicit step.
Only the far field far[u] + U' is an explicit velocity, upwinded on its sign
(Godunov) under dt <= dx / max|far[u] + U'|.  Both solvers therefore take
one kind of step, an explicit monotone transport followed by an M-matrix
solve: constants are preserved and the discrete maximum principle holds at
any dt within the transport bound, however large the ball term's slopes.

The solvers' fixed numerics are module constants: MOBILITY_TOL, the
tolerance of the local mobility (||V||_L1 at m = 2, the lattice tables at
m = 3), CFL_SAFETY, the fraction of the step bounds a step takes,
NEWTON_MAX_ITERS and NEWTON_RTOL of the implicit step, and VELOCITY_GUARD
on the explicit velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import _pop_due, _snapshot_queue, _step_floor
from .errors import ConvergenceError, DataError
from .potentials import (ExternalField, Potential, ScalingRegime, l1_norm,
                         mobility, rescaled_derivative)
from .hamiltonians import kernel_second_moment

__all__ = ["GridFunction", "solve_local", "solve_nonlocal",
           "density_from_primitive", "MobilityTable"]

MOBILITY_TOL = 1e-8     # tolerance of the local solver's mobility
CFL_SAFETY = 0.45       # a step takes this fraction of the move and CFL bounds
NEWTON_MAX_ITERS = 50
NEWTON_RTOL = 1e-12     # Newton stops once its update is below this * max|u|
VELOCITY_GUARD = 1e8    # an explicit velocity above this means a gradient blowup
STEP_LIMITS = ("move", "advection", "snapshot", "t_end")


@dataclass(frozen=True)
class GridFunction:
    """Uniform-grid function with constant far fields outside the grid."""

    x0: float
    dx: float
    values: np.ndarray
    far_left: float
    far_right: float

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=float).copy())
        scalars = (self.x0, self.dx, self.far_left, self.far_right)
        if not (all(map(math.isfinite, scalars))
                and bool(np.all(np.isfinite(self.values)))):
            raise DataError("x0, dx, values and far fields must be finite")
        if self.dx <= 0:
            raise DataError("dx must be positive")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values,
                         left=self.far_left, right=self.far_right)

    def candidate_points(self, lo: float, hi: float) -> np.ndarray:
        xs = self.xs
        return xs[(xs >= lo) & (xs <= hi)]

    def check_farfield(self, tol: float = 1e-12) -> bool:
        return (abs(self.values[0] - self.far_left) <= tol
                and abs(self.values[-1] - self.far_right) <= tol)

    def to_csv(self) -> str:
        rows = ["x,u"]
        rows += [f"{x!r},{v!r}" for x, v in zip(self.xs, self.values)]
        return "\n".join(rows)


def density_from_primitive(u: GridFunction) -> GridFunction:
    """Central-difference derivative; one-sided at the endpoints.

    The trapezoid integral of the result recovers far_right - far_left up to
    O(dx^2).
    """
    v = u.values
    k = np.empty_like(v)
    k[1:-1] = (v[2:] - v[:-2]) / (2 * u.dx)
    k[0] = (v[1] - v[0]) / u.dx
    k[-1] = (v[-1] - v[-2]) / u.dx
    return GridFunction(u.x0, u.dx, k, 0.0, 0.0)


# ---------------------------------------------------------------------------
# mobility tables (flux form needs the antiderivative of f_m)
# ---------------------------------------------------------------------------

def _cumulative_trapezoid(y, x):
    """Trapezoid integrals of y from x[0] to each x, in the operation order
    of scipy's ``cumulative_trapezoid(y, x, initial=0)``."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


@dataclass
class MobilityTable:
    """Sampled mobility f_m and its antiderivative G on [-p_max, p_max].

    A table is a mobility: ``table(p)`` returns ``(f_of(p), g_of(p))``, the
    ``(f, G)`` pair that the implicit diffusion takes.  ``f_of`` interpolates
    f linearly and ``g_of`` is the exact integral of that interpolant,
    piecewise quadratic, so ``g_of' = f_of`` to rounding: Newton's method in
    ``solve_local`` stalls without it.  Beyond the table f holds its end
    value and G continues linearly.  ``build`` samples the even f_m, to
    MOBILITY_TOL, on the half line; p = 0 is a node, so an m = 2 table is
    exact for c|p|.
    """

    ps: np.ndarray
    f: np.ndarray
    g: np.ndarray

    @staticmethod
    def build(pot: Potential, regime: ScalingRegime, p_max: float,
              num: int = 2049) -> "MobilityTable":
        half = np.linspace(0.0, p_max, (num + 1) // 2)
        fh = np.array([mobility(pot, regime, float(p), MOBILITY_TOL)
                       for p in half])
        gh = _cumulative_trapezoid(fh, half)
        ps = np.concatenate([-half[::-1][:-1], half])
        f = np.concatenate([fh[::-1][:-1], fh])
        g = np.concatenate([-gh[::-1][:-1], gh])
        return MobilityTable(ps, f, g)

    def __call__(self, p):
        return self.f_of(p), self.g_of(p)

    def f_of(self, p):
        return np.interp(p, self.ps, self.f)

    def g_of(self, p):
        p = np.asarray(p, dtype=float)
        ps, f = self.ps, self.f
        q = np.clip(p, ps[0], ps[-1])
        k = np.clip(np.searchsorted(ps, q, side="right") - 1, 0, len(ps) - 2)
        s = q - ps[k]
        slope = (f[k + 1] - f[k]) / (ps[k + 1] - ps[k])
        return self.g[k] + s * (f[k] + 0.5 * s * slope) + (p - q) * self.f_of(q)

    @property
    def p_max(self) -> float:
        return float(self.ps[-1])


# ---------------------------------------------------------------------------
# time loop, shared step (explicit upwind transport + implicit flux form)
# and local solver
# ---------------------------------------------------------------------------

def _field_on_grid(field: ExternalField | None, u0: GridFunction) -> np.ndarray:
    """U' at the grid nodes, zero without a field."""
    if field is None:
        return np.zeros(u0.n)
    uprime = np.asarray(field.uprime(u0.xs), dtype=float)
    if not np.all(np.isfinite(uprime)):
        raise DataError(f"field {field.name!r}: U' is not finite on the grid")
    return uprime


def _upwind_transport(c, dm, dp):
    """Godunov flux for u_t = c |u_x| from one-sided differences dm, dp."""
    zero = np.zeros_like(dm)
    pos = np.maximum(np.maximum(-dm, dp), zero)   # information moves inward
    neg = np.maximum(np.maximum(dm, -dp), zero)   # slopes that erode extrema
    return np.where(c >= 0, c * pos, c * neg)


@dataclass
class SolveInfo:
    """What a solve did.

    ``limited_by`` counts the steps each bound set: the move bound of the
    implicit diffusion (``move``), the CFL bound of the explicit velocity,
    U' or far[u] + U' (``advection``), a snapshot time or ``t_end``.
    ``newton_iters`` counts the Newton iterations (one tridiagonal solve
    each) of the implicit steps of either solver.
    """

    steps: int = 0
    dt_min: float = math.inf
    max_principle_violation: float = 0.0
    newton_iters: int = 0
    limited_by: dict = dc_field(
        default_factory=lambda: dict.fromkeys(STEP_LIMITS, 0))
    snapshots: list = dc_field(default_factory=list)

    def summary(self) -> str:
        """Steps by limiting bound and Newton iterations, on one line."""
        why = ", ".join(f"{k} {v}" for k, v in self.limited_by.items() if v)
        steps = f"{self.steps} steps" + (f" ({why})" if why else "")
        return f"{steps}, {self.newton_iters} Newton iterations"


def _march(u0: GridFunction, t_end: float, t_eval, prepare):
    """Time loop of both solvers: explicit upwind transport, then implicit
    diffusion, from t = 0 to ``t_end``.

    ``prepare(u, d)``, with d the slopes of u, returns ``(mobility, vel)``
    for the step from u: the diffusion u_t = (G(u_x))_x, ``mobility(p)``
    returning ``(f, G)``, and the explicit velocity of u_t = vel |u_x|.  The
    step is CFL_SAFETY times the smaller of "the profile moves at most one
    cell" (``move``) and dx / max|vel| (``advection``), clipped to land on
    ``t_end`` and on each requested snapshot time, and kept above
    1e-16 max(1, |t|).  The times take ``simulate``'s contract: ``t_end``
    must be finite and not negative, and no request may be nan or after
    ``t_end``, or ValueError is raised before the first step; a request
    within 1e-12 max(1, |t|) of a reached time t is taken there, and one
    before 0 is the initial values.  A step that returns a non-finite value
    raises ConvergenceError.
    """
    dx = u0.dx
    u = u0.values.copy()
    info = SolveInfo()
    eval_queue = _snapshot_queue(0.0, t_end, t_eval)
    lo0, hi0 = float(np.min(u)), float(np.max(u))
    t = 0.0
    while True:
        for tv in _pop_due(eval_queue, t):
            info.snapshots.append((tv, u.copy()))
        if t >= t_end - 1e-300:
            break
        d = (u[1:] - u[:-1]) / dx
        mobility, vel = prepare(u, d)
        d_max = float(np.max(np.abs(d), initial=0.0))
        g = mobility(d)[1]
        rate = float(np.max(np.abs(g[1:] - g[:-1]), initial=0.0)) / dx
        dt_move = dx * d_max / rate if rate > 0 else math.inf
        vmax = float(np.max(np.abs(vel)))
        dt_adv = dx / vmax if vmax > 0 else math.inf
        dt_bound, why = min((dt_move, "move"), (dt_adv, "advection"))
        dt = CFL_SAFETY * dt_bound
        if t_end - t <= dt:
            dt, why = t_end - t, "t_end"
        if eval_queue and eval_queue[0] - t < dt:
            dt, why = eval_queue[0] - t, "snapshot"
        dt = max(dt, _step_floor(t))
        rhs = u[1:-1]
        if vmax > 0:
            rhs = rhs + dt * _upwind_transport(vel[1:-1], d[:-1], d[1:])
        u, iters = _implicit_diffusion(u, rhs, dt, dx, mobility)
        info.newton_iters += iters
        lo, hi = float(np.min(u)), float(np.max(u))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConvergenceError(f"non-finite value after the step at t = {t!r}")
        t += dt
        info.steps += 1
        info.limited_by[why] += 1
        info.dt_min = min(info.dt_min, dt)
        over = max(hi - hi0, lo0 - lo, 0.0)
        info.max_principle_violation = max(info.max_principle_violation, over)

    return GridFunction(u0.x0, u0.dx, u, u0.far_left, u0.far_right), info


def _implicit_diffusion(u, rhs, dt, dx, mobility):
    """Solve v_i - dt/dx (G(Dv_i) - G(Dv_{i-1})) = rhs_i on the interior nodes.

    The end values stay at u's.  ``mobility(p)`` returns ``(f, G)`` with
    G' = f >= 0.  Newton's method from v = u; returns (v, iterations).
    """
    from scipy.linalg.lapack import dgtsv

    v = u.copy()
    r = dt / dx
    tol = NEWTON_RTOL * float(np.max(np.abs(u)))
    for it in range(1, NEWTON_MAX_ITERS + 1):
        f, g = mobility((v[1:] - v[:-1]) / dx)
        w = (r / dx) * f
        off, diag = -w[1:-1], 1.0 + w[:-1] + w[1:]
        res = v[1:-1] - rhs - r * (g[1:] - g[:-1])
        if len(diag) < 2:   # dgtsv's wrapper rejects systems of order < 2
            step, info = res / diag, 0
        else:
            *_, step, info = dgtsv(off, diag, off.copy(), res, 1, 1, 1, 1)
        if info != 0:
            raise ConvergenceError(
                f"implicit step dt={dt!r}: singular Jacobian (dgtsv info {info})")
        v[1:-1] -= step
        if not float(np.max(np.abs(step), initial=0.0)) > tol:
            return v, it
    raise ConvergenceError(
        f"implicit step dt={dt!r}: Newton did not converge in "
        f"{NEWTON_MAX_ITERS} iterations")


def _abs_mobility(c: float):
    """f = c|p| and G = c p|p|/2 in closed form: no table to outgrow."""
    def mobility(p):
        f = c * np.abs(p)
        return f, 0.5 * f * p
    return mobility


def solve_local(u0: GridFunction, m: int, pot: Potential, beta: float,
                field: ExternalField | None, t_end: float, t_eval=None):
    """Advance u_t = f_m(u_x) u_xx + U'|u_x| to t_end (m = 2 or 3).

    Implicit Euler in the diffusion, explicit upwinding in the transport (see
    the module docstring).  Returns (GridFunction, SolveInfo);
    SolveInfo.snapshots holds (t, values) pairs at the times requested in
    ``t_eval``, in sorted order.  The times take ``simulate``'s contract
    (``_march``): ValueError before the first step unless ``t_end`` is
    finite and not negative and no request is nan or after ``t_end``; a
    request before 0 is the initial data.  Raises ConvergenceError when a
    step's Newton iteration does not converge.
    """
    if m not in (2, 3):
        raise ValueError("local solver covers m = 2 and m = 3")
    uprime = _field_on_grid(field, u0)
    if m == 2:
        mobility = _abs_mobility(l1_norm(pot, MOBILITY_TOL))

        def prepare(u, d):
            return mobility, uprime
    else:
        regime = ScalingRegime(m=m, beta=beta)
        table = None    # built on the first step, rebuilt when outgrown

        def prepare(u, d):
            nonlocal table
            d_max = float(np.max(np.abs(d), initial=0.0))
            if table is None or d_max > table.p_max:
                table = MobilityTable.build(pot, regime, max(2.0 * d_max, 1.0))
            return table, uprime

    return _march(u0, t_end, t_eval, prepare)


# ---------------------------------------------------------------------------
# nonlocal solver
# ---------------------------------------------------------------------------

def _farfield_kernels(pot: Potential, alpha: float, dx: float, n: int,
                      k_off: int):
    """Closed-form annulus integrals as kernels of the offset k = j - i.

    For segment j = [x_j, x_{j+1}] and node i, with z measured from x_i,
    int (c + s z) V_alpha''(z) dz = c dVp + s dW over the segment, where
    Vp = V_alpha' (odd) and W(z) = z V_alpha'(z) - V_alpha(z) (even).
    Returns dVp and dW - z_left dVp, the weights of u_j and of the slope s_j,
    as arrays of length 2n - 2 whose entry k + n - 1 is offset k in
    [-(n - 1), n - 2].  Segments within k_off cells of the node (the ball)
    weigh zero, so V is only evaluated at |z| >= k_off dx.
    """
    z = dx * np.arange(k_off, n)               # annulus edges, right of x_i
    vp = rescaled_derivative(pot, alpha, z, 1)
    w = z * vp - rescaled_derivative(pot, alpha, z, 0)
    d_vp, d_w = np.diff(vp), np.diff(w)         # segments k = k_off .. n-2
    ball = np.zeros(2 * (n - 1 - len(d_vp)))
    # the mirror segment k' = -1 - k has dVp(k') = dVp(k), dW(k') = -dW(k)
    dvp = np.concatenate([d_vp[::-1], ball, d_vp])
    dwc = np.concatenate([(z[1:] * d_vp - d_w)[::-1], ball,
                          d_w - z[:-1] * d_vp])
    return dvp, dwc


def _apply_kernel(kernel: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j kernel[j - i] v_j for each node i (kernel from _farfield_kernels)."""
    return np.correlate(kernel, v, "valid")[::-1]


def solve_nonlocal(u0: GridFunction, pot: Potential, alpha: float,
                   field: ExternalField | None, t_end: float,
                   rho: float = 0.5, quad_tol: float = 1e-9, t_eval=None):
    """Advance u_t = (M[u] + U') |u_x| to t_end.

    The ball term is an implicit m = 2 diffusion and far[u] + U' an explicit
    upwinded velocity (see the module docstring).  The ball radius snaps to
    a whole number of cells (at least 2).  Returns (GridFunction,
    SolveInfo), with ``t_eval`` and ``t_end`` under ``simulate``'s time
    contract, as in ``solve_local``.  An explicit velocity above
    VELOCITY_GUARD raises ConvergenceError with a grid-refinement hint.
    """
    dx = u0.dx
    n = u0.n
    xs = u0.xs
    k_off = max(2, int(round(rho / dx)))
    rho_eff = k_off * dx
    ball = _abs_mobility(0.5 * kernel_second_moment(pot, alpha, rho_eff, quad_tol))
    dvp, dwc = _farfield_kernels(pot, alpha, dx, n, k_off)
    row_dvp = _apply_kernel(dvp, np.ones(n - 1))

    # constant tails beyond the grid (or beyond the ball for edge nodes)
    r_left = np.maximum(rho_eff, xs - xs[0])
    r_right = np.maximum(rho_eff, xs[-1] - xs)
    vp_left = np.abs(rescaled_derivative(pot, alpha, r_left, 1))
    vp_right = np.abs(rescaled_derivative(pot, alpha, r_right, 1))

    uprime = _field_on_grid(field, u0)

    def prepare(u, d):
        vel = _apply_kernel(dvp, u[:-1]) - u * row_dvp + _apply_kernel(dwc, d)
        vel += (u0.far_left - u) * vp_left + (u0.far_right - u) * vp_right
        vel += uprime
        if float(np.max(np.abs(vel))) > VELOCITY_GUARD:
            raise ConvergenceError(
                "velocity overflow near a gradient blowup; refine dx")
        return ball, vel

    return _march(u0, t_end, t_eval, prepare)
