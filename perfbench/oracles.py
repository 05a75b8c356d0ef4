"""Closed-form solutions and invariant checks for the benchmark's outputs.

Nothing here imports signedflow: every reference value is computed from its
formula, so a fault in the program cannot hide in its own oracle.  Each
``check_*`` function returns a list of failure messages; empty means pass.
"""

import math

import numpy as np

# ||V_wall||_L1 = pi^2 / 3 (sum_k 1/k^2 per exponential piece); the m = 2 limit
# u_t = ||V||_L1 |u_x| u_xx has the self-similar solution below with
# D = ||V||_L1 / 2.
WALL_L1 = math.pi ** 2 / 3.0
D_WALL = WALL_L1 / 2.0

# Sigma x of the final state may drift by at most this times t_end (C2).
MOMENT_TOL = 1e-8
# Neighbour distances may shrink by rounding only (C2).
GAP_TOL = 1e-8
# Relative error of a pair's collision time (C1).
PAIR_RTOL = 1e-5
# The repel staircase stays within this over n of the exact primitive
# (measured 0.9 / n).
STAIRCASE_TOL_N = 2.0
# L1 error of the local solve's density (C8).
LOCAL_L1_TOL = 0.02
# Sup error of the nonlocal solve (measured 4.2e-3 at N = 512; the wrong law
# R0^2 + 2t misses by 0.04).
SEMICIRCLE_TOL = 0.015
# The probe maxima at the two finest eps agree within this share (C7).
PROBE_MAX_REL = 0.2
# The m = 2 quantized operator at QUANTIZED_EPS is within this share of its
# limit (measured 0.2%).
QUANTIZED_EPS = 1e-4
QUANTIZED_REL = 0.05

# the self-similar m = 2 profile of unit mass: c and the edge xi0 of
# max(c - xi^2 / 12, 0) in xi = x / (D t)^(1/3)
_C = (3.0 / (4.0 * math.sqrt(12.0))) ** (2.0 / 3.0)
_XI0 = math.sqrt(12.0 * _C)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def m2_density(t, x):
    """Self-similar unit-mass density of u_t = 2D |u_x| u_xx at time t."""
    s = (D_WALL * t) ** (1.0 / 3.0)
    return np.maximum(_C - (np.asarray(x) / s) ** 2 / 12.0, 0.0) / s


def m2_primitive(t, x):
    """Integral from -inf to x of ``m2_density``."""
    s = (D_WALL * t) ** (1.0 / 3.0)
    xi = np.clip(np.asarray(x) / s, -_XI0, _XI0)
    return _C * (xi + _XI0) - (xi ** 3 + _XI0 ** 3) / 36.0


def m2_mid_quantiles(t, n):
    """Positions x_i with primitive(x_i) = (i + 1/2) / n, by bisection."""
    r = _XI0 * (D_WALL * t) ** (1.0 / 3.0)
    lo, hi = np.full(n, -r), np.full(n, r)
    q = (np.arange(n) + 0.5) / n
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = m2_primitive(t, mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def semicircle_primitive(r, x):
    """Primitive of the unit-mass semicircle density 2 sqrt(r^2 - x^2) / (pi r^2)."""
    xc = np.clip(np.asarray(x, dtype=float), -r, r)
    return 0.5 + (xc * np.sqrt(r * r - xc * xc)
                  + r * r * np.arcsin(xc / r)) / (math.pi * r * r)


def semicircle_radius(r0, t):
    """Radius of the spreading semicircle under the log kernel at alpha = 1."""
    return math.sqrt(r0 * r0 + 4.0 * t)


def wall_potential_value(x):
    """V(x) = x coth x - log|2 sinh x| for x > 0; below 1e-16 beyond x = 20."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    near = x <= 20.0
    xn = x[near]
    out[near] = xn / np.tanh(xn) - np.log(2.0 * np.sinh(xn))
    return out


def wall_energy(x, alpha, n):
    """(1/n^2) sum_{i<j} alpha V(alpha |x_i - x_j|) for equal unit charges."""
    x = np.sort(np.asarray(x, dtype=float))
    iu = np.triu_indices(len(x), k=1)
    gaps = x[iu[1]] - x[iu[0]]
    return float(np.sum(alpha * wall_potential_value(alpha * gaps))) / n ** 2


def staircase_error(x, b, n, primitive):
    """sup_x |(1/n) sum_{x_i <= x} b_i - primitive(x)|.

    ``primitive`` is continuous and nondecreasing, so between two jumps the
    largest distance sits at an end: compare both one-sided values at every
    jump, and the final value with the primitive's limit at +inf.
    """
    order = np.argsort(x, kind="stable")
    xs = np.asarray(x, dtype=float)[order]
    right = np.cumsum(np.asarray(b, dtype=float)[order]) / n
    left = np.concatenate([[0.0], right[:-1]])
    p = primitive(xs)
    tail = abs(right[-1] - float(primitive(np.array([np.inf]))[0]))
    return float(max(np.max(np.abs(right - p)), np.max(np.abs(left - p)), tail))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _nondecreasing(values):
    v = np.asarray(values, dtype=float)
    fin = np.isfinite(v[:-1]) & np.isfinite(v[1:])
    return bool(np.all(v[1:][fin] - v[:-1][fin] >= -GAP_TOL))


def check_annihilating_run(tag, x0, b0, t_span, x1, b1, clusters, d_plus,
                           d_minus):
    """C2's invariants for one particle run.

    ``clusters`` holds the pre-collision charges of each event cluster in
    spatial order; ``d_plus``/``d_minus`` the minimal same-sign gaps per
    recorded step.
    """
    fails = []
    if int(np.sum(b1)) != int(np.sum(b0)):
        fails.append(f"{tag}: net charge {int(np.sum(b0))} -> {int(np.sum(b1))}")
    drift = abs(float(np.sum(x1)) - float(np.sum(x0)))
    if not drift <= MOMENT_TOL * t_span:
        fails.append(f"{tag}: first moment drifted by {drift:.3e}")
    for signs in clusters:
        signs = [int(s) for s in signs]
        if abs(sum(signs)) > 1:
            fails.append(f"{tag}: cluster {signs} has net charge above 1")
        if any(signs[k] * signs[k + 1] != -1 for k in range(len(signs) - 1)):
            fails.append(f"{tag}: cluster {signs} does not alternate")
    for key, vals in (("d_plus", d_plus), ("d_minus", d_minus)):
        if not _nondecreasing(vals):
            fails.append(f"{tag}: {key} decreased")
    return fails


def check_pair_collision(tag, tau, d0, a):
    """An opposite pair under f = sign|x|^(-1-a)/(2+a) meets at d0^(2+a)."""
    if tau is None:
        return [f"{tag}: no collision"]
    exact = d0 ** (2.0 + a)
    rel = abs(tau - exact) / exact
    return [] if rel <= PAIR_RTOL else [f"{tag}: tau off by {rel:.2e} relative"]


def check_repel(n, alpha, t0, x0, x1, b1, n_events, d_plus, snapshots):
    """Single-sign wall run against the self-similar m = 2 solution.

    ``snapshots`` holds (t, x) pairs.  The cumulative charge must stay within
    ``STAIRCASE_TOL_N / n`` of the exact primitive, and the wall energy must not rise.
    """
    fails = []
    if n_events:
        fails.append(f"repel: {n_events} events in a single-sign run")
    fails += check_annihilating_run("repel", x0, np.ones(n), snapshots[-1][0] - t0,
                                    x1, b1, [], d_plus, [])
    energies = [wall_energy(x0, alpha, n)]
    for t, x in snapshots:
        err = staircase_error(x, np.ones(n), n,
                              lambda y, t=t: m2_primitive(t, y))
        if not err <= STAIRCASE_TOL_N / n:
            fails.append(f"repel: staircase off by {err * n:.2f}/n at t={t:g}")
        energies.append(wall_energy(x, alpha, n))
    for e_prev, e_next in zip(energies[:-1], energies[1:]):
        if e_next > e_prev + 1e-12 * abs(e_prev):
            fails.append(f"repel: wall energy rose {e_prev!r} -> {e_next!r}")
    return fails


def _range_fails(tag, u0, u1):
    lo, hi = float(np.min(u0)), float(np.max(u0))
    if float(np.min(u1)) < lo or float(np.max(u1)) > hi:
        return [f"{tag}: values left the initial range [{lo!r}, {hi!r}]"]
    return []


def check_local_m2(xs, u0, u1, t1):
    """Central-difference density of ``u1`` against the m = 2 profile at t1."""
    dx = xs[1] - xs[0]
    dens = np.empty_like(u1)
    dens[1:-1] = (u1[2:] - u1[:-2]) / (2.0 * dx)
    dens[0] = (u1[1] - u1[0]) / dx
    dens[-1] = (u1[-1] - u1[-2]) / dx
    exact = m2_density(t1, xs)
    err = float(np.sum(np.abs(dens - exact)) / np.sum(np.abs(exact)))
    fails = _range_fails("local", u0, u1)
    if not err <= LOCAL_L1_TOL:
        fails.append(f"local: density L1 error {err:.3e} above {LOCAL_L1_TOL}")
    return fails


def check_semicircle(xs, u0, u1, r0, t):
    """Nonlocal log solve against the semicircle primitive of radius R(t)."""
    err = float(np.max(np.abs(u1 - semicircle_primitive(semicircle_radius(r0, t), xs))))
    fails = _range_fails("nonlocal", u0, u1)
    if not err <= SEMICIRCLE_TOL:
        fails.append(f"nonlocal: sup error {err:.3e} above {SEMICIRCLE_TOL}")
    return fails


def check_probe_sweep(tag, rows, quad_tol):
    """C7: no probe value below -quad_tol; the maxima over gamma at the two
    finest eps agree within ``PROBE_MAX_REL``.  ``rows`` holds (eps, gamma, value)."""
    fails = []
    worst = min(r[2] for r in rows)
    if worst < -quad_tol:
        fails.append(f"{tag}: probe value {worst:.3e} below -quad_tol")
    maxima = {}
    for eps, _, val in rows:
        maxima[eps] = max(maxima.get(eps, 0.0), val)
    fine = sorted(maxima)[:2]
    lo, hi = maxima[fine[0]], maxima[fine[1]]
    if not abs(hi - lo) <= PROBE_MAX_REL * max(hi, lo):
        fails.append(f"{tag}: finest maxima {lo:.4g} and {hi:.4g} disagree")
    return fails


def check_quantized_m2(rows, d2_phi):
    """m = 2 quantized operator at ``QUANTIZED_EPS`` against ||V_wall||_L1 phi''(x)."""
    limit = WALL_L1 * d2_phi
    vals = [v for e, v, _ in rows if e == QUANTIZED_EPS]
    if not vals:
        return [f"quantized: no value at eps={QUANTIZED_EPS:g}"]
    err = abs(vals[0] - limit) / abs(limit)
    return [] if err <= QUANTIZED_REL else [f"quantized: {err:.2e} relative off the limit"]


def check_majorizes(phi, env):
    """The envelope lies on or above phi, up to rounding."""
    scale = max(1.0, float(np.max(np.abs(phi))))
    gap = float(np.min(env - phi))
    return [] if gap >= -1e-12 * scale else [f"envelope: below phi by {-gap:.3e}"]
