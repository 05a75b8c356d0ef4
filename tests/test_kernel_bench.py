"""Layer benchmarks of the pair force kernel ``_Segment.rhs``, of one
step attempt ``_rk_attempt``, of one local or nonlocal PDE step and of one
quantized-operator evaluation.

Two particle sizes: m = 18 charges of a ``collide`` run, whose list holds
every pair in one chunk and whose attempts use the Dormand-Prince pair, and
the m = 300 wall particles of ``repel``, whose band keeps w = 123 offsets,
29,274 pairs in four chunks, and whose attempts use the Bogacki-Shampine
pair.  The PDE steps start from the ``continuum`` workload's N = 512 grids.
The quantized operator is evaluated as the ``verify`` workload does, at
eps = 1e-4: one shifted-quartic probe and the sin probe's m = 2 row.
``benchmark.pedantic`` fixes the number of calls, so the eight take about a
second together.  Run alone, with the timing table:

    python -m pytest tests/test_kernel_bench.py
"""

import math

import numpy as np
import pytest

from signedflow import (ClampedProbe, GridFunction, HamiltonianParams,
                        ScalingRegime, TestFunction, log_potential, pde,
                        quantized_nonlocal, quartic_probe_value, solve_local,
                        solve_nonlocal, wall_potential)
from signedflow.dynamics import (_BS3, _DP5, _KERNEL_ERRSTATE, _band_cutoff,
                                 _rk_attempt, _Segment)
from signedflow.pde import _implicit_diffusion, _upwind_transport

pytest.importorskip("pytest_benchmark")


def _collide_segment():
    # zero net charge at random positions, as in the collide workload
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(-1.0, 1.0, 18)) + np.arange(18) * 1e-9
    b = rng.permutation(np.repeat([-1, 1], 9))
    return _Segment(x, b, log_potential(), 1.0, None)


def _repel_segment():
    # mid quantiles of the m = 2 profile (1 - (x/R)^2)_+ on R = 2.45: with
    # u = x / R, its distribution function 1/2 + (3u - u^3) / 4 = q solves to
    # u = 2 sin(arcsin(2q - 1) / 3)
    n = 300
    q = (np.arange(n) + 0.5) / n
    x = 2.45 * 2.0 * np.sin(np.arcsin(2.0 * q - 1.0) / 3.0)
    pot, alpha = wall_potential(), math.sqrt(n)
    return _Segment(x, np.ones(n, dtype=int), pot, alpha, None,
                    radius=_band_cutoff(pot, alpha, 1e-9))


@pytest.mark.parametrize("size", ["m18", "m300"])
def test_pair_kernel_rhs_benchmark(benchmark, size):
    if size == "m18":
        seg, rounds, iterations = _collide_segment(), 100, 20
        assert (seg.m, seg.w, seg.n_pairs, len(seg.chunks)) == (18, 17, 153, 1)
    else:
        seg, rounds, iterations = _repel_segment(), 60, 5
        assert (seg.m, seg.w, seg.n_pairs, len(seg.chunks)) == (300, 123,
                                                                29274, 4)
    w = seg.w
    with np.errstate(**_KERNEL_ERRSTATE):
        ref = seg.rhs(seg.xc)
        out = benchmark.pedantic(seg.rhs, args=(seg.xc,), rounds=rounds,
                                 iterations=iterations, warmup_rounds=1)
    # the ordered point sweeps every chunk without the sign work, and the
    # band is never rebuilt
    assert out.tobytes() == ref.tobytes()
    assert seg.unordered_sweeps == 0 and seg.w == w


@pytest.mark.parametrize("size", ["m18", "m300"])
def test_rk_attempt_benchmark(benchmark, size):
    # one attempt at a step near the runs' own: 1e-4 for collide, 1e-3 for
    # repel (175 steps over 0.2)
    if size == "m18":
        seg, tab, h = _collide_segment(), _DP5, 1e-4
        rounds, iterations = 50, 10
    else:
        seg, tab, h = _repel_segment(), _BS3, 1e-3
        rounds, iterations = 20, 2
    # the pair simulate would choose
    assert (tab is _DP5) == (len(seg.opp) > 0)
    w = seg.w
    ks = np.empty((len(tab[2]), seg.m))
    scale = 1e-9 * (1.0 + np.abs(seg.xc))
    with np.errstate(**_KERNEL_ERRSTATE):
        ks[0] = seg.rhs(seg.xc)
        x_ref, _, err_ref = _rk_attempt(tab, seg, seg.xc, ks, h, scale)
        x_new, gaps, err_norm = benchmark.pedantic(
            _rk_attempt, args=(tab, seg, seg.xc, ks, h, scale), rounds=rounds,
            iterations=iterations, warmup_rounds=1)
    # an attempt depends on ks[0] alone, so every call repeats the first;
    # its stage points stay within the band's skin
    assert x_new.tobytes() == x_ref.tobytes() and err_norm == err_ref
    assert math.isfinite(err_norm) and gaps.min() > 0 and seg.w == w


def _continuum_grid(kind):
    """The continuum workload's N = 512 grids: the self-similar m = 2 wall
    profile at t = 1 on [-3.2, 3.2], and the unit semicircle on [-3, 3]."""
    if kind == "local":
        xs = np.linspace(-3.2, 3.2, 512)
        c = (3.0 / (4.0 * math.sqrt(12.0))) ** (2.0 / 3.0)
        xi0 = math.sqrt(12.0 * c)
        xi = np.clip(xs / (math.pi ** 2 / 6.0) ** (1.0 / 3.0), -xi0, xi0)
        vals = c * (xi + xi0) - (xi ** 3 + xi0 ** 3) / 36.0
    else:
        xs = np.linspace(-3.0, 3.0, 512)
        xc = np.clip(xs, -1.0, 1.0)
        vals = 0.5 + (xc * np.sqrt(1.0 - xc * xc) + np.arcsin(xc)) / math.pi
    return GridFunction(xs[0], xs[1] - xs[0], vals, 0.0, 1.0)


def _prepare_of(solve, *args, **kwargs):
    """The ``prepare`` that ``solve`` hands its time loop ``pde._march``."""
    grabbed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "_march", lambda u0, t_end, t_eval, prepare:
                   grabbed.append(prepare))
        solve(*args, **kwargs)
    return grabbed[0]


def _pde_step(u, prepare, dx, dt):
    """One step of ``pde._march`` at dt: upwind transport, then the
    implicit diffusion; returns (values, Newton iterations)."""
    d = np.diff(u) / dx
    mobility, vel = prepare(u, d)
    rhs = u[1:-1] + dt * _upwind_transport(vel[1:-1], d[:-1], d[1:])
    return _implicit_diffusion(u, rhs, dt, dx, mobility)


@pytest.mark.parametrize("kind", ["local", "nonlocal"])
def test_pde_step_benchmark(benchmark, kind):
    # a step near the solves' own: 25 steps over 0.5 for the local solve,
    # 41 over 0.2 for the nonlocal one
    u0 = _continuum_grid(kind)
    if kind == "local":
        prepare = _prepare_of(solve_local, u0, 2, wall_potential(), 1.0,
                              None, 0.5)
        dt = 0.02
    else:
        prepare = _prepare_of(solve_nonlocal, u0, log_potential(), 1.0, None,
                              0.2, rho=0.5)
        dt = 0.005
    ref, ref_iters = _pde_step(u0.values, prepare, u0.dx, dt)
    out, iters = benchmark.pedantic(
        _pde_step, args=(u0.values, prepare, u0.dx, dt), rounds=50,
        iterations=5, warmup_rounds=1)
    # a step depends on its input alone, so every call repeats the first
    assert out.tobytes() == ref.tobytes() and iters == ref_iters
    assert np.all(np.isfinite(out)) and iters > 1


@pytest.mark.parametrize("probe", ["quartic", "sin"])
def test_quantized_probe_benchmark(benchmark, probe):
    # the finest resolution of the verify workload: a quartic probe of its
    # sweep (closed-form crossings) and the m = 2 row of its table (Newton
    # crossings), on the wall potential
    eps = 1e-4
    alpha = ScalingRegime(m=2).alpha_of_eps(eps)
    if probe == "quartic":
        fn, args = quartic_probe_value, (wall_potential(), 2.0, 0.5, eps,
                                         alpha)
    else:
        phi = TestFunction.sin()
        fn, args = quantized_nonlocal, (phi, ClampedProbe(phi, 0.3, 1.0), 0.3,
                                        wall_potential(),
                                        HamiltonianParams(1.0, eps, alpha))
    ref = fn(*args)
    outs = []
    benchmark.pedantic(lambda: outs.append(fn(*args)), rounds=20,
                       iterations=1, warmup_rounds=1)
    # an evaluation depends on its input alone, so every call repeats the
    # first
    assert math.isfinite(ref) and len(outs) == 21
    assert all(out.hex() == ref.hex() for out in outs)
