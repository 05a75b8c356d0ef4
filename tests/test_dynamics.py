"""Particle dynamics: forces, collisions, annihilation, invariants."""

import math
import os
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

import signedflow
from signedflow import (GridFunction, InvariantViolationError,
                        IntegratorOptions, ParticleState,
                        SingularConfigurationError, annihilate,
                        detect_collision, energy, log_potential,
                        power_law_force_potential, riesz_potential, simulate,
                        solve_local, solve_nonlocal, stability_experiment,
                        velocities, wall_potential)
from signedflow.dynamics import (GAP_FACTOR, H_COLLISION_FLOOR,
                                 _KERNEL_ERRSTATE, _band_cutoff, _band_pairs,
                                 _Segment, _event_radii)
from signedflow.potentials import ExternalField, make_field, zero_field


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_opposite_pair():
    st = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    v = velocities(st, log_potential(), 1.0)
    assert np.allclose(v, [0.5, -0.5])


def test_rhs_equal_pair_repels_antisymmetric():
    st = ParticleState(0.0, [0.0, 1.0], [1, 1])
    v = velocities(st, log_potential(), 1.0)
    assert np.allclose(v, [-0.5, 0.5])


def test_rhs_neutral_particles_still():
    st = ParticleState(0.0, [-1.0, 0.3, 2.0], [0, 0, 0])
    v = velocities(st, log_potential(), 1.0)
    assert np.allclose(v, 0.0)


def test_rhs_neutral_exerts_no_force():
    a = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    b = ParticleState(0.0, [-0.5, 0.1, 0.5], [1, 0, -1])
    va = velocities(a, log_potential(), 1.0)
    vb = velocities(b, log_potential(), 1.0)
    # same pair force, but the neutral changes n from 2 to 3
    assert np.allclose(va * 2, [1.0, -1.0])
    assert np.allclose(vb[[0, 2]] * 3, [1.0, -1.0])
    assert vb[1] == 0.0


def test_rhs_external_field():
    fld = make_field({"kind": "tilt", "c": 2.0})  # g = -U' = -2
    st = ParticleState(0.0, [-1.0, 1.0], [1, -1])
    v = velocities(st, log_potential(), 1.0, fld)
    inter = velocities(st, log_potential(), 1.0)
    assert np.allclose(v - inter, [-2.0, 2.0])


def test_rhs_singular_configuration():
    st = ParticleState(0.0, [0.5, 0.5], [1, -1])
    with pytest.raises((SingularConfigurationError, ValueError)):
        st.validate()
        velocities(st, log_potential(), 1.0)


def test_velocities_raise_on_coincident_charges():
    # called directly, without validate(): the kernel itself must refuse
    st = ParticleState(0.0, [-1.0, 0.5, 0.2, 0.5], [1, 1, 0, -1])
    with pytest.raises(SingularConfigurationError):
        velocities(st, log_potential(), 1.0)
    with pytest.raises(SingularConfigurationError):
        energy(st, log_potential(), 1.0)
    # a neutral particle on top of a charged one exerts no force
    ok = ParticleState(0.0, [-1.0, 0.5, 0.5], [1, 0, -1])
    assert np.all(np.isfinite(velocities(ok, log_potential(), 1.0)))


def _pair_reference(st, pot, alpha, fld):
    """Velocities and energy by a direct double loop over (i, j)."""
    n = st.n
    idx = [int(i) for i in st.charged_indices]
    vel = np.zeros(n)
    scale = np.zeros(n)   # sum of term magnitudes: the conditioning of vel_i
    e_pairs = []
    for i in idx:
        terms = []
        for j in idx:
            if j == i:
                continue
            d = float(st.x[i] - st.x[j])
            terms.append(st.b[i] * st.b[j] * float(pot.force(d, alpha)) / n)
            if j > i:
                e_pairs.append(st.b[i] * st.b[j] * alpha
                               * float(pot.deriv(alpha * d, 0)) / n ** 2)
        if fld is not None:
            terms.append(st.b[i] * float(fld.g(np.array([st.x[i]]))[0]))
        vel[i] = math.fsum(terms)
        scale[i] = math.fsum(abs(v) for v in terms)
    if fld is not None:
        e_pairs += [st.b[i] * float(fld.u(np.array([st.x[i]]))[0]) / n
                    for i in idx]
    return vel, scale, math.fsum(e_pairs), math.fsum(abs(v) for v in e_pairs)


@pytest.mark.parametrize("case", ["field", "unordered", "unordered-far"])
@pytest.mark.parametrize("potname", ["log", "wall", "riesz", "power"])
def test_pair_kernel_matches_double_loop(potname, case):
    # 200 charged particles: 19,900 pairs, several chunks of the pair sweep;
    # the chunks holding a crossed pair take the |d| / sign form
    pot = {"log": log_potential(), "wall": wall_potential(),
           "riesz": riesz_potential(0.5),
           "power": power_law_force_potential(0.5)}[potname]
    st = _kernel_config(case)
    assert len(st.charged_indices) == 200
    fld = make_field({"kind": "harmonic", "k": 4.0}) if case == "field" else None
    alpha = 2.0
    ref_v, ref_scale, ref_e, ref_escale = _pair_reference(st, pot, alpha, fld)
    v = velocities(st, pot, alpha, fld)
    assert np.all(np.abs(v - ref_v) <= 1e-12 * ref_scale)
    assert np.all(v[st.b == 0] == 0.0)
    e = energy(st, pot, alpha, fld)
    assert abs(e - ref_e) <= 1e-12 * ref_escale
    seg = _Segment(st.x, st.b, pot, alpha, fld)
    assert seg.energy(seg.xc[None]).tolist() == [e]
    with np.errstate(**_KERNEL_ERRSTATE):
        seg.rhs(seg.xc)
    assert seg.unordered_sweeps == {"field": 0, "unordered": 1,
                                    "unordered-far": 2}[case]


@pytest.mark.parametrize("shift", [0.99, 3.0])
def test_pair_kernel_matches_double_loop_banded(shift):
    # wall, alpha = 60 over a span of 2: the band keeps w = 47 of 199
    # offsets, 42% of the pairs.  The points move by +-shift half skins,
    # alternately, so that a pair an odd number of slots apart, the left one
    # at an even slot, closes by shift skins.  Within the skin (0.99) the
    # band built at st must hold every pair that comes within the cutoff;
    # beyond it (3.0) the segment must build a wider band
    pot, alpha, rk_tol = wall_potential(), 60.0, 1e-9
    st = _kernel_config("banded")
    seg = _Segment(st.x, st.b, pot, alpha, None,
                   radius=_band_cutoff(pot, alpha, rk_tol))
    w = seg.w
    assert w < seg.m // 2
    moved = seg.xc + shift * seg.half_skin * (-1.0) ** np.arange(seg.m)
    x = st.x.copy()
    x[seg.idx] = moved
    ref_v, ref_scale, ref_e, ref_escale = _pair_reference(
        ParticleState(0.0, x, st.b), pot, alpha, None)
    # the envelope bound of the dropped pairs (see _band_cutoff), and a
    # round-off allowance small enough not to hide a pair left out inside r
    bound = 1e-3 * rk_tol
    v = seg.rhs(moved)
    err = np.abs(v - ref_v[seg.idx])
    assert np.all(err <= 1e-14 * ref_scale[seg.idx] + bound)
    e = seg.energy(moved[None])[0]
    assert abs(e - ref_e) <= 1e-14 * ref_escale + bound
    assert (seg.w > w) == (shift > 1.0)


@pytest.mark.parametrize("m", [0, 1, 2, 7, 64])
def test_band_pairs_match_mask_construction(m):
    # reference: the upper band of an m x m mask, its pairs stably sorted by
    # offset j - i, so one diagonal after another, each in increasing i
    full = _band_pairs(m, m - 1)
    for w in range(min(m - 1, 0), m):
        band = np.tri(m, m, w, dtype=bool) & ~np.tri(m, m, 0, dtype=bool)
        ri, rj = [np.broadcast_to(ix, band.shape)[band]
                  for ix in np.indices(band.shape, sparse=True)]
        order = np.argsort(rj - ri, kind="stable")
        got = _band_pairs(m, w)
        for g, r, f in zip(got, (ri[order], rj[order]), full):
            assert g.dtype == r.dtype and g.tolist() == r.tolist(), (m, w)
            assert g.flags.c_contiguous
            # the band is a prefix of the list of every pair
            assert f[:len(g)].tolist() == g.tolist(), (m, w)
    assert sorted(zip(*full)) == sorted(zip(*np.triu_indices(m, 1)))


@pytest.mark.parametrize("case", ["log", "banded"])
def test_ordered_sweep_matches_general_form_bitwise(case):
    # at an ordered point every chunk takes qf d1(alpha d) with d > 0; the
    # sign there is exactly 1, so the sum must be the general |d| / sign form
    # over the same chunks in the same order, bit for bit
    if case == "log":
        pot, alpha, radius = log_potential(), 2.0, np.inf
    else:
        pot, alpha = wall_potential(), 60.0
        radius = _band_cutoff(pot, alpha, 1e-9)
    st = _kernel_config("banded" if case == "banded" else "field")
    seg = _Segment(st.x, st.b, pot, alpha, None, radius=radius)
    assert len(seg.chunks) > 1 and (seg.w < seg.m - 1) == (case == "banded")
    x = seg.xc
    ref = np.zeros(seg.m)
    for i, j, _, qf in seg.chunks:
        d = x[j] - x[i]
        w = qf * pot.derivs[1](alpha * np.abs(d)) * np.sign(d)
        ref += np.bincount(i, w, seg.m)
        ref -= np.bincount(j, w, seg.m)
    ref /= seg.n
    assert seg.rhs(x).tobytes() == ref.tobytes()
    assert seg.unordered_sweeps == 0


def _kernel_config(case):
    """200 charged particles of random sign and 30 neutral ones in [-1, 1],
    at random positions or, for ``banded``, evenly spaced; for
    ``unordered``, one charged pair is swapped, as at a stage point, and for
    ``unordered-far`` two charges 60 slots apart, so that the crossed pairs
    lie on offsets 1 to 60, in two chunks of the pair sweep."""
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(-1.0, 1.0, 230))
    if case == "banded":
        x = np.linspace(-1.0, 1.0, 230)
    b = rng.choice([-1, 1], 230)
    b[rng.choice(230, 30, replace=False)] = 0
    if case.startswith("unordered"):
        slots = [100, 101] if case == "unordered" else [70, 130]
        i, j = np.flatnonzero(b)[slots]
        x[i], x[j] = x[j], x[i]
    return ParticleState(0.0, x, b)


def _zero_net_config(n, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, n)) + np.arange(n) * 1e-9
    return ParticleState(0.0, x, rng.permutation(np.repeat([-1, 1], n // 2)))


def _run_bits(res):
    """Everything a run reports, as bytes and plain values."""
    return (res.state.t, res.state.x.tobytes(), res.state.b.tobytes(),
            [ev.to_dict() for ev in res.events],
            {k: v.tobytes() for k, v in res.diagnostics.arrays().items()},
            res.stats)


@pytest.mark.parametrize("potname", ["log", "wall"])
def test_no_field_equals_zero_field_bitwise(potname):
    # without a field the kernel adds nothing; the zero field adds zeros
    pot, alpha = {"log": (log_potential(), 1.0),
                  "wall": (wall_potential(), 3.0)}[potname]
    st = _zero_net_config(12, 3)
    zf = zero_field()
    assert velocities(st, pot, alpha).tobytes() == \
        velocities(st, pot, alpha, zf).tobytes()
    assert energy(st, pot, alpha) == energy(st, pot, alpha, zf)
    a = simulate(st, pot, alpha, None, 0.02)
    b = simulate(st, pot, alpha, zf, 0.02)
    assert _run_bits(a) == _run_bits(b)


@pytest.mark.parametrize("potname", ["log", "wall"])
def test_simulate_reproducible_bit_for_bit(potname):
    pot, alpha = {"log": (log_potential(), 1.0),
                  "wall": (wall_potential(), math.sqrt(12))}[potname]
    st = _zero_net_config(12, 5)
    a = simulate(st, pot, alpha, None, 0.1)
    assert len(a.events) > 0
    assert _run_bits(a) == _run_bits(simulate(st, pot, alpha, None, 0.1))


@pytest.mark.parametrize("potname", ["log", "power", "wall"])
def test_unbanded_runs_match_full_pair_list_bitwise(potname, monkeypatch):
    # power and log tails never band, and a wall run whose charged span
    # stays within the cutoff plus the skin sweeps every pair, in the order
    # of the full pair list
    pot, alpha = {"log": (log_potential(), 1.0),
                  "power": (power_law_force_potential(3.0), 1.0),
                  "wall": (wall_potential(), math.sqrt(12))}[potname]
    assert (_band_cutoff(pot, 1e3, 1e-9) == np.inf) == (potname != "wall")
    st = _zero_net_config(12, 5)
    res = simulate(st, pot, alpha, None, 0.1)
    assert len(res.events) > 0
    monkeypatch.setattr(signedflow.dynamics, "_band_cutoff", lambda *a: np.inf)
    assert _run_bits(res) == _run_bits(simulate(st, pot, alpha, None, 0.1))


def _funnel_field(c=1.0, eps=0.01):
    """U = c eps log(2 cosh(x / eps)): the force -c tanh(x / eps) is -c sign(x)
    to the last bit for |x| > 0.2, so particles there move at constant
    speed and error control lets the step grow fivefold per step."""
    def u(x):
        y = np.asarray(x) / eps
        return c * eps * np.logaddexp(y, -y)

    return ExternalField(
        u=u, uprime=lambda x: c * np.tanh(np.asarray(x) / eps),
        lipschitz_bound_uprime=c / eps, name="funnel")


def test_band_follows_pair_closing_into_cutoff(monkeypatch):
    # two like charges at unit speed towards each other: their gap falls
    # from 2 (40 in units of 1/alpha) past the cutoff radius in two steps,
    # and the wall repulsion stops it near 0.2.  The band, empty at the
    # start, must take the pair in before any stage point comes within the
    # cutoff
    pot, alpha, rk_tol, t_end = wall_potential(), 20.0, 1e-9, 1.5
    st = ParticleState(0.0, [-1.0, 1.0], [1, 1])
    res = simulate(st, pot, alpha, _funnel_field(), t_end, t_eval=[1.0])
    r = _band_cutoff(pot, alpha, rk_tol)
    gaps = np.array(res.diagnostics.d_plus)
    inside = int(np.argmax(gaps < r))
    assert inside > 2 and gaps[inside - 2] > 1.25 * r and gaps[-1] < 0.3 * r
    # the pair was left out while it was far
    assert res.stats["pair_evals"] < res.stats["force_evals"]
    monkeypatch.setattr(signedflow.dynamics, "_band_cutoff", lambda *a: np.inf)
    full = simulate(st, pot, alpha, _funnel_field(), t_end, t_eval=[1.0])
    assert full.stats["pair_evals"] == full.stats["force_evals"]
    # dropped forces are below 1e-3 rk_tol (see _band_cutoff)
    for a, b in zip(res.snapshots + [res.state], full.snapshots + [full.state]):
        assert np.abs(a.x - b.x).max() <= 1e-3 * rk_tol * t_end


@pytest.mark.parametrize("case", ["harmonic", "many"])
def test_block_flushed_diagnostics_match_one_row_flushes(case, monkeypatch):
    if case == "harmonic":
        # two event batches, and the field's U term in every energy row
        args = (_zero_net_config(12, 5), wall_potential(), math.sqrt(12),
                make_field({"kind": "harmonic", "k": 4.0}), 0.1)
    else:
        # 200 charges: 19,900 pairs in three chunks of the pair sweep
        args = (ParticleState(0.0, np.linspace(-2.0, 2.0, 200),
                              np.ones(200, dtype=int)),
                wall_potential(), 2.0, None, 0.1)
    blocks = simulate(*args)
    # a buffer of one float flushes every row on its own
    monkeypatch.setattr(signedflow.dynamics, "_DIAG_BUFFER", 1)
    rows = simulate(*args)
    assert len(blocks.diagnostics.t) > 100
    if case == "harmonic":
        assert len({ev.tau for ev in blocks.events}) >= 2
    assert _run_bits(blocks) == _run_bits(rows)


def test_particle_run_loads_no_scipy():
    # scipy is imported inside the functions that call it, and a particle
    # run with the log or wall potential, from given or quantile-placed
    # particles, calls none of them
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import signedflow, signedflow.cli
        from signedflow import (ParticleState, SignedDensity, log_potential,
                                quantile_particles, simulate, wall_potential)
        st = ParticleState(0.0, [-0.5, -0.45, 0.2, 0.6], [1, -1, 1, -1])
        assert len(simulate(st, log_potential(), 1.0, None, 0.1).events)
        simulate(st, wall_potential(), 2.0, None, 0.1)
        dens = SignedDensity.from_spec([
            {"sign": 1, "mass": 0.6, "center": -0.9},
            {"sign": -1, "mass": 0.4, "center": 0.9}])
        simulate(quantile_particles(dens, 10), log_potential(), 1.0, None, 0.01)
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    src = os.path.dirname(os.path.dirname(signedflow.__file__))
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_velocities_silence_float_warnings_at_tiny_gap():
    # V'(x) = -1/x near 0 overflows below about 5.6e-309 (1e-310 is
    # subnormal); the bare evaluator warns there, velocities must not
    st = ParticleState(0.0, [0.0, 1e-200], [1, -1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = velocities(st, wall_potential(), 1.0)
        v_over = velocities(ParticleState(0.0, [0.0, 1e-310], [1, -1]),
                            wall_potential(), 1.0)
        with pytest.raises(RuntimeWarning):
            wall_potential().derivs[1](np.array([1e-310]))
    assert v[0] > 0 > v[1]
    assert v_over[0] > 0 > v_over[1]


def test_wall_energy_finite_at_tiny_gap():
    # V(1e-200) is about 460; 1 - exp(-2x) rounds to 0 there, so V must
    # take its log from the exact expm1 form
    st = ParticleState(0.0, [0.0, 1e-200], [1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = energy(st, wall_potential(), 1.0)
    assert math.isfinite(e) and e > 0


def test_min_gaps_matches_diagnostics():
    st = ParticleState(0.0, [0.0, 1.0, 2.0, 4.0, 6.5, 8.0], [1, 1, 0, -1, -1, 1])
    assert st.min_gaps() == (1.0, 2.5, 1.5)
    assert ParticleState(0.0, [0.0, 1.0], [1, 0]).min_gaps() == (np.inf,) * 3
    assert ParticleState(0.0, [0.0, 1.0], [1, -1]).min_gaps() == (np.inf, np.inf, 1.0)
    # the last diagnostics row is recorded from the final positions
    res = simulate(_zero_net_config(10, 2), wall_potential(), 3.0, None, 0.01)
    d = res.diagnostics
    assert res.state.min_gaps() == (d.d_plus[-1], d.d_minus[-1],
                                    d.min_opposite_gap[-1])


def test_rhs_bitwise_deterministic():
    rng = np.random.default_rng(7)
    st = ParticleState(0.0, np.sort(rng.uniform(-1, 1, 30)), rng.choice([-1, 1], 30))
    v1 = velocities(st, wall_potential(), 3.0)
    v2 = velocities(st, wall_potential(), 3.0)
    assert np.array_equal(v1, v2)


# ---------------------------------------------------------------------------
# integration oracles
# ---------------------------------------------------------------------------

def test_two_particle_log_oracle():
    st = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    res = simulate(st, log_potential(), 1.0, None, 1.0,
                   t_eval=np.linspace(0.0, 0.48, 25))
    ev = res.events.events[0]
    assert ev.tau == pytest.approx(0.5, rel=1e-5)
    assert ev.y == pytest.approx(0.0, abs=1e-6)
    for s in res.snapshots:
        exact = 0.5 * np.sqrt(1.0 - 2.0 * s.t)
        assert abs(s.x[0] + exact) < 1e-4
        assert abs(s.x[1] - exact) < 1e-4


@pytest.mark.parametrize("a", [0.0, 0.5, 1.5])
def test_power_law_oracle(a):
    d0 = 0.5
    pot = power_law_force_potential(a)
    st = ParticleState(0.0, [-d0 / 2, d0 / 2], [1, -1])
    res = simulate(st, pot, 1.0, None, max(0.1, 1.1 * d0 ** (2 + a)))
    assert res.events.events[0].tau == pytest.approx(d0 ** (2 + a), rel=1e-5)


def test_simulation_stats_count_steps_and_evaluations():
    st = ParticleState(0.0, [-0.6, -0.2, 0.0, 0.6], [1, -1, 1, 1])
    res = simulate(st, log_potential(), 1.0, None, 2.0)
    s = res.stats
    batches = len({ev.tau for ev in res.events})
    assert batches >= 1
    # diagnostics: one row at the start, per accepted step, per event batch
    assert s["accepted"] == len(res.diagnostics.t) - 1 - batches
    attempts = s["accepted"] + s["rejected"]
    # per attempt, six evaluations on a segment with an opposite pair and
    # three on a single-sign one (one fewer when the trial point is
    # unordered), plus one at the start of each segment between events
    assert 2 * attempts + 1 + batches <= s["force_evals"] <= 6 * attempts + 1 + batches
    signed = simulate(st, log_potential(), 1.0, None, 0.02).stats
    assert signed["accepted"] > 0
    a = signed["accepted"] + signed["rejected"]
    assert 5 * a + 1 <= signed["force_evals"] <= 6 * a + 1
    # the run closes a pair, where the gap cap binds before error control
    # and the shrinking time to contact scales error control's proposal;
    # its last step lands on t_end
    assert 0 < s["gap_capped"] <= attempts
    assert 0 < s["contact_scaled"] <= s["accepted"]
    assert s["snapshot_capped"] == 0 and s["end_capped"] == 1
    # each requested time inside the run sets the step that lands on it
    snap = simulate(st, log_potential(), 1.0, None, 2.0,
                    t_eval=[0.5, 1.0, 1.5]).stats
    assert snap["snapshot_capped"] == 3 and snap["end_capped"] == 1
    # a log run sweeps all m(m-1)/2 pairs per evaluation: 6 while the four
    # like charges never meet
    like = simulate(ParticleState(0.0, st.x, [1, 1, 1, 1]), log_potential(),
                    1.0, None, 0.5).stats
    assert like["pair_evals"] == 6 * like["force_evals"] > 0
    a = like["accepted"] + like["rejected"]
    assert 2 * a + 1 <= like["force_evals"] <= 3 * a + 1
    # no opposite pair, no time to contact
    assert like["contact_scaled"] == 0
    assert s["force_evals"] <= s["pair_evals"] < 6 * s["force_evals"]
    # 40 wall charges at alpha = 40 span 80 / alpha: the band drops pairs
    wall = simulate(ParticleState(0.0, np.linspace(-1.0, 1.0, 40),
                                  np.ones(40, dtype=int)),
                    wall_potential(), 40.0, None, 0.01).stats
    assert 0 < wall["pair_evals"] < 780 * wall["force_evals"]


def test_stats_pinned_on_fixed_runs():
    # exact counters of two fixed runs: a change to step control that keeps
    # every step keeps them all.  The signed run is built as the collide
    # benchmark builds its n = 14 run (zero net charge, wall, alpha =
    # sqrt(n), to t = 0.1); the single-sign wall run is banded and lands on
    # one snapshot
    signed = simulate(_zero_net_config(14, 1), wall_potential(),
                      math.sqrt(14), None, 0.1)
    assert len(signed.events) == 6
    assert signed.stats == {
        "accepted": 238, "rejected": 20, "force_evals": 1555,
        "pair_evals": 64584, "gap_capped": 78, "snapshot_capped": 0,
        "end_capped": 1, "contact_scaled": 231, "unordered_sweeps": 0}
    st = ParticleState(0.0, np.linspace(-1.0, 1.0, 40), np.ones(40, dtype=int))
    wall = simulate(st, wall_potential(), 40.0, None, 0.05, t_eval=[0.02])
    assert wall.stats == {
        "accepted": 221, "rejected": 1, "force_evals": 667,
        "pair_evals": 268134, "gap_capped": 0, "snapshot_capped": 1,
        "end_capped": 1, "contact_scaled": 0, "unordered_sweeps": 0}


def test_closing_pair_takes_few_steps():
    # the gap cap follows the measured closing rate, and the 5(4) pair takes
    # long steps where the cap does not bind
    st = ParticleState(0.0, [-0.25, 0.25], [1, -1])
    res = simulate(st, log_potential(), 1.0, None, 5.0)
    assert len(res.events) == 1
    assert res.stats["accepted"] <= 200


# tau of the run below under the unit-rate cap h <= GAP_FACTOR d^p and the
# Bogacki-Shampine pair, at rk_tol = 1e-12
_THIRD_BODY_TAU = 0.020824120531018068


def test_third_body_closing_keeps_tau():
    # a third charge, like the right one of an opposite pair, repels it
    # towards its partner and attracts the left one: the pair meets at 0.021
    # instead of 0.03, so d^2 shrinks faster than at unit rate
    st = ParticleState(0.0, [-0.1, 0.1, 0.3], [1, -1, -1])
    res = simulate(st, log_potential(), 1.0, None, 0.05,
                   opts=IntegratorOptions(rk_tol=1e-12))
    (ev,) = res.events
    assert ev.indices == (0, 1)
    assert ev.tau == pytest.approx(_THIRD_BODY_TAU, rel=1e-6)


@pytest.mark.parametrize("a,alpha", [(1.5, 1.0), (1.5, 10.0), (1.5, 100.0),
                                     (0.5, 1e4), (0.0, 1e8)])
def test_power_law_pair_at_closing_rate(a, alpha):
    # d^p shrinks at rate alpha^(1-a): 0.1 to 1e8 times the unit rate.  At
    # 1e4 and 1e8 the unit-rate cap let trial points overshoot the contact
    # until the step underflowed; at 1e8 the pair fires by its rate, at a
    # gap above CLUSTER_FACTOR times the trigger radius
    d0 = 0.5
    exact = d0 ** (2 + a) * alpha ** (a - 1)
    st = ParticleState(0.0, [-d0 / 2, d0 / 2], [1, -1])
    res = simulate(st, power_law_force_potential(a), alpha, None,
                   1.1 * exact + 0.01)
    assert res.events.events[0].tau == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("a,rk_tol,max_rejected", [(1.5, 1e-9, 2),
                                                    (0.5, 1e-12, 5)])
def test_pair_approach_rejects_few_attempts(a, rk_tol, max_rejected):
    # near the contact the error of a fixed step grows as the time to
    # contact shrinks; scaling the proposal by that time keeps the
    # controller from alternating accepted and rejected attempts
    d0 = 0.5
    exact = d0 ** (2 + a)
    st = ParticleState(0.0, [-d0 / 2, d0 / 2], [1, -1])
    res = simulate(st, power_law_force_potential(a), 1.0, None,
                   1.1 * exact + 0.01, opts=IntegratorOptions(rk_tol=rk_tol))
    assert res.stats["rejected"] <= max_rejected
    assert res.stats["contact_scaled"] > 0
    assert res.events.events[0].tau == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.5])
def test_pair_approach_keeps_gap_samples(a):
    # the exponent fit of criterion 3 reads the gaps of the last decades
    # before the event; a step ceiling that strides too far starves it
    st = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    res = simulate(st, power_law_force_potential(a), 1.0, None, 1.1)
    tau = res.events.events[0].tau
    t = np.asarray(res.diagnostics.t)
    gaps = np.asarray(res.diagnostics.min_opposite_gap)[t < tau]
    assert np.count_nonzero(gaps <= 1e3 * gaps[-1]) >= 15


def _run_to(kind, t_end, t_eval):
    """``simulate`` or one of the PDE solvers from t = 0 to ``t_end``."""
    if kind == "simulate":
        st = ParticleState(0.0, [-0.5, 0.5], [1, -1])
        return simulate(st, log_potential(), 1.0, None, t_end, t_eval=t_eval)
    vals = np.tanh(np.linspace(-2.0, 2.0, 33))
    u0 = GridFunction(-2.0, 0.125, vals, vals[0], vals[-1])
    if kind == "local":
        return solve_local(u0, 2, wall_potential(), 1.0, None, t_end,
                           t_eval=t_eval)
    return solve_nonlocal(u0, log_potential(), 1.0, None, t_end,
                          t_eval=t_eval)


_BAD_TIMES = [
    (math.nan, None, "nan-None"),               # no end time
    (math.inf, None, "inf-None"),               # an end never reached
    (-0.1, None, "-0.1-None"),                  # an end before the start
    (0.1, [0.05, 0.2], "0.1-t_eval2"),          # a request after t_end
    (0.1, [0.05, math.nan], "0.1-t_eval3"),     # a nan request
]


# simulate's cases keep unprefixed ids, so their names stay stable
@pytest.mark.parametrize("kind,t_end,t_eval", [
    pytest.param(kind, t_end, t_eval,
                 id=case if kind == "simulate" else f"{kind}-{case}")
    for kind in ("simulate", "local", "nonlocal")
    for t_end, t_eval, case in _BAD_TIMES])
def test_simulate_rejects_bad_times(kind, t_end, t_eval):
    # simulate and both PDE solvers share one snapshot queue, whose checks
    # raise before the first step
    with pytest.raises(ValueError):
        _run_to(kind, t_end, t_eval)


def test_time_loops_take_the_same_snapshot_times():
    # a request before the start is the start state, a duplicate is taken
    # twice, and the times come back sorted from every loop
    t_eval = [0.1, 0.05, 0.05, -1.0, 0.0]
    res = _run_to("simulate", 0.1, t_eval)
    times = [s.t for s in res.snapshots]
    assert times == [-1.0, 0.0, 0.05, 0.05, 0.1]
    for kind in ("local", "nonlocal"):
        _, info = _run_to(kind, 0.1, t_eval)
        assert [t for t, _ in info.snapshots] == times


def test_state_rejects_charges_outside_unit_range():
    for b in ([2, 1], [1, -2]):
        with pytest.raises(ValueError, match="charges"):
            ParticleState(0.0, [-0.5, 0.5], b)


def test_round_off_stall_raises_within_budget():
    # at t = 1e3 the floor 1e-16 |t| is about one ulp of t; at rk_tol = 1e-30
    # error control asks for less: accepted steps would move t by one ulp
    # each until the step budget ran out, minutes later
    from signedflow import StiffnessError
    st = ParticleState(1e3, [-0.5, 0.5], [1, 1])
    tic = time.perf_counter()
    with pytest.raises(StiffnessError, match="stalled at round-off") as err:
        simulate(st, log_potential(), 1.0, None, 1e3 + 1.0,
                 opts=IntegratorOptions(rk_tol=1e-30))
    assert time.perf_counter() - tic < 2.0
    assert err.value.diagnostics["h"] < 1e-16 * err.value.diagnostics["t"]


def test_single_particle_stationary():
    st = ParticleState(0.0, [0.3], [1])
    res = simulate(st, log_potential(), 1.0, None, 1.0)
    assert res.state.x[0] == 0.3
    assert len(res.events) == 0


def test_three_particle_symmetric_survivor():
    st = ParticleState(0.0, [-0.6, 0.0, 0.6], [1, -1, 1])
    res = simulate(st, log_potential(), 1.0, None, 2.0)
    assert len(res.events) == 1
    ev = res.events.events[0]
    assert tuple(ev.b_before) == (1, -1, 1)
    assert sum(ev.b_after) == 1
    assert ev.y == pytest.approx(0.0, abs=1e-6)
    assert res.state.net_charge == 1


def test_snapshots_land_on_requested_times():
    st = ParticleState(0.0, [-0.5, 0.5], [1, 1])
    res = simulate(st, log_potential(), 1.0, None, 0.5, t_eval=[0.1, 0.25, 0.5])
    assert [s.t for s in res.snapshots] == [0.1, 0.25, 0.5]


def test_snapshot_within_round_off_of_start_taken_there():
    # a request within 1e-12 max(1, |t0|) of t0 is taken at t0, unmoved,
    # and so is one before t0
    st = ParticleState(2.0, [-0.5, 0.5], [1, 1])
    res = simulate(st, log_potential(), 1.0, None, 2.5,
                   t_eval=[1.5, 2.0 + 1e-12])
    assert [s.t for s in res.snapshots] == [1.5, 2.0 + 1e-12]
    for snap in res.snapshots:
        assert snap.x.tobytes() == st.x.tobytes()


# ---------------------------------------------------------------------------
# annihilation rule
# ---------------------------------------------------------------------------

def test_annihilate_pair():
    st = ParticleState(0.0, [-1e-7, 1e-7], [1, -1])
    out = annihilate(st, [0, 1], 0.0)
    assert np.array_equal(out.b, [0, 0])
    assert np.allclose(out.x, 0.0)


def test_annihilate_triple_keeps_leftmost_rule():
    st = ParticleState(0.0, [-1e-7, 0.0, 1e-7], [1, -1, 1])
    out = annihilate(st, [0, 1, 2], 0.0)
    # leftmost adjacent pair removed first; the rightmost positive survives
    assert np.array_equal(out.b, [0, 0, 1])


def test_annihilate_quadruple_all_neutral():
    st = ParticleState(0.0, [-3e-7, -1e-7, 1e-7, 3e-7], [1, -1, 1, -1])
    out = annihilate(st, [0, 1, 2, 3], 0.0)
    assert np.array_equal(out.b, [0, 0, 0, 0])


def test_annihilate_rejects_non_alternating():
    st = ParticleState(0.0, [-1e-7, 1e-7], [1, 1])
    with pytest.raises(InvariantViolationError):
        annihilate(st, [0, 1], 0.0)


def test_local_charge_conservation_at_events():
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(-1, 1, 20))
    b = rng.choice([-1, 1], 20)
    res = simulate(ParticleState(0.0, x, b), log_potential(), 1.0, None, 0.2)
    for ev in res.events:
        assert sum(ev.b_after) == sum(ev.b_before)
        assert abs(sum(ev.b_before)) <= 1
        signs = list(ev.b_before)
        assert all(signs[k] * signs[k + 1] == -1 for k in range(len(signs) - 1))


# ---------------------------------------------------------------------------
# collision detection
# ---------------------------------------------------------------------------

def test_detect_collision_two_sample_fit():
    # gap law d^2 = 2 (tau - t) around tau = 0.5; gaps below the trigger
    def state_at(t):
        d = np.sqrt(2.0 * (0.5 - t))
        return ParticleState(t, [-d / 2, d / 2], [1, -1])
    prev = state_at(0.5 - 3.2e-11)   # gap 8e-6
    cur = state_at(0.5 - 1.25e-11)   # gap 5e-6
    hit = detect_collision(cur, prev, 0.0)
    assert hit is not None
    tau, clusters = hit
    assert tau == pytest.approx(0.5, rel=1e-6)
    assert [i for i, _ in clusters[0]] == [0, 1]


def test_event_radii():
    assert _event_radii(0.0) == (1e-5, 8e-5)
    # at a = 1.5 the unit-rate gap cap GAP_FACTOR d^3.5 reaches
    # H_COLLISION_FLOOR above 1e-5
    r_trig, r_cluster = _event_radii(1.5)
    assert r_trig == pytest.approx(
        (H_COLLISION_FLOOR / GAP_FACTOR) ** (1 / 3.5), rel=1e-12)
    assert r_trig == pytest.approx(2.35e-4, abs=1e-5)
    assert r_cluster == 8.0 * r_trig


def test_detect_collision_trigger_grows_with_exponent():
    # a closing pair 2e-4 apart is under the a = 1.5 trigger, not the a = 0 one
    prev = ParticleState(0.0, [-1.05e-4, 1.05e-4], [1, -1])
    cur = ParticleState(1e-9, [-1e-4, 1e-4], [1, -1])
    hit = detect_collision(cur, prev, 1.5)
    assert hit is not None and [i for i, _ in hit[1][0]] == [0, 1]
    assert detect_collision(cur, prev, 0.0) is None


def test_detect_collision_none_above_radius():
    a = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    b = ParticleState(0.01, [-0.49, 0.49], [1, -1])
    assert detect_collision(b, a, 0.0) is None


def test_detect_collision_opening_gap_resumes():
    a = ParticleState(0.0, [-1e-6, 1e-6], [1, -1])
    b = ParticleState(0.01, [-2e-6, 2e-6], [1, -1])
    assert detect_collision(b, a, 0.0) is None


def test_same_sign_squeeze_never_fires():
    # strong confining field pushes two positives together; their gap stays
    # bounded below and no event fires
    fld = make_field({"kind": "harmonic", "k": 8.0})
    st = ParticleState(0.0, [-0.2, 0.2], [1, 1])
    res = simulate(st, log_potential(), 1.0, fld, 1.0)
    assert len(res.events) == 0
    d = res.diagnostics.arrays()
    assert np.min(d["d_plus"]) > 1e-2


# ---------------------------------------------------------------------------
# invariants along runs
# ---------------------------------------------------------------------------

def _random_state(rng, n):
    x = np.sort(rng.uniform(-1, 1, n)) + np.arange(n) * 1e-9
    b = rng.choice([-1, 1], n)
    return ParticleState(0.0, x, b)


@pytest.mark.parametrize("seed,potname", [(0, "log"), (1, "wall"), (2, "log")])
def test_invariant_bundle_random_runs(seed, potname):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 33))
    st = _random_state(rng, n)
    pot = log_potential() if potname == "log" else wall_potential()
    alpha = 1.0 if potname == "log" else float(np.sqrt(n))
    res = simulate(st, pot, alpha, None, 0.1)
    d = res.diagnostics.arrays()

    # d+- nondecreasing (U = 0), tolerance 1e-8 per step
    for key in ("d_plus", "d_minus"):
        v = d[key]
        fin = np.isfinite(v[:-1]) & np.isfinite(v[1:])
        with np.errstate(invalid="ignore"):
            steps_ok = np.diff(v)[fin] >= -1e-8
        assert np.all(steps_ok)

    # first moment conserved
    assert np.max(np.abs(d["m1"] - d["m1"][0])) <= 1e-8 * max(res.state.t, 1.0)

    # net charge exactly conserved
    assert res.state.net_charge == st.net_charge

    # energy nonincreasing away from collisions
    e = d["energy"]
    taus = [ev.tau for ev in res.events]
    for k in range(len(e) - 1):
        near_event = any(abs(d["t"][k] - tq) < 1e-3 or abs(d["t"][k + 1] - tq) < 1e-3
                         for tq in taus)
        if not near_event and np.isfinite(e[k]) and np.isfinite(e[k + 1]):
            assert e[k + 1] <= e[k] + 1e-7


def test_energy_matches_gradient_flow_rate():
    # dE/dt = -(1/n) sum v_i^2 between events
    pot = log_potential()
    st = ParticleState(0.0, [-0.7, -0.1, 0.4, 1.1], [1, 1, -1, -1])
    h = 1e-6
    res = simulate(st, pot, 1.0, None, h)
    e0 = energy(st, pot, 1.0)
    e1 = energy(res.state, pot, 1.0)
    v = velocities(st, pot, 1.0)
    expected = -np.sum(v ** 2) / st.n
    assert (e1 - e0) / h == pytest.approx(expected, rel=1e-3)


def test_d_plus_lower_bound_with_field():
    fld = make_field({"kind": "harmonic", "k": 4.0})
    rng = np.random.default_rng(5)
    st = _random_state(rng, 12)
    res = simulate(st, log_potential(), 1.0, fld, 0.3)
    d = res.diagnostics.arrays()
    dp = d["d_plus"][np.isfinite(d["d_plus"])]
    if len(dp):
        assert np.min(dp) >= min(dp[0], 1e-3)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_stability_zero_sigma_identical():
    st = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    rep = stability_experiment(st, [0.0], log_potential(), 1.0, None, 1.0)
    assert rep.sup_distance_pre[0] == 0.0
    assert rep.sup_distance_post[0] == 0.0
    assert rep.charges_match[0]


def test_stability_two_particle_linear_in_sigma():
    st = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    rep = stability_experiment(st, [1e-4], log_potential(), 1.0, None, 1.0,
                               seed=0)
    # perturbed gap d0 + delta collides at (d0 + delta)^2 / 2
    assert rep.collision_time_shift[0] <= 3e-4
    assert rep.sup_distance_pre[0] <= 1e-2
    assert rep.charges_match[0]


def test_stability_triple_survivor_sign():
    st = ParticleState(0.0, [-0.6, 0.0, 0.6], [1, -1, 1])
    rep = stability_experiment(st, [1e-3, 1e-4], log_potential(), 1.0, None,
                               2.0, seed=3, exclusion_halfwidth=0.15)
    assert all(rep.charges_match)
    # the perturbed cluster may split, but the deviation shrinks with sigma
    assert rep.sup_distance_post[1] <= rep.sup_distance_post[0]


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_each_charge_jumps_at_most_once():
    rng = np.random.default_rng(17)
    x = np.sort(rng.uniform(-1, 1, 24))
    b = rng.choice([-1, 1], 24)
    res = simulate(ParticleState(0.0, x, b), log_potential(), 1.0, None, 0.15)
    assert len(res.events) >= 1
    jump_count = np.zeros(24, dtype=int)
    for ev in res.events:
        for idx, bb, ba in zip(ev.indices, ev.b_before, ev.b_after):
            if bb != ba:
                assert abs(bb) == 1 and ba == 0
                jump_count[idx] += 1
    assert np.max(jump_count) <= 1


def test_stiffness_error_without_collision(monkeypatch):
    # a same-sign pair, and an opposite pair closing far from contact; at
    # the default H_MIN steps near 1e-14 are accepted and the run crawls
    # to the step budget
    from signedflow import StiffnessError
    monkeypatch.setattr(signedflow.dynamics, "H_MIN", 1e-9)
    monkeypatch.setattr(signedflow.dynamics, "H_INIT", 1e-8)
    for b in ([1, 1], [1, -1]):
        st = ParticleState(0.0, [-0.5, 0.5], b)
        with pytest.raises(StiffnessError) as err:
            simulate(st, log_potential(), 1.0, None, 1.0,
                     opts=IntegratorOptions(rk_tol=1e-30))
        assert "t" in err.value.diagnostics
        gap = err.value.diagnostics["min_opposite_gap"]
        assert math.isfinite(gap) == (b[1] < 0)


def test_step_underflow_detected_at_large_time(monkeypatch):
    # beyond |t| = 100 the round-off floor 1e-16 |t| exceeds H_MIN: a
    # rejection at the floor is an underflow, not an attempt to repeat
    # until the step budget runs out.  At rk_tol = 1e-40 every attempt is
    # rejected, the floor's included
    from signedflow import StiffnessError
    monkeypatch.setattr(signedflow.dynamics, "MAX_STEPS", 1000)
    st = ParticleState(1e3, [-0.5, 0.5], [1, 1])
    with pytest.raises(StiffnessError, match="step underflow") as err:
        simulate(st, log_potential(), 1.0, None, 1e3 + 1.0,
                 opts=IntegratorOptions(rk_tol=1e-40))
    assert err.value.diagnostics["h"] == 1e-16 * 1e3


@pytest.mark.parametrize("kwargs", [
    pytest.param({"rk_tol": -1e-9}, id="kwargs0"),
    pytest.param({"rk_tol": 0.0}, id="kwargs1"),
    pytest.param({"rk_tol": float("nan")}, id="kwargs5")])
def test_integrator_options_reject_nonpositive(kwargs):
    with pytest.raises(ValueError, match="must be positive"):
        IntegratorOptions(**kwargs)


def test_monotonicity_warning_for_nonmonotone_force():
    from signedflow import custom_potential
    pot = custom_potential(
        [lambda x: -(x - 1.0) ** 2, lambda x: -2.0 * (x - 1.0),
         lambda x: -2.0 * np.ones_like(x)],
        name="concave", singularity_exponent=0.0)
    st = ParticleState(0.0, [-0.5, 0.5], [1, 1])
    with pytest.warns(RuntimeWarning):
        simulate(st, pot, 1.0, None, 1e-4)


def test_trajectory_csv_and_event_jsonl():
    import json
    st = ParticleState(0.0, [-0.5, 0.5], [1, -1])
    res = simulate(st, log_potential(), 1.0, None, 0.6, t_eval=[0.2, 0.6])
    csv = res.trajectory_csv()
    assert csv.splitlines()[0] == "t,x_0,x_1,b_0,b_1"
    assert len(csv.splitlines()) == 3
    lines = res.events.to_jsonl().splitlines()
    ev = json.loads(lines[0])
    assert set(ev) == {"tau", "y", "indices", "b_before", "b_after"}
