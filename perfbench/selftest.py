"""Self-tests of the benchmark's checks and tracing, on synthetic outputs.

Each check must pass an exact answer and reject a wrong one.  Needs numpy
only, not signedflow:

    python3 perfbench/selftest.py
"""

import math
import sys
import types

import numpy as np

import oracles
import tracing


def _has(fails, word):
    return any(word in f for f in fails)


def test_collide_rejects_flipped_charge():
    x0 = np.array([-0.5, -0.1, 0.2, 0.6])
    b0 = np.array([1, -1, 1, -1])
    x1 = np.array([-0.3, -0.3, 0.2, 0.6])   # pair (0, 1) met at its mean
    b1 = np.array([0, 0, 1, -1])
    gaps = [np.inf, np.inf]
    ok = oracles.check_annihilating_run("t", x0, b0, 0.1, x1, b1, [(1, -1)], gaps, gaps)
    assert ok == [], ok
    flipped = b1.copy()
    flipped[3] = 1
    assert _has(oracles.check_annihilating_run("t", x0, b0, 0.1, x1, flipped,
                                               [(1, -1)], gaps, gaps), "net charge")
    assert _has(oracles.check_annihilating_run("t", x0, b0, 0.1, x1 + 1e-6, b1,
                                               [(1, -1)], gaps, gaps), "moment")
    assert _has(oracles.check_annihilating_run("t", x0, b0, 0.1, x1, b1,
                                               [(1, 1)], gaps, gaps), "alternate")
    assert _has(oracles.check_annihilating_run("t", x0, b0, 0.1, x1, b1,
                                               [(1, 1, 1)], gaps, gaps), "net charge")
    assert _has(oracles.check_annihilating_run("t", x0, b0, 0.1, x1, b1, [(1, -1)],
                                               [0.2, 0.1], gaps), "d_plus")


def test_pair_rejects_wrong_tau():
    d0, a = 0.7, 0.5
    assert oracles.check_pair_collision("p", d0 ** 2.5, d0, a) == []
    assert oracles.check_pair_collision("p", d0 ** 2.5 * (1 + 1e-4), d0, a)
    assert oracles.check_pair_collision("p", None, d0, a)


def _exact_repel(n=300, t0=1.0, ts=(1.1, 1.2)):
    x0 = oracles.m2_mid_quantiles(t0, n)
    snaps = [(t, oracles.m2_mid_quantiles(t, n)) for t in ts]
    d_plus = [float(np.min(np.diff(x))) for x in [x0] + [x for _, x in snaps]]
    return n, math.sqrt(n), t0, x0, snaps, d_plus


def test_repel_rejects_shifted_staircase():
    n, alpha, t0, x0, snaps, d_plus = _exact_repel()
    ones = np.ones(n)
    ok = oracles.check_repel(n, alpha, t0, x0, snaps[-1][1], ones, 0, d_plus, snaps)
    assert ok == [], ok
    # the staircase raised by 5/n: five charges moved from the right end to far left
    x = snaps[-1][1].copy()
    x[-5:] = -50.0 - np.arange(5)
    bad = snaps[:-1] + [(snaps[-1][0], x)]
    fails = oracles.check_repel(n, alpha, t0, x0, x, ones, 0, d_plus, bad)
    assert _has(fails, "staircase"), fails
    assert _has(oracles.check_repel(n, alpha, t0, x0, snaps[-1][1], ones, 2,
                                    d_plus, snaps), "events")


def test_repel_rejects_rising_energy():
    n, alpha, t0, x0, snaps, d_plus = _exact_repel()
    # running the profile backwards in time concentrates it
    back = [(t, oracles.m2_mid_quantiles(2 * t0 - t, n)) for t, _ in snaps]
    fails = oracles.check_repel(n, alpha, t0, x0, back[-1][1], np.ones(n), 0,
                                [0.0], back)
    assert _has(fails, "energy"), fails


def test_staircase_error_of_exact_quantiles():
    for n in (10, 300):
        x = oracles.m2_mid_quantiles(1.0, n)
        err = oracles.staircase_error(x, np.ones(n), n,
                                      lambda y: oracles.m2_primitive(1.0, y))
        assert abs(err - 0.5 / n) < 1e-9, (n, err)


def test_local_rejects_unevolved_profile():
    xs = np.linspace(-3.2, 3.2, 512)
    u0 = oracles.m2_primitive(1.0, xs)
    assert oracles.check_local_m2(xs, u0, oracles.m2_primitive(1.5, xs), 1.5) == []
    assert _has(oracles.check_local_m2(xs, u0, u0, 1.5), "L1")
    assert _has(oracles.check_local_m2(xs, u0, oracles.m2_primitive(1.5, xs) + 1e-3,
                                       1.5), "range")


def test_nonlocal_rejects_wrong_spreading_law():
    xs = np.linspace(-3.0, 3.0, 512)
    u0 = oracles.semicircle_primitive(1.0, xs)
    good = oracles.semicircle_primitive(oracles.semicircle_radius(1.0, 0.2), xs)
    assert oracles.check_semicircle(xs, u0, good, 1.0, 0.2) == []
    wrong = oracles.semicircle_primitive(math.sqrt(1.0 + 2 * 0.2), xs)
    assert _has(oracles.check_semicircle(xs, u0, wrong, 1.0, 0.2), "sup error")


def test_probe_sweep_rejects_negative_value():
    rows = [(eps, g, 10.0 + g * g) for eps in (1e-2, 1e-3, 1e-4)
            for g in (-1.0, -0.1, 0.1, 1.0)]
    assert oracles.check_probe_sweep("s", rows, 1e-9) == []
    neg = rows[:3] + [(rows[3][0], rows[3][1], -1e-6)] + rows[4:]
    assert _has(oracles.check_probe_sweep("s", neg, 1e-9), "below")
    drift = [(e, g, v * (1.5 if e == 1e-4 else 1.0)) for e, g, v in rows]
    assert _has(oracles.check_probe_sweep("s", drift, 1e-9), "disagree")


def test_quantized_rejects_wrong_limit():
    d2 = -math.sin(0.3)
    good = [(1e-4, oracles.WALL_L1 * d2 * 1.002, 0.0)]
    assert oracles.check_quantized_m2(good, d2) == []
    assert oracles.check_quantized_m2([(1e-4, oracles.WALL_L1 * d2 * 1.1, 0.0)], d2)
    assert oracles.check_quantized_m2([(1e-3, oracles.WALL_L1 * d2, 0.0)], d2)


def test_envelope_rejects_minorant():
    phi = np.sin(np.linspace(-2, 2, 64))
    assert oracles.check_majorizes(phi, phi + 0.1) == []
    env = phi.copy()
    env[10] -= 1e-6
    assert oracles.check_majorizes(phi, env)


def test_absent_layer_reads_zero():
    tracer = tracing.Tracer()
    tracer.install({"signedflow.dynamics": types.SimpleNamespace()})
    assert "dynamics.simulate" in tracer.absent
    assert "harness.quartic_envelope" in tracer.absent
    assert tracer.potential(object()) is not None
    assert "potentials" in tracer.absent
    metrics = tracer.metrics(1, {})
    assert set(metrics) == set(tracing.PER_LAYER)
    assert all(v == 0 for v in metrics.values())


def test_wrappers_count_nested_evaluators():
    tracer = tracing.Tracer()
    pot = types.SimpleNamespace(derivs=(np.negative, np.reciprocal, np.square))
    fake_pot = tracer._wrap("potentials.d1", pot.derivs[1], True)

    def simulate(x):
        return fake_pot(x) + fake_pot(x)

    mod = types.SimpleNamespace(simulate=simulate)
    tracer.install({"signedflow.dynamics": mod})
    mod.simulate(np.ones(5))
    with tracer.paused():
        mod.simulate(np.ones(5))
    tracer.uninstall()
    assert mod.simulate is simulate
    m = tracer.metrics(1, {"dynamics.steps": 2})
    assert m["potentials.d1.calls"] == 2 and m["potentials.d1.points"] == 10
    assert m["dynamics.force_evals"] == 2 and m["dynamics.evals_per_step"] == 1.0
    assert 0 <= m["dynamics.self_s"] <= m["dynamics.simulate.s"]


def main():
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
