"""The benchmark's workloads: inputs, one pass of calls into signedflow, and
the checks of that pass's outputs.

Every call into the program goes through a module attribute
(``dynamics.simulate``, ``pde.solve_local``, ...) so that the traced run sees
it.  ``build`` makes fresh inputs, a fresh ``Potential`` included, because
``l1_norm`` caches on the instance and a user of the command line pays that
cost on every run.
"""

import math

import numpy as np
from signedflow import dynamics, hamiltonians, harness, pde, potentials

import oracles

# collide: C2-style runs at a fixed ladder of particle counts, alternating
# log (alpha = 1) and wall (alpha = sqrt n), and C1's power-law pairs
COLLIDE_LADDER = (8, 10, 12, 14, 16, 18)
COLLIDE_T_END = 0.1
PAIR_EXPONENTS = (0.0, 0.5, 1.5)

# repel: single-sign wall particles, m = 2, on the self-similar profile
REPEL_N = 300
REPEL_T0 = 1.0
REPEL_T = 0.2

# continuum: C8's self-similar m = 2 profile, and a log semicircle
LOCAL_N, LOCAL_L, LOCAL_T0, LOCAL_T = 512, 3.2, 1.0, 0.5
NONLOCAL_N, NONLOCAL_L, NONLOCAL_R0, NONLOCAL_T, NONLOCAL_RHO = 512, 3.0, 1.0, 0.2, 0.5

# verify: C7's probe sweep, the m = 2 quantized operator, an infeasible envelope
QUAD_TOL = 1e-9
PROBE_K, PROBE_L = 2.0, 2.0
PROBE_EPS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
_HALF = np.geomspace(1e-3, 1.0, 12)
PROBE_GAMMAS = np.concatenate([-_HALF[::-1], _HALF])
RHS_X = 0.3
RHS_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
ENV_N, ENV_K = 512, 4.0


class Collide:
    """Step control near collisions, event extrapolation and annihilation,
    at small particle counts where per-call overhead dominates."""

    name = "collide"

    def build(self, seed, tracer):
        rng = np.random.default_rng(seed)
        runs = []
        for k, n in enumerate(COLLIDE_LADDER):
            x = np.sort(rng.uniform(-1.0, 1.0, n)) + np.arange(n) * 1e-9
            # zero net charge: the seeds' spread in step count is a third of
            # that under independent +-1 draws
            b = rng.permutation(np.repeat([-1, 1], n // 2))
            if k % 2 == 0:
                pot, alpha = potentials.log_potential(), 1.0
            else:
                pot, alpha = potentials.wall_potential(), math.sqrt(n)
            runs.append((dynamics.ParticleState(0.0, x, b), tracer.potential(pot), alpha))
        pairs = []
        for a in PAIR_EXPONENTS:
            d0 = float(rng.uniform(0.5, 1.0))
            st = dynamics.ParticleState(0.0, [-d0 / 2, d0 / 2], [1, -1])
            pot = tracer.potential(potentials.power_law_force_potential(a))
            pairs.append((a, d0, st, pot))
        return {"runs": runs, "pairs": pairs}

    def run(self, inp, call):
        runs = [call(dynamics.simulate, st, pot, alpha, None, COLLIDE_T_END)
                for st, pot, alpha in inp["runs"]]
        pairs = [call(dynamics.simulate, st, pot, 1.0, None,
                      1.1 * d0 ** (2.0 + a) + 0.01)
                 for a, d0, st, pot in inp["pairs"]]
        return {"runs": runs, "pairs": pairs}

    def check(self, inp, out):
        fails = []
        seen_events = 0
        for (st, _, _), res in zip(inp["runs"], out["runs"]):
            if res is None:
                continue
            d = res.diagnostics
            clusters = [ev.b_before for ev in res.events]
            seen_events += len(clusters)
            fails += oracles.check_annihilating_run(
                f"collide n={st.n}", st.x, st.b, COLLIDE_T_END, res.state.x,
                res.state.b, clusters, d.d_plus, d.d_minus)
        if all(res is not None for res in out["runs"]) and seen_events == 0:
            fails.append("collide: no event in the batch")
        for (a, d0, _, _), res in zip(inp["pairs"], out["pairs"]):
            if res is None:
                continue
            evs = list(res.events)
            fails += oracles.check_pair_collision(f"pair a={a:g}",
                                                  evs[0].tau if evs else None, d0, a)
        return fails

    def counters(self, out):
        c = {"dynamics.steps": 0, "dynamics.events": 0}
        for res in out["runs"] + out["pairs"]:
            if res is not None:
                c["dynamics.steps"] += accepted_steps(res)
                c["dynamics.events"] += len(res.events)
        return c


def accepted_steps(res):
    """Diagnostics hold one row at the start, one per accepted step and one
    after each event batch (clusters resolved at one time)."""
    batches = len({ev.tau for ev in res.events})
    return len(res.diagnostics.t) - 1 - batches


class Repel:
    """The dense force kernel and per-step diagnostics under stiff same-sign
    repulsion; the gap cap and event code stay idle."""

    name = "repel"

    def build(self, seed, tracer):
        # the seed is not used: the input is the exact profile at t0
        x0 = oracles.m2_mid_quantiles(REPEL_T0, REPEL_N)
        st = dynamics.ParticleState(REPEL_T0, x0, np.ones(REPEL_N, dtype=int))
        return {"state": st, "pot": tracer.potential(potentials.wall_potential()),
                "alpha": math.sqrt(REPEL_N)}

    def run(self, inp, call):
        t1 = REPEL_T0 + REPEL_T
        return {"res": call(dynamics.simulate, inp["state"], inp["pot"], inp["alpha"],
                            None, t1, t_eval=[REPEL_T0 + REPEL_T / 2, t1])}

    def check(self, inp, out):
        res = out["res"]
        if res is None:
            return []
        st = inp["state"]
        return oracles.check_repel(
            REPEL_N, inp["alpha"], REPEL_T0, st.x, res.state.x, res.state.b,
            len(res.events), res.diagnostics.d_plus,
            [(s.t, s.x) for s in res.snapshots])

    def counters(self, out):
        res = out["res"]
        if res is None:
            return {}
        return {"dynamics.steps": accepted_steps(res),
                "dynamics.events": len(res.events)}


class Continuum:
    """The limit-equation solvers alone: many cheap local steps and few dense
    nonlocal ones."""

    name = "continuum"

    def build(self, seed, tracer):
        xs = np.linspace(-LOCAL_L, LOCAL_L, LOCAL_N)
        local = pde.GridFunction(-LOCAL_L, xs[1] - xs[0],
                                 oracles.m2_primitive(LOCAL_T0, xs), 0.0, 1.0)
        xn = np.linspace(-NONLOCAL_L, NONLOCAL_L, NONLOCAL_N)
        nonlocal_ = pde.GridFunction(-NONLOCAL_L, xn[1] - xn[0],
                                     oracles.semicircle_primitive(NONLOCAL_R0, xn),
                                     0.0, 1.0)
        return {"local": local, "wall": tracer.potential(potentials.wall_potential()),
                "nonlocal": nonlocal_, "log": tracer.potential(potentials.log_potential())}

    def run(self, inp, call):
        return {
            "local": call(pde.solve_local, inp["local"], 2, inp["wall"], 1.0, None,
                          LOCAL_T),
            "nonlocal": call(pde.solve_nonlocal, inp["nonlocal"], inp["log"], 1.0,
                             None, NONLOCAL_T, rho=NONLOCAL_RHO),
        }

    def check(self, inp, out):
        fails = []
        if out["local"] is not None:
            u0 = inp["local"]
            fails += oracles.check_local_m2(u0.xs, u0.values, out["local"][0].values,
                                            LOCAL_T0 + LOCAL_T)
        if out["nonlocal"] is not None:
            u0 = inp["nonlocal"]
            fails += oracles.check_semicircle(u0.xs, u0.values,
                                              out["nonlocal"][0].values,
                                              NONLOCAL_R0, NONLOCAL_T)
        return fails

    def counters(self, out):
        c = {}
        for key in ("local", "nonlocal"):
            if out[key] is not None:
                info = out[key][1]
                c[f"pde.{key}.steps"] = info.steps
                c[f"pde.{key}.dt_min"] = info.dt_min
        return c


class Verify:
    """The verification layer: exact quantized-operator sums and the
    quartic-well envelope, whose bisection runs on this infeasible input."""

    name = "verify"

    def build(self, seed, tracer):
        # the seed is not used: C7's probe grid and a fixed envelope input
        sweeps = [
            ("log m1", tracer.potential(potentials.log_potential()),
             potentials.ScalingRegime(m=1, alpha=1.0)),
            ("wall m2", tracer.potential(potentials.wall_potential()),
             potentials.ScalingRegime(m=2)),
            ("wall m3", tracer.potential(potentials.wall_potential()),
             potentials.ScalingRegime(m=3, beta=1.0)),
        ]
        xs = np.linspace(-2.0, 2.0, ENV_N)
        return {"sweeps": sweeps, "wall": tracer.potential(potentials.wall_potential()),
                "phi": hamiltonians.TestFunction.sin(),
                "env_xs": xs, "env_phi": 0.3 * np.sin(3.0 * xs)}

    def run(self, inp, call):
        sweeps = [call(hamiltonians.quartic_probe_sweep, pot, reg, PROBE_K, PROBE_L,
                       PROBE_EPS, PROBE_GAMMAS, QUAD_TOL)
                  for _, pot, reg in inp["sweeps"]]
        table = call(hamiltonians.rhs_convergence_table, inp["phi"], RHS_X, 2,
                     inp["wall"], potentials.ScalingRegime(m=2), RHS_EPS, QUAD_TOL)
        env = call(harness.quartic_envelope, inp["env_xs"], inp["env_phi"], ENV_K)
        return {"sweeps": sweeps, "table": table, "env": env}

    def check(self, inp, out):
        fails = []
        for (tag, _, _), res in zip(inp["sweeps"], out["sweeps"]):
            if res is not None:
                fails += oracles.check_probe_sweep(tag, res[0], QUAD_TOL)
        if out["table"] is not None:
            fails += oracles.check_quantized_m2(out["table"][0], -math.sin(RHS_X))
        env = out["env"]
        if env is not None:
            fails += oracles.check_majorizes(inp["env_phi"], env.env)
            if not env.check_well_property():
                fails.append("envelope: well property fails")
            k = env.min_feasible_K
            if k is None or not k > ENV_K:
                fails.append(f"envelope: input reported feasible at K={ENV_K:g}")
            elif not harness.quartic_envelope(inp["env_xs"], inp["env_phi"], k).feasible:
                fails.append(f"envelope: infeasible at min_feasible_K={k:.6g}")
        return fails

    def counters(self, out):
        return {}


WORKLOADS = {w.name: w for w in (Collide(), Repel(), Continuum(), Verify())}
