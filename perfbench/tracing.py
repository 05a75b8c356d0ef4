"""Per-layer counters for the traced run.

The traced run wraps public names of signedflow at the module attribute the
program looks them up through, and the derivative evaluators of each
workload's potentials.  A wrapper counts calls, points (for evaluators) and
wall time.  An evaluator also adds its time to every wrapped call it ran
under, so a layer's self time is its time minus that of the evaluators it
called.

A name that no longer exists is recorded as an absent layer; its metrics
read 0 and the run goes on.
"""

import contextlib
import dataclasses
import inspect
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs wrapped for the traced run, with the layer name.
# Each is the binding the caller resolves at call time: ``kernel_second_moment``
# as ``pde`` imported it, ``annihilate`` as ``dynamics`` calls it.
TARGETS = (
    ("signedflow.dynamics", "simulate", "dynamics.simulate"),
    ("signedflow.dynamics", "annihilate", "dynamics.annihilate"),
    ("signedflow.pde", "solve_local", "pde.local"),
    ("signedflow.pde", "solve_nonlocal", "pde.nonlocal"),
    ("signedflow.pde", "MobilityTable.build", "pde.mobility_build"),
    ("signedflow.pde", "kernel_second_moment", "pde.kernel_second_moment"),
    ("signedflow.hamiltonians", "quantized_nonlocal",
     "hamiltonians.quantized_nonlocal"),
    ("signedflow.hamiltonians", "quartic_probe_value",
     "hamiltonians.quartic_probe_value"),
    ("signedflow.harness", "quartic_envelope", "harness.quartic_envelope"),
)
ORDERS = (0, 1, 2)   # potential evaluators that are reported

# name -> (unit, better); every traced run reports all of them
PER_LAYER = {}
for _k in ORDERS:
    PER_LAYER.update({
        f"potentials.d{_k}.calls": ("count", "lower"),
        f"potentials.d{_k}.points": ("count", "lower"),
        f"potentials.d{_k}.s": ("s", "lower"),
        f"potentials.d{_k}.ns_per_point": ("ns", "lower"),
    })
PER_LAYER.update({
    "dynamics.steps": ("count", "lower"),
    "dynamics.force_evals": ("count", "lower"),
    "dynamics.evals_per_step": ("ratio", "lower"),
    "dynamics.simulate.s": ("s", "lower"),
    "dynamics.us_per_step": ("us", "lower"),
    "dynamics.self_s": ("s", "lower"),
    "dynamics.events": ("count", "higher"),
    "dynamics.annihilate.calls": ("count", "lower"),
    "dynamics.annihilate.s": ("s", "lower"),
    "pde.local.steps": ("count", "lower"),
    "pde.local.us_per_step": ("us", "lower"),
    "pde.local.s": ("s", "lower"),
    "pde.local.dt_min": ("model_time", "higher"),
    "pde.mobility_builds": ("count", "lower"),
    "pde.mobility_build.s": ("s", "lower"),
    "pde.nonlocal.steps": ("count", "lower"),
    "pde.nonlocal.ms_per_step": ("ms", "lower"),
    "pde.nonlocal.s": ("s", "lower"),
    "pde.nonlocal.dt_min": ("model_time", "higher"),
    "pde.kernel_second_moment.s": ("s", "lower"),
    "hamiltonians.probe_values": ("count", "lower"),
    "hamiltonians.quartic_probe_value.us_per_call": ("us", "lower"),
    "hamiltonians.quantized_nonlocal.calls": ("count", "lower"),
    "hamiltonians.quantized_nonlocal.s": ("s", "lower"),
    "harness.quartic_envelope.calls": ("count", "lower"),
    "harness.quartic_envelope.s": ("s", "lower"),
})


@dataclasses.dataclass
class _Stat:
    calls: int = 0
    points: int = 0
    s: float = 0.0
    # time and calls of wrapped evaluators that ran below this layer
    nested_s: float = 0.0
    nested_calls: dict = dataclasses.field(default_factory=lambda: defaultdict(int))


class NullTracer:
    """Untraced runs: potentials pass through and nothing is wrapped."""

    absent = ()
    active = False

    def potential(self, pot):
        return pot

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not counted (input building, checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was


class Tracer(NullTracer):
    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.stack = []         # one frame per open wrapped call
        self.active = True
        self.absent = []
        self._restore = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn, evaluator):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = _Stat()
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                st = self.stats[name]
                st.calls += 1
                st.s += dt
                st.nested_s += frame.nested_s
                for k, v in frame.nested_calls.items():
                    st.nested_calls[k] += v
                if evaluator:
                    st.points += int(np.size(args[0]))
                    for outer in self.stack:
                        outer.nested_s += dt
                        outer.nested_calls[name] += 1
        return wrapper

    def potential(self, pot):
        """The potential with its derivative evaluators wrapped."""
        try:
            derivs = tuple(self._wrap(f"potentials.d{k}", f, True) if k in ORDERS
                           else f for k, f in enumerate(pot.derivs))
            return dataclasses.replace(pot, derivs=derivs)
        except (AttributeError, TypeError) as exc:
            self._mark_absent("potentials", exc)
            return pot

    def install(self, modules):
        """Wrap every target; ``modules`` maps module names to modules."""
        for mod_name, attr, name in TARGETS:
            owner = modules.get(mod_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except AttributeError as exc:
                self._mark_absent(name, exc)
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(name, fn, False)
            setattr(owner, leaf,
                    staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._restore.append((owner, leaf, raw))

    def uninstall(self):
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore.clear()

    def _mark_absent(self, name, exc):
        if name not in self.absent:
            self.absent.append(name)
            print(f"perfbench: layer {name} absent ({exc}); its metrics read 0")

    # -- report ----------------------------------------------------------

    def metrics(self, passes, counters):
        """Per-layer metrics per pass.  ``counters`` holds totals over the
        run read from the results: dynamics.steps, dynamics.events,
        pde.local.steps, pde.nonlocal.steps, and the dt minima."""
        st = self.stats
        out = {}

        def per(v):
            return v / passes

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        for k in ORDERS:
            s = st[f"potentials.d{k}"]
            out[f"potentials.d{k}.calls"] = per(s.calls)
            out[f"potentials.d{k}.points"] = per(s.points)
            out[f"potentials.d{k}.s"] = per(s.s)
            out[f"potentials.d{k}.ns_per_point"] = ratio(s.s, s.points, 1e9)
        sim = st["dynamics.simulate"]
        steps = counters.get("dynamics.steps", 0)
        evals = sim.nested_calls.get("potentials.d1", 0)
        out["dynamics.steps"] = per(steps)
        out["dynamics.force_evals"] = per(evals)
        out["dynamics.evals_per_step"] = ratio(evals, steps)
        out["dynamics.simulate.s"] = per(sim.s)
        out["dynamics.us_per_step"] = ratio(sim.s, steps, 1e6)
        out["dynamics.self_s"] = per(sim.s - sim.nested_s)
        out["dynamics.events"] = per(counters.get("dynamics.events", 0))
        out["dynamics.annihilate.calls"] = per(st["dynamics.annihilate"].calls)
        out["dynamics.annihilate.s"] = per(st["dynamics.annihilate"].s)
        for key, scale, unit_key in (("local", 1e6, "us_per_step"),
                                     ("nonlocal", 1e3, "ms_per_step")):
            s = st[f"pde.{key}"]
            n = counters.get(f"pde.{key}.steps", 0)
            out[f"pde.{key}.steps"] = per(n)
            out[f"pde.{key}.{unit_key}"] = ratio(s.s, n, scale)
            out[f"pde.{key}.s"] = per(s.s)
            out[f"pde.{key}.dt_min"] = counters.get(f"pde.{key}.dt_min", 0.0)
        out["pde.mobility_builds"] = per(st["pde.mobility_build"].calls)
        out["pde.mobility_build.s"] = per(st["pde.mobility_build"].s)
        out["pde.kernel_second_moment.s"] = per(st["pde.kernel_second_moment"].s)
        probe = st["hamiltonians.quartic_probe_value"]
        out["hamiltonians.probe_values"] = per(probe.calls)
        out["hamiltonians.quartic_probe_value.us_per_call"] = ratio(probe.s, probe.calls, 1e6)
        qn = st["hamiltonians.quantized_nonlocal"]
        out["hamiltonians.quantized_nonlocal.calls"] = per(qn.calls)
        out["hamiltonians.quantized_nonlocal.s"] = per(qn.s)
        env = st["harness.quartic_envelope"]
        out["harness.quartic_envelope.calls"] = per(env.calls)
        out["harness.quartic_envelope.s"] = per(env.s)
        assert set(out) == set(PER_LAYER)
        return out
