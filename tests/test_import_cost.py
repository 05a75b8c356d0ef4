"""What ``import signedflow``, the force evaluators and the quadratures load.

The benchmark's ``setup_s`` times a fresh interpreter up to its inputs, so
the package imports scipy only inside the functions that use it, and the
force evaluators stay off numpy's lazily imported ``numpy.ma``.  The
quadratures of ``l1_norm``, ``kernel_second_moment`` and the audits are
numpy's own, so the verification layer loads no scipy and a local solve
loads only LAPACK's tridiagonal solver.  Each check runs in a fresh
interpreter, as a test process has imported both already.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])
import signedflow
from signedflow import ParticleState, energy, log_potential, velocities
after_import = loaded()
st = ParticleState(0.0, [-0.5, 0.1, 0.6], [1, -1, 1])
velocities(st, log_potential(), 1.0)
energy(st, log_potential(), 1.0)
print(json.dumps({"import": after_import, "forces": loaded()}))
"""


_QUADRATURES = """
import json, sys
from signedflow import (ScalingRegime, TestFunction, audit_assumptions,
                        kernel_second_moment, l1_norm, quartic_probe_sweep,
                        rhs_convergence_table, wall_potential)
wall = wall_potential()
l1_norm(wall)
kernel_second_moment(wall, 1.0, 0.5)
audit_assumptions(wall, "hj2")
rhs_convergence_table(TestFunction.sin(), 0.3, 2, wall, ScalingRegime(m=2),
                      [1e-1])
quartic_probe_sweep(wall, ScalingRegime(m=2), 2.0, 2.0, [1e-2], [-0.5, 0.5])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_LOCAL_SOLVE = """
import json, sys
import numpy as np
from signedflow import GridFunction, solve_local, wall_potential
xs = np.linspace(-2.0, 2.0, 65)
u0 = GridFunction(-2.0, xs[1] - xs[0], 0.5 * (1 + np.tanh(2 * xs)), 0.0, 1.0)
solve_local(u0, 2, wall_potential(), 1.0, None, 0.01)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _run(probe):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_and_forces_load_neither_scipy_nor_numpy_ma():
    assert _run(_PROBE) == {"import": [], "forces": []}


def test_verification_quadratures_load_no_scipy():
    assert _run(_QUADRATURES) == []


def test_local_solve_loads_no_scipy_integrate():
    loaded = _run(_LOCAL_SOLVE)
    assert loaded, "the implicit step's tridiagonal solve comes from scipy"
    assert not [m for m in loaded if m.startswith("scipy.integrate")]
