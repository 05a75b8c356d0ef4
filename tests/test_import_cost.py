"""What ``import signedflow`` and the force evaluators load.

The benchmark's ``setup_s`` times a fresh interpreter up to its inputs, so
the package imports scipy only inside the functions that use it, and the
force evaluators stay off numpy's lazily imported ``numpy.ma``.  Each check
runs in a fresh interpreter, as a test process has imported both already.
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


def test_import_and_forces_load_neither_scipy_nor_numpy_ma():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == {"import": [], "forces": []}
