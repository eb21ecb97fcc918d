"""The package runs on numpy alone: no scipy module loads on import or on a
call into any layer.  A one-worker run also leaves numpy.ma, numpy.random
and the process machinery unloaded: np.unique's masked check, random
search starts and AMID candidates, and the worker pool are their only
users, and the script below draws no random start or candidate.  It takes
the entanglement statistics of a real ground state and of an entangled
complex state with no dihedral symmetry, so both Gram paths run.  Checked
in a fresh interpreter, since this test process has loaded scipy for the
oracles."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import isingring

SRC = pathlib.Path(isingring.__file__).resolve().parents[1]

#: Modules that load only on the calls that use them.
LAZY = ("numpy.ma", "numpy.random", "multiprocessing", "concurrent.futures")

SCRIPT = """
import json, pathlib, sys, tempfile
import numpy as np
import isingring as ir, isingring.cli as cli

gs, _ = ir.ground_state(ir.RingConfig(4, 1.0, 0.8))
pair = ir.reduced_two_spin(gs, 0, 1)
ir.discord(pair), ir.mid(pair), ir.amid(pair, n_starts=4)
ir.x_state_from_correlators(ir.toeplitz_correlators(0.5, 2))
ir.entanglement_stats(gs)
phased = ir.PureState(np.exp(1j * np.arange(64) ** 2 / 8) / 8, 6)
ir.entanglement_stats(phased), ir.bipartition_entanglement(phased, (0, 2))
opt = ir.OptimizerConfig(uniform_angles=True, restarts=2, max_evals=200)
ir.global_discord(gs, opt)
table = ir.sweep(3, [0.5, 0.7, 1.0], measures=("gd",), opt=opt)
ir.find_peak(table, "gd", xtol=0.1)
ir.default_ratio_grid()
with tempfile.TemporaryDirectory() as tmp:
    path = str(pathlib.Path(tmp) / "table.csv")
    table.to_csv(path)
    assert ir.SweepTable.from_csv(path).same_as(table)
    code = cli.main(["ground-state", "--n", "2", "--b", "1.0",
                     "--out", str(pathlib.Path(tmp) / "gs.json")])
assert code == 0
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def loaded():
    """Every module loaded in a fresh interpreter by one call into each layer."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _under(modules, packages):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


def test_no_scipy_module_loads(loaded):
    assert _under(loaded, ("scipy",)) == []


def test_single_worker_calls_leave_lazy_modules_unloaded(loaded):
    assert _under(loaded, LAZY) == []
