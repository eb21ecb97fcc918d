"""The package runs on numpy alone: no scipy module loads on import or on a
call into any layer.  Checked in a fresh interpreter, since this test
process has loaded scipy for the oracles."""

import os
import pathlib
import subprocess
import sys

import isingring

SRC = pathlib.Path(isingring.__file__).resolve().parents[1]

SCRIPT = """
import json, pathlib, sys, tempfile
import isingring as ir, isingring.cli as cli

gs, _ = ir.ground_state(ir.RingConfig(4, 1.0, 0.8))
pair = ir.reduced_two_spin(gs, 0, 1)
ir.discord(pair), ir.mid(pair), ir.amid(pair, n_starts=4)
ir.x_state_from_correlators(ir.toeplitz_correlators(0.5, 2))
ir.entanglement_stats(gs)
opt = ir.OptimizerConfig(uniform_angles=True, restarts=2, max_evals=200)
ir.global_discord(gs, opt)
table = ir.sweep(3, [0.5, 0.7, 1.0], measures=("gd",), opt=opt)
ir.find_peak(table, "gd", xtol=0.1)
with tempfile.TemporaryDirectory() as tmp:
    path = str(pathlib.Path(tmp) / "table.csv")
    table.to_csv(path)
    assert ir.SweepTable.from_csv(path).same_as(table)
    code = cli.main(["ground-state", "--n", "2", "--b", "1.0",
                     "--out", str(pathlib.Path(tmp) / "gs.json")])
assert code == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_scipy_module_loads():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
