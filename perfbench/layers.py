"""The set-up pass: one call into every layer of ``isingring`` on a tiny input.

Imports nothing at module level, so ``setup_probe.py`` can time the package
import and this pass together from a fresh interpreter.
"""


def setup_pass(ir, cli, workdir) -> None:
    """Call each layer once; ``ir`` is the package, ``cli`` its CLI module."""
    gs, _ = ir.ground_state(ir.RingConfig(4, 1.0, 0.8))
    ir.reduced_state(gs, (0,))
    pair = ir.reduced_two_spin(gs, 0, 1)
    ir.discord(pair)
    ir.mid(pair)
    ir.amid(pair, n_starts=4)
    ir.x_state_from_correlators(ir.toeplitz_correlators(0.5, 1))
    ir.entanglement_stats(gs)
    opt = ir.OptimizerConfig(uniform_angles=True, restarts=2, max_evals=200)
    ir.global_discord(gs, opt)
    table = ir.sweep(3, [0.5, 0.7, 1.0], measures=("gd",), opt=opt)
    ir.find_peak(table, "gd", xtol=0.1)
    path = str(workdir / "setup_table.csv")
    table.to_csv(path)
    ir.SweepTable.from_csv(path)
    code = cli.main(["ground-state", "--n", "2", "--b", "1.0",
                     "--out", str(workdir / "setup_ground_state.json")])
    if code != 0:
        raise RuntimeError(f"ground-state CLI exited with {code}")
