"""Every input rule has one owner, at the boundary where the input enters.

Each case pairs a bad call, which must fail there with ValueError (not be
truncated, accepted, or fail later with TypeError or KeyError), with the
matching good call, which must still work.  Indices, sizes and counts go
through ``errors._check_integer``, so numpy integers are accepted and stored
as ints; a table's measure groups go through ``sweep._normalize_measures``.
"""

import json
import os
import re

import numpy as np
import pytest

from isingring.cli import main
from isingring.density import DensityMatrix, PureState, reduced_state
from isingring.entanglement import bipartition_entanglement
from isingring.global_discord import OptimizerConfig
from isingring.pair_measures import amid, reduced_two_spin
from isingring.ring import RingConfig, ghz_state, ground_state, product_state_down
from isingring.sweep import (_CSV_MAGIC, COLUMNS, SweepTable, default_ratio_grid,
                             find_peak, sweep)

GS = ground_state(RingConfig(4, 1.0, 1.0))[0]
PAIR = reduced_two_spin(GS, 0, 1)
BELL = np.array([[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]])
RATIOS = np.array([0.5, 0.75, 1.0, 1.25, 1.5])


def _ints(values):
    assert all(type(v) is int for v in values), values
    return values


def _table(measures, row_errors=()):
    columns = {c: np.zeros(len(RATIOS)) for c in COLUMNS}
    columns["ratio"] = RATIOS
    columns["gd"] = 1.0 - (RATIOS - 1.0) ** 2
    return SweepTable(columns, {"n_sites": 4, "measures": measures,
                                "row_errors": list(row_errors)})


def _config(**knobs):
    opt = OptimizerConfig(**knobs)
    assert type(opt.uniform_angles) is bool
    return opt


def _perfbench_calls():
    """The calls the benchmark harness makes keep working."""
    amid(PAIR, n_starts=4)
    amid(PAIR, seed=3)
    opt = OptimizerConfig(seed=3, uniform_angles=True, restarts=2, max_evals=200)
    table = sweep(3, [0.8, 1.0], measures=("estats",), opt=opt, seed=3, n_workers=2)
    assert table.metadata["seed"] == 3


CASES = {
    # sites
    "reduced_state-0.7,1.9": (
        lambda: reduced_state(GS, (0.7, 1.9)), "site must be an integer",
        lambda: _ints(reduced_state(GS, (np.int64(0), np.int32(1))).site_labels)),
    "reduced_state-1.0": (
        lambda: reduced_state(GS, (0, 1.0)), "site must be an integer, got 1.0",
        lambda: reduced_state(GS, (0, 1))),
    "reduced_two_spin-0.7,2.9": (
        lambda: reduced_two_spin(GS, 0.7, 2.9), "site must be an integer",
        lambda: _ints(reduced_two_spin(GS, np.int64(0), 2).site_labels)),
    "reduced_two_spin-repeated": (
        lambda: reduced_two_spin(GS, 1, 1), "keep must be a nonempty set of distinct sites",
        lambda: reduced_two_spin(GS, 1, 0)),
    "bipartition_entanglement-0.5": (
        lambda: bipartition_entanglement(GS, (0.5,)), "site must be an integer",
        lambda: bipartition_entanglement(GS, (np.int64(0),))),
    "bipartition_entanglement-2.9": (
        lambda: bipartition_entanglement(GS, (0, 2.9)), "site must be an integer",
        lambda: bipartition_entanglement(GS, (0, 2))),
    "DensityMatrix-0.5": (
        lambda: DensityMatrix(BELL, (0.5, 1)), "site label must be an integer",
        lambda: _ints(DensityMatrix(BELL, (np.int64(0), 1)).site_labels)),
    # sizes
    "PureState-2.0": (
        lambda: PureState(np.eye(4)[0], 2.0), "n_sites must be an integer",
        lambda: _ints((PureState(np.eye(4)[0], np.int64(2)).n_sites,))),
    "ghz_state-2.5": (
        lambda: ghz_state(2.5), "n_sites must be an integer",
        lambda: _ints((ghz_state(np.int64(3)).n_sites,))),
    "product_state_down-2.5": (
        lambda: product_state_down(2.5), "n_sites must be an integer",
        lambda: _ints((product_state_down(np.int64(3)).n_sites,))),
    "ghz_state-0": (
        lambda: ghz_state(0), "n_sites must be an integer >= 1, got 0",
        lambda: ghz_state(1)),
    "ghz_state--1": (
        lambda: ghz_state(-1), "n_sites must be an integer >= 1, got -1",
        lambda: ghz_state(np.int64(1))),
    "product_state_down-0": (
        lambda: product_state_down(0), "n_sites must be an integer >= 1, got 0",
        lambda: product_state_down(1)),
    # ratio grids
    "sweep-empty-grid": (
        lambda: sweep(3, [], measures=("estats",)), "ratios must be a nonempty 1-d array",
        lambda: sweep(3, [1.0], measures=("estats",))),
    # counts
    "default_ratio_grid-3.0": (
        lambda: default_ratio_grid(0.5, 2.0, 3.0), "count must be an integer",
        lambda: default_ratio_grid(0.5, 2.0, np.int64(3))),
    "amid-n_starts-5.5": (
        lambda: amid(PAIR, n_starts=5.5), "n_starts must be an integer",
        _perfbench_calls),
    # measure groups in table metadata, with and without row errors
    "SweepTable-bogus": (
        lambda: _table(["bogus"]), re.escape("unknown measure groups ['bogus']"),
        lambda: _table(["gd"])),
    "SweepTable-bogus-row_errors": (
        lambda: _table(["bogus"], ["gd@ratio=1: boom"]),
        re.escape("unknown measure groups ['bogus']"),
        lambda: _table(["gd", "estats"], ["gd@ratio=1: boom"])),
    "SweepTable-string": (
        lambda: _table("estats"), "not the string 'estats'",
        lambda: _table(["estats"])),
    "SweepTable-string-row_errors": (
        lambda: _table("estats", ["estats@ratio=1: boom"]), "not the string 'estats'",
        lambda: _table(["estats"], ["estats@ratio=1: boom"])),
    "sweep-string": (
        lambda: sweep(3, [1.0], measures="gd"), "not the string 'gd'",
        lambda: sweep(3, [1.0], measures=["gd"])),
    "sweep-measures-None": (
        lambda: sweep(3, [1.0], measures=None), "collection of names, got None",
        lambda: sweep(3, [1.0], measures=("estats",))),
    "sweep-measures-5": (
        lambda: sweep(3, [1.0], measures=5), "collection of names, got 5",
        lambda: sweep(3, [1.0], measures={"estats"})),
    "SweepTable-measures-5": (
        lambda: _table(5), "collection of names, got 5",
        lambda: _table(("gd",))),
    # columns
    "find_peak-missing-column": (
        lambda: find_peak(_table(["gd"]), "nope", evaluator=abs),
        "table has no column 'nope'",
        lambda: find_peak(_table(["gd"]), "gd", evaluator=lambda r: 1 - (r - 1) ** 2)),
    # flags
    "uniform_angles-no": (
        lambda: OptimizerConfig(uniform_angles="no"), "uniform_angles must be True or False",
        lambda: _config(uniform_angles=np.bool_(True))),
    "uniform_angles-1": (
        lambda: OptimizerConfig(uniform_angles=1), "uniform_angles must be True or False",
        lambda: _config(uniform_angles=False)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_input_rule_fails_where_the_input_enters(name):
    bad, match, good = CASES[name]
    with pytest.raises(ValueError, match=match):
        bad()
    good()


@pytest.mark.parametrize("measures, row_errors, message", [
    (["bogus"], [], "unknown measure groups ['bogus']"),
    (["bogus"], ["gd@ratio=1: boom"], "unknown measure groups ['bogus']"),
    ("estats", [], "not the string 'estats'"),
    ("estats", ["estats@ratio=1: boom"], "not the string 'estats'"),
    (["gd"], [], None),
], ids=["bogus", "bogus-row_errors", "string", "string-row_errors", "good"])
def test_fit_tables_names_an_unknown_group(capsys, tmp_path, measures, row_errors,
                                           message):
    """``fit --tables`` on a table file whose metadata names an unknown group,
    or one group as a bare string, exits 3 with a message naming it."""
    table = sweep(3, [0.8, 1.0, 1.2], measures=("gd",))
    lines = table._csv_text().splitlines(keepends=True)
    meta = dict(table.metadata, measures=measures, row_errors=row_errors)
    path = os.fspath(tmp_path / "t.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_MAGIC + json.dumps(meta) + "\n" + "".join(lines[1:]))
    code = main(["fit", "--tables", path])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0
    else:
        assert code == 3
        assert message in err
