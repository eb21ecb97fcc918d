import csv
import importlib
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import isingring
from isingring.cli import _parse_ratio_grid, build_parser, main
from isingring.errors import ConvergenceWarning
from isingring.global_discord import OptimizerConfig, global_discord
from isingring.ring import RingConfig, ground_state
from isingring.sweep import SweepTable, _q12, find_peak, sweep

# ``isingring.sweep`` the attribute is the function; this is the module.
sweep_module = importlib.import_module("isingring.sweep")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_cells(out):
    """The key -> value cells of a CSV record, header row dropped."""
    return dict(csv.reader(out.splitlines()[1:]))


def test_ground_state_record(capsys):
    code, out, _ = run_cli(capsys, "ground-state", "--n", "4", "--b", "0")
    record = json.loads(out)
    assert code == 0
    assert abs(record["energy"] + 4.0) < 1e-12
    assert record["parity"] > 1.0 - 1e-10
    assert record["manifest"]["command"] == "ground-state"
    assert record["manifest"]["version"]
    assert record["manifest"]["arguments"]["n"] == 4


def test_ground_state_takes_no_seed(capsys):
    """ground-state draws no random number: --seed is a usage error there,
    and its manifest records no seed."""
    with pytest.raises(SystemExit) as exc:
        main(["ground-state", "--n", "3", "--seed", "1"])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "ground-state", "--n", "3")
    manifest = json.loads(out)["manifest"]
    assert code == 0
    assert manifest["seed"] is None and "seed" not in manifest["arguments"]


def test_wall_time_stays_nonnegative_when_the_clock_steps_back(capsys, monkeypatch):
    """The system clock may step back mid-command (a clock adjustment); the
    manifest's wall time comes from a monotonic clock, so it stays >= 0."""
    readings = itertools.count(1e9, -3600.0)
    monkeypatch.setattr(time, "time", lambda: next(readings))
    code, out, _ = run_cli(capsys, "ground-state", "--n", "4", "--b", "1.0")
    assert code == 0
    assert json.loads(out)["manifest"]["wall_time_s"] >= 0.0


def test_ground_state_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "ground-state", "--n", "3", "--b", "0.5", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = {ln.split(",", 1)[0] for ln in lines[1:]}
    assert {"energy", "parity", "manifest"} <= keys


def test_csv_record_keys_equal_flattened_json_keys(capsys, tmp_path):
    """The CSV form lists every field of the JSON record, nested records
    flattened one level; list-valued cells are JSON text."""
    table_file = os.fspath(tmp_path / "n3.csv")
    run_cli(capsys, "sweep", "--n", "3", "--ratio-grid", "0.5,0.7,1.0",
            "--measures", "gd", "--out", table_file)
    for argv in (["ground-state", "--n", "3", "--b", "0.5"],
                 ["measures", "--n", "3", "--b", "0.5", "--pair", "0", "1"],
                 ["fit", "--tables", table_file]):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        flat = {}
        for key, value in json.loads(out).items():
            if isinstance(value, dict) and key != "manifest":
                flat.update({f"{key}.{k2}": v2 for k2, v2 in value.items()})
            else:
                flat[key] = value
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        cells = csv_cells(out)
        assert code == 0 and cells.keys() == flat.keys(), argv
        for key, value in flat.items():
            if isinstance(value, list):
                assert json.loads(cells[key]) == value, (argv, key)


def test_csv_records_parse_as_csv(capsys):
    """JSON cells hold commas, so the writer quotes them: a CSV reader sees
    two fields on every row, and each JSON cell round-trips."""
    for argv in (["fit", "--points", "3:1.83,4:2.44"],
                 ["measures", "--n", "4", "--b", "0.5", "--pair", "0", "1"]):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        record = json.loads(out)
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0 and rows[0] == ["key", "value"], argv
        assert all(len(row) == 2 for row in rows), argv
        json_cells = {key: cell for key, cell in rows[1:]
                      if cell.startswith(("[", "{"))}
        assert {"manifest"} < json_cells.keys(), argv
        for key, cell in json_cells.items():
            value = json.loads(cell)
            assert json.dumps(value) == cell, (argv, key)
            if key != "manifest":
                section, _, field = key.partition(".")
                assert value == (record[section][field] if field
                                 else record[section]), (argv, key)


def test_measures_csv_keys_do_not_depend_on_the_gd_path(capsys):
    """The product state falls back to the search (basis and margin null),
    a ring ground state takes the certified path; both list the same
    global-discord keys."""
    keys = []
    for state in ("ground", "product"):
        code, out, _ = run_cli(
            capsys, "measures", "--n", "3", "--b", "0.5", "--state", state,
            "--global", "--restarts", "4", "--format", "csv",
        )
        assert code == 0
        cells = csv_cells(out)
        keys.append({k for k in cells if k.startswith("global_discord.")})
        margin = cells["global_discord.hessian_margin"]
        assert (margin == "") == (state == "product"), (state, margin)
    assert keys[0] == keys[1]


def test_measures_global_on_product_state_reads_zero(capsys):
    """Every basis gives the product state, which is also the J = 0 ground
    state, a zero objective; the search's rounding below zero, and a
    negative zero, are printed as 0.0."""
    for state in (("--state", "product"), ("--j", "0", "--b", "0.3")):
        code, out, _ = run_cli(capsys, "measures", "--n", "4", *state, "--global")
        assert code == 0, state
        value = json.loads(out)["global_discord"]["value"]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, state
        assert '"value": 0.0,' in out and "-0.0" not in out, state


def test_measures_global_prints_the_exact_hessian_margin(capsys):
    """The margin is the closed-form curvature, printed as computed: on the
    sigma^x branch it equals the library's bit for bit, and on the sigma^z
    branch, where every tilt mode is strict, it is null."""
    for ratio, basis in (("0.9", "x"), ("3", "z")):
        code, out, _ = run_cli(
            capsys, "measures", "--n", "4", "--b", ratio, "--global"
        )
        record = json.loads(out)["global_discord"]
        assert code == 0 and record["basis"] == basis, ratio
        gs, _ = ground_state(RingConfig(n_sites=4, coupling_j=1.0, field_b=float(ratio)))
        margin = global_discord(gs).hessian_margin
        if basis == "x":
            assert record["hessian_margin"].hex() == margin.hex()
        else:
            assert record["hessian_margin"] is None and margin is None


def test_measures_pair_and_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "measures", "--n", "5", "--b", "0", "--pair", "0", "1"
    )
    record = json.loads(out)
    assert code == 0 and record["converged"]
    pair = record["pair"]
    assert abs(pair["discord"]) < 1e-8
    assert abs(pair["mid"] - 1.0) < 1e-8
    assert abs(pair["amid"]) < 1e-6


def test_measures_global_on_ghz(capsys):
    code, out, _ = run_cli(
        capsys, "measures", "--n", "4", "--state", "ghz",
        "--global", "--estats", "--uniform-angles",
    )
    record = json.loads(out)
    assert code == 0
    gd = record["global_discord"]
    assert abs(gd["value"] - 1.0) < 1e-6 and gd["converged"]
    # GHZ is not a ring ground state, so the search gives the value
    assert gd["basis"] is None and gd["n_restarts"] > 0
    assert abs(record["entanglement_stats"]["mean"] - 1.0) < 1e-9
    assert record["entanglement_stats"]["variance"] < 1e-12


def test_measures_budget_starvation_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "measures", "--n", "4", "--b", "1",
        "--global", "--max-evals", "1",
    )
    record = json.loads(out)
    assert code == 1
    assert record["converged"] is False
    assert record["global_discord"]["converged"] is False


def test_measures_starved_fallback_search_exit_code(capsys):
    """GHZ is not a ring ground state; 150 evaluations cover the 104-row
    scan but not the polishes, so the search reports not converged."""
    code, out, _ = run_cli(
        capsys, "measures", "--n", "4", "--state", "ghz",
        "--global", "--max-evals", "150",
    )
    record = json.loads(out)
    assert code == 1
    assert record["converged"] is False
    assert record["global_discord"]["converged"] is False
    assert record["global_discord"]["n_evals"] == 150


@pytest.mark.parametrize("flag, value", [("--max-evals", "0"), ("--restarts", "-3")])
def test_measures_rejects_empty_optimizer_budget(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "measures", "--n", "3", "--b", "1", "--global", flag, value
    )
    assert code == 3 and out == ""
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("flag", ["--max-evals", "--restarts"])
def test_measures_checks_optimizer_flags_for_every_group(capsys, flag):
    """``measures`` builds one optimizer config, whose seed AMID reads, for
    every group: a bad budget fails also without --global."""
    code, out, err = run_cli(
        capsys, "measures", "--n", "4", "--pair", "0", "1", flag, "0"
    )
    assert code == 3 and out == ""
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("argv", [
    ("measures", "--n", "4", "--b", "1", "--global"),
    ("measures", "--n", "4", "--b", "1", "--pair", "0", "1"),
    ("measures", "--n", "4", "--b", "1", "--estats"),
    ("sweep", "--n", "3", "--ratio-grid", "1.0", "--measures", "estats"),
], ids=["global", "pair", "estats", "sweep"])
def test_negative_seed_exits_with_error_on_every_run(capsys, argv):
    """``--seed`` is checked by the optimizer config, which every
    ``measures`` and ``sweep`` run builds, whichever groups it computes."""
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 3 and out == ""
    assert "seed must be an integer >= 0" in err


def test_one_seed_reaches_every_amid_call(capsys, monkeypatch):
    """``OptimizerConfig.seed`` is a run's one seed: a sweep given an ``opt``
    and another ``seed``, its AMID re-evaluator and ``measures --pair`` all
    hand AMID the optimizer's seed, and the table records it."""
    seeds, real = [], sweep_module.amid

    def recording_amid(rho, n_starts=8, seed=0):
        seeds.append(seed)
        return real(rho, n_starts=n_starts, seed=seed)

    monkeypatch.setattr(sweep_module, "amid", recording_amid)
    table = sweep(4, [0.9, 1.1], measures=("pair",), opt=OptimizerConfig(seed=5),
                  seed=9)
    assert table.metadata["seed"] == 5
    sweep_module._make_evaluator(table, "nn_amid")(1.0)
    code, _, _ = run_cli(capsys, "measures", "--n", "4", "--b", "1",
                         "--pair", "0", "1", "--seed", "5")
    assert code == 0
    assert seeds == [5, 5, 5, 5]


def test_measures_pair_discord_directions(capsys, monkeypatch):
    """Both one-sided discords of a pair record come from one search, and
    its discord is the larger."""
    calls = []

    def both_sides(rho):
        calls.append(rho)
        return 0.25, 0.5

    monkeypatch.setattr(sweep_module, "one_sided_discords", both_sides)
    code, out, _ = run_cli(
        capsys, "measures", "--n", "4", "--b", "1", "--pair", "0", "1"
    )
    pair = json.loads(out)["pair"]
    assert code == 0
    assert len(calls) == 1
    assert pair["discord_a_measured"] == 0.25
    assert pair["discord_b_measured"] == 0.5
    assert pair["discord"] == 0.5


def test_measures_pair_amid_not_converged_exit_code(capsys, monkeypatch):
    def stalled_amid(rho, n_starts=8, seed=0):
        warnings.warn("no AMID restart converged", ConvergenceWarning)
        return 0.0

    monkeypatch.setattr(sweep_module, "amid", stalled_amid)
    code, out, _ = run_cli(
        capsys, "measures", "--n", "4", "--b", "1", "--pair", "0", "1"
    )
    record = json.loads(out)
    assert code == 1
    assert record["converged"] is False


def test_measures_pair_discord_not_converged_exit_code(capsys, monkeypatch):
    newton = importlib.import_module("isingring.newton")
    real = newton._polish

    def stall_discord(cost, candidates):
        if candidates.shape[-1] == 2:  # a discord polish; AMID's has 4 angles
            with monkeypatch.context() as patch:
                patch.setattr(newton, "_POLISH_MAX_ITER", 0)
                return real(cost, candidates)
        return real(cost, candidates)

    monkeypatch.setattr(newton, "_polish", stall_discord)
    code, out, _ = run_cli(
        capsys, "measures", "--n", "4", "--b", "1", "--pair", "0", "1"
    )
    assert code == 1 and json.loads(out)["converged"] is False


def test_one_stalled_discord_side_is_one_warning_and_exit_1(capsys, monkeypatch):
    """The two measured sides of a pair run in one lockstep polish.  When a
    steep tilt in theta keeps the second side moving until the step cap,
    the first still converges alone, the polish warns once (one row error
    in a sweep), and ``measures --pair`` reports not converged and exits 1."""
    newton = importlib.import_module("isingring.newton")
    real, outcomes = newton._polish, []

    def stall_second_side(cost, candidates):
        if candidates.shape[-1] != 2:  # AMID's polish has 4 angles
            return real(cost, candidates)

        def tilted(rows, live):
            return cost(rows, live) - 10.0 * rows[..., 0] * (live == 1)[:, None]

        result = real(tilted, candidates)
        outcomes.append(result[1].tolist())
        return result

    monkeypatch.setattr(newton, "_polish", stall_second_side)
    code, out, _ = run_cli(
        capsys, "measures", "--n", "4", "--b", "1", "--pair", "0", "1"
    )
    assert code == 1 and json.loads(out)["converged"] is False
    errors = sweep(4, [1.0], measures=("pair",)).metadata["row_errors"]
    assert outcomes == [[True, False]] * 2
    assert len(errors) == 1 and "did not converge" in errors[0], errors


def test_sweep_row_is_a_projection_of_the_measures_record(capsys):
    """``measures`` and ``sweep`` read one measure table: on the same ring,
    each sweep cell is the matching ``measures`` field at 12 digits."""
    code, out, _ = run_cli(
        capsys, "measures", "--n", "4", "--b", "0.9", "--pair", "0", "1",
        "--global", "--estats", "--seed", "3",
    )
    record = json.loads(out)
    row = {c: v[0] for c, v in sweep(4, ratios=[0.9], seed=3).columns.items()}
    pair, gd = record["pair"], record["global_discord"]
    expected = {
        "gd": gd["value"], "gd_converged": float(gd["converged"]),
        "nn_discord": max(pair["discord_a_measured"], pair["discord_b_measured"]),
        "nn_mid": pair["mid"], "nn_amid": pair["amid"],
        "mean_E": record["entanglement_stats"]["mean"],
        "var_E": record["entanglement_stats"]["variance"],
    }
    assert code == 0
    assert {c: row[c] for c in expected} == {c: _q12(v) for c, v in expected.items()}


def test_measures_requires_a_selection(capsys):
    code, _, err = run_cli(capsys, "measures", "--n", "4", "--b", "1")
    assert code == 2
    assert "choose at least one" in err


def test_invalid_ring_size_exits_with_error(capsys):
    code, _, err = run_cli(capsys, "ground-state", "--n", "13", "--b", "1")
    assert code == 3
    assert "error" in err


def test_negative_coupling_exits_with_error(capsys):
    code, _, err = run_cli(capsys, "ground-state", "--n", "4", "--j", "-1", "--b", "0.5")
    assert code == 3
    assert "coupling_j" in err


def test_sweep_writes_table_with_manifest(capsys, tmp_path):
    out_file = os.fspath(tmp_path / "sweep.csv")
    code, _, _ = run_cli(
        capsys, "sweep", "--n", "4", "--ratio-grid", "0.5,1.0,2.0",
        "--measures", "pair,estats", "--out", out_file,
    )
    assert code == 0
    table = SweepTable.from_csv(out_file)
    assert table.n_rows == 3
    manifest = table.metadata["manifest"]
    assert manifest["command"] == "sweep"
    assert manifest["arguments"]["measures"] == ["pair", "estats"]
    # every measure depends on B/J alone, so a sweep takes no coupling
    assert "coupling_j" not in table.metadata
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "4", "--ratio-grid", "0.5,1,2", "--j", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("spec", ["foo", ""])
def test_sweep_rejects_bad_measures_as_usage_error(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "3", "--measures", spec])
    assert exc.value.code == 2
    assert "--measures" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "1:0.5:3:lin", "2,1", "nan,1", "inf:2:3:lin", "-1,1", "0.5:2:1:lin", "1:2",
    "0.1:inf:3:lin", "0.1:inf:3:log",
])
def test_sweep_rejects_malformed_ratio_grid_as_usage_error(capsys, spec):
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(SystemExit) as exc:
        warnings.simplefilter("always")
        main(["sweep", "--n", "3", "--measures", "estats", f"--ratio-grid={spec}"])
    assert exc.value.code == 2
    assert "--ratio-grid" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_sweep_json_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "3", "--ratio-grid", "0.9,1.1",
        "--measures", "estats", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == "isingring-sweep-v1"
    assert len(payload["columns"]["ratio"]) == 2


def test_sweep_gd_exit_reflects_convergence(capsys, tmp_path):
    out_file = os.fspath(tmp_path / "gd.csv")
    code, _, _ = run_cli(
        capsys, "sweep", "--n", "3", "--ratio-grid", "1.0",
        "--measures", "gd", "--uniform-angles", "--out", out_file,
    )
    assert code == 0
    starved = os.fspath(tmp_path / "starved.csv")
    code, _, _ = run_cli(
        capsys, "sweep", "--n", "3", "--ratio-grid", "1.0",
        "--measures", "gd", "--max-evals", "1", "--out", starved,
    )
    assert code == 1
    table = SweepTable.from_csv(starved)
    assert table.columns["gd_converged"][0] == 0.0


def test_sweep_pair_exit_reflects_polish_convergence(capsys, tmp_path, monkeypatch):
    """A pair polish on its step cap makes ``sweep`` exit 1, as it does
    ``measures --pair``; the row keeps its cells and names the stall."""
    monkeypatch.setattr(importlib.import_module("isingring.newton"),
                        "_POLISH_MAX_ITER", 0)
    out_file = os.fspath(tmp_path / "stalled.csv")
    code, _, _ = run_cli(
        capsys, "sweep", "--n", "4", "--ratio-grid", "0.5,1.0",
        "--measures", "pair", "--out", out_file,
    )
    assert code == 1
    table = SweepTable.from_csv(out_file)
    for col in ("nn_discord", "nn_mid", "nn_amid"):
        assert np.all(np.isfinite(table.columns[col])), col
    errors = table.metadata["row_errors"]
    assert {e.split(":")[0] for e in errors} == {"pair@ratio=0.5", "pair@ratio=1"}


def test_sweep_threads_flag(capsys, tmp_path):
    serial = os.fspath(tmp_path / "serial.csv")
    threaded = os.fspath(tmp_path / "threaded.csv")
    run_cli(capsys, "sweep", "--n", "3", "--ratio-grid", "0.8,1.0,1.2",
            "--measures", "estats", "--out", serial)
    run_cli(capsys, "--threads", "2", "sweep", "--n", "3",
            "--ratio-grid", "0.8,1.0,1.2", "--measures", "estats",
            "--out", threaded)
    a = SweepTable.from_csv(serial)
    b = SweepTable.from_csv(threaded)
    for col in ("ratio", "mean_E", "var_E"):
        assert np.array_equal(a.columns[col], b.columns[col])
    for bad in ("0", "-5", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", bad, "sweep", "--n", "3", "--measures", "estats"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


def _without_manifest(table):
    meta = {k: v for k, v in table.metadata.items() if k != "manifest"}
    return SweepTable(columns=table.columns, metadata=meta)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_stdout_matches_out_file(capsys, tmp_path, fmt):
    argv = ["sweep", "--n", "3", "--ratio-grid", "0.8,1.0,1.2",
            "--measures", "estats"]
    out_file = os.fspath(tmp_path / f"t.{fmt}")
    code, _, _ = run_cli(capsys, *argv, "--out", out_file)
    assert code == 0
    to_stdout = argv + (["--format", "json"] if fmt == "json" else [])
    code, out, _ = run_cli(capsys, *to_stdout)
    assert code == 0
    printed = tmp_path / f"printed.{fmt}"
    printed.write_text(out, encoding="utf-8")
    load = SweepTable.from_json if fmt == "json" else SweepTable.from_csv
    assert _without_manifest(load(os.fspath(printed))).same_as(
        _without_manifest(load(out_file))
    )


def test_fit_from_points(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--points",
        "2:1,3:1.8296,4:2.4360,5:3.0879,6:3.7095,7:4.501",
    )
    record = json.loads(out)
    assert code == 0
    assert abs(record["slope"] - 0.6965) < 5e-4
    assert len(record["points"]) == 6


@pytest.mark.parametrize("spec", ["3", "x:1", "3:nan,4:2", "3:inf,4:2", ""])
def test_fit_rejects_malformed_points_as_usage_error(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--points", spec])
    assert exc.value.code == 2
    assert "--points" in capsys.readouterr().err


def test_fit_from_tables(capsys, tmp_path):
    table_file = os.fspath(tmp_path / "n3.csv")
    run_cli(capsys, "sweep", "--n", "3", "--ratio-grid",
            "0.5,0.6,0.7,0.85,1.0", "--measures", "gd",
            "--uniform-angles", "--out", table_file)
    code, out, _ = run_cli(capsys, "fit", "--tables", table_file)
    record = json.loads(out)
    assert code == 0
    peak = record["peaks"][0]
    assert peak["n_sites"] == 3 and not peak["boundary"]
    assert 0.6 < peak["ratio_star"] < 0.8
    # older tables also list the Nelder-Mead tolerances as optimizer fields,
    # and the coupling J
    old_file = os.fspath(tmp_path / "old.csv")
    table = SweepTable.from_csv(table_file)
    table.metadata["optimizer"].update(xatol=1e-9, fatol=1e-9)
    table.metadata["coupling_j"] = 2.0
    table.to_csv(old_file)
    code, out, _ = run_cli(capsys, "fit", "--tables", old_file)
    assert code == 0 and json.loads(out)["peaks"] == [peak]


@pytest.mark.parametrize("key, edit", [
    ("n_sites", lambda meta: meta.pop("n_sites")),
    ("optimizer", lambda meta: meta.update(optimizer=[1, 2])),
    ("bogus", lambda meta: meta["optimizer"].update(bogus=1)),
])
def test_fit_rejects_bad_table_metadata_naming_the_key(capsys, tmp_path, key, edit):
    """A table whose metadata lacks ``n_sites``, or whose ``optimizer`` is not
    a mapping of optimizer fields, fails with exit 3 and a message naming
    the key, not a bare KeyError or TypeError; ``find_peak`` raises the same
    ValueError."""
    table_file = os.fspath(tmp_path / "n3.csv")
    run_cli(capsys, "sweep", "--n", "3", "--ratio-grid", "0.5,0.6,0.7,0.85,1.0",
            "--measures", "gd", "--uniform-angles", "--out", table_file)
    table = SweepTable.from_csv(table_file)
    edit(table.metadata)
    table.to_csv(table_file)
    code, out, err = run_cli(capsys, "fit", "--tables", table_file)
    assert code == 3 and out == "" and "table metadata" in err and repr(key) in err, err
    with pytest.raises(ValueError, match=repr(key)):
        find_peak(SweepTable.from_csv(table_file), "gd")


def test_fit_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "fit")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "fit", "--points", "3:1", "--tables", "x.csv")
    assert code == 2


def test_ratio_grid_parsing():
    grid = _parse_ratio_grid("0.5:2.0:5:lin")
    assert np.allclose(grid, np.linspace(0.5, 2.0, 5))
    log_grid = _parse_ratio_grid("0.1:10:7")
    assert 1.0 in log_grid  # log grids spanning 1.0 always include it
    assert len(log_grid) in (7, 8)
    assert np.all(np.diff(log_grid) > 0)
    explicit = _parse_ratio_grid("0.5,1.5")
    assert np.allclose(explicit, [0.5, 1.5])
    with pytest.raises(Exception):
        _parse_ratio_grid("a:b:c")
    with pytest.raises(Exception):
        _parse_ratio_grid("")


def test_out_file_written_atomically(capsys, tmp_path):
    out_file = os.fspath(tmp_path / "rec.json")
    code, out, _ = run_cli(
        capsys, "ground-state", "--n", "3", "--b", "1.0", "--out", out_file
    )
    assert code == 0 and out == ""
    with open(out_file, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["n_sites"] == 3
    assert [p.name for p in tmp_path.iterdir()] == ["rec.json"]


def test_parser_rejects_unknown_subcommand(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])


def _without_wall_time(text):
    return re.sub(r'wall_time_s"*: [0-9.e+-]+', "wall_time_s", text)


def test_shared_parser_carries_no_state_between_calls(capsys):
    """main parses through one parser per process.  After a usage error and
    a failed run in this process, two valid commands print what they print
    as the first command of a fresh process, apart from the wall time."""
    valid = (["measures", "--n", "4", "--b", "0.9", "--global"],
             ["sweep", "--n", "3", "--ratio-grid", "0.5,1.0",
              "--measures", "gd,estats"])
    src = pathlib.Path(isingring.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    script = "import sys; from isingring.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh = [subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                            text=True, env=env, timeout=120, check=False)
             for argv in valid]
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "3", "--ratio-grid", "0.5,1.0", "--measures", "bogus"])
    assert exc.value.code == 2
    assert run_cli(capsys, "measures", "--n", "3", "--global", "--seed", "-1")[0] == 3
    for argv, proc in zip(valid, fresh):
        code, out, _ = run_cli(capsys, *argv)
        assert proc.returncode == 0, proc.stderr
        assert code == 0 and "wall_time_s" in out
        assert _without_wall_time(out) == _without_wall_time(proc.stdout)
    assert build_parser() is not build_parser()
