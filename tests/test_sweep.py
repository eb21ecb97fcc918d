import importlib
import json
import math
import os

import numpy as np
import pytest

from isingring.global_discord import OptimizerConfig
from isingring.sweep import (
    COLUMNS,
    SweepTable,
    _q12,
    default_ratio_grid,
    find_peak,
    fit_scaling,
    sweep,
)

# ``isingring.sweep`` the attribute is the function; this is the module.
sweep_module = importlib.import_module("isingring.sweep")


def small_table(**overrides):
    """Synthetic but schema-valid table for io/peak tests."""
    ratios = np.array([0.5, 0.75, 1.0, 1.25, 1.5])
    values = 1.0 - (ratios - 1.0) ** 2
    columns = {c: np.full(5, math.nan) for c in COLUMNS}
    columns["ratio"] = ratios
    columns["gd"] = values
    columns["gd_converged"] = np.ones(5)
    columns["gd_diff"] = np.zeros(5)
    columns.update(overrides)
    return SweepTable(columns=columns, metadata={"n_sites": 4, "seed": 0})


def test_quantizer_idempotent():
    x = 0.12345678901234567
    q = _q12(x)
    assert _q12(q) == q
    assert float(f"{q:.12g}") == q


def test_default_grid_properties():
    grid = default_ratio_grid()
    assert grid[0] == 0.01 and abs(grid[-1] - 6.0) < 1e-12
    assert 1.0 in grid
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        default_ratio_grid(start=-1.0)
    with pytest.raises(ValueError):
        default_ratio_grid(count=1)


def test_table_validation(tmp_path):
    with pytest.raises(ValueError):
        small_table(ratio=np.array([0.5, 0.75, 0.75, 1.25, 1.5]))  # not increasing
    with pytest.raises(ValueError, match="nonnegative"):  # as in sweep grids
        small_table(ratio=np.array([-0.5, 0.75, 1.0, 1.25, 1.5]))
    with pytest.raises(ValueError):
        small_table(ratio=np.array([0.5, 0.75, 1.0]))  # length mismatch
    bad = {c: np.zeros(2) for c in COLUMNS if c != "gd"}
    bad["ratio"] = np.array([0.5, 1.0])
    with pytest.raises(ValueError):
        SweepTable(columns=bad, metadata={})
    # NaN in a computed column without recorded row errors is rejected
    with pytest.raises(ValueError):
        SweepTable(
            columns=small_table().columns
            | {"gd": np.array([1, 1, math.nan, 1, 1], dtype=float)},
            metadata={"measures": ["gd"], "row_errors": []},
        )
    # a CSV cut after its metadata line has no column header
    truncated = tmp_path / "truncated.csv"
    truncated.write_text(small_table()._csv_text().splitlines()[0] + "\n")
    with pytest.raises(ValueError, match="truncated.csv: missing the column header"):
        SweepTable.from_csv(os.fspath(truncated))
    # a JSON table without its metadata, its columns or one column, or JSON
    # that is not an object
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    with pytest.raises(ValueError, match="list.json: not an isingring sweep JSON"):
        SweepTable.from_json(os.fspath(not_object))
    payload = json.loads(small_table()._json_text())
    for cut, message in ((("metadata",), "missing the 'metadata' key"),
                         (("columns",), "missing the 'columns' key"),
                         (("columns", "nn_amid"), r"missing columns \['nn_amid'\]")):
        broken = json.loads(json.dumps(payload))
        owner = broken if len(cut) == 1 else broken["columns"]
        del owner[cut[-1]]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(ValueError, match=f"broken.json: {message}"):
            SweepTable.from_json(os.fspath(path))


def test_zero_field_row_reproduces_cat_state_values():
    table = sweep(
        6,
        ratios=[0.0],
        opt=OptimizerConfig(seed=0, uniform_angles=True),
    )
    row = {c: table.columns[c][0] for c in COLUMNS}
    assert abs(row["gd"] - 1.0) < 1e-6
    assert row["gd_converged"] == 1.0
    assert abs(row["mean_E"] - 1.0) < 1e-10
    assert abs(row["var_E"]) < 1e-10
    assert abs(row["nn_discord"]) < 1e-8
    assert abs(row["nn_mid"] - 1.0) < 1e-8
    assert abs(row["nn_amid"]) < 1e-6


def test_strong_field_row_is_classical():
    table = sweep(4, ratios=[1e6], measures=("pair", "estats"))
    assert table.columns["nn_discord"][0] < 1e-3
    assert table.columns["nn_amid"][0] < 1e-3
    assert table.columns["mean_E"][0] < 1e-3


def test_sweep_deterministic_and_parallel_invariant():
    grid = np.geomspace(0.4, 2.0, 5)
    a = sweep(4, ratios=grid, measures=("pair", "estats"), seed=11)
    b = sweep(4, ratios=grid, measures=("pair", "estats"), seed=11)
    assert a.same_as(b)
    c = sweep(4, ratios=grid, measures=("pair", "estats"), seed=11, n_workers=3)
    assert a.same_as(c)


def test_round_trips_are_exact(tmp_path):
    table = sweep(3, ratios=[0.5, 1.0, 2.0], measures=("pair", "estats"), seed=2)
    csv_path = os.fspath(tmp_path / "t.csv")
    json_path = os.fspath(tmp_path / "t.json")
    table.to_csv(csv_path)
    table.to_json(json_path)
    assert SweepTable.from_csv(csv_path).same_as(table)
    assert SweepTable.from_json(json_path).same_as(table)
    # atomic write leaves no temp files behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]
    with pytest.raises(ValueError):
        SweepTable.from_csv(json_path)
    with pytest.raises(ValueError):
        SweepTable.from_json(csv_path)


def test_gd_diff_is_first_difference():
    table = sweep(
        3,
        ratios=[0.6, 0.8, 1.0],
        measures=("gd",),
        opt=OptimizerConfig(seed=0, uniform_angles=True),
    )
    gd = table.columns["gd"]
    r = table.columns["ratio"]
    assert table.columns["gd_diff"][0] == 0.0
    for i in (1, 2):
        manual = _q12((gd[i] - gd[i - 1]) / (r[i] - r[i - 1]))
        assert table.columns["gd_diff"][i] == manual


def test_sweep_input_validation(monkeypatch):
    with pytest.raises(ValueError):
        sweep(4, ratios=[1.0, 0.5], measures=("estats",))
    with pytest.raises(ValueError):
        sweep(4, ratios=[-0.5, 1.0], measures=("estats",))
    with pytest.raises(ValueError):
        sweep(4, ratios=[1.0], measures=("estats", "bogus"))
    with pytest.raises(ValueError, match="no measure group"):
        sweep(4, ratios=[1.0], measures=())
    # non-finite ratios are rejected before any row is computed
    monkeypatch.setattr(sweep_module, "_row_values", _fail)
    for ratios in ([math.nan, 1.0], [0.5, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            sweep(3, ratios=ratios, measures=("estats",), n_workers=1)
    for workers in (0, -5):
        with pytest.raises(ValueError, match="n_workers"):
            sweep(3, ratios=[1.0], measures=("estats",), n_workers=workers)


def test_sweep_pool_is_no_larger_than_the_grid(monkeypatch):
    sizes = []

    class SerialPool:
        """Records the requested pool size and maps in this process."""

        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "spawn"
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", SerialPool)
    grid = [0.5, 1.0, 2.0]
    table = sweep(3, ratios=grid, measures=("estats",), n_workers=64)
    assert sizes == [3]
    assert table.same_as(sweep(3, ratios=grid, measures=("estats",)))


def _threads_after_blas_call(size):
    a = np.ones((size, size))
    a @ a
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc")
def test_sweep_workers_start_with_one_blas_thread(monkeypatch):
    """A forked worker inherits the parent's BLAS pool (one thread per core);
    the sweep's spawned workers start with one BLAS thread, whatever the
    parent's environment, and the parent's environment is left as it was."""
    for name in sweep_module._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    with sweep_module._worker_pool(2) as pool:
        counts = list(pool.map(_threads_after_blas_call, [256, 256]))
    assert counts == [1, 1]
    assert not set(sweep_module._BLAS_THREAD_VARS) & set(os.environ)


def _fail(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize("name, group, failed, kept", [
    ("entanglement_stats", "estats", ("mean_E", "var_E"), ("nn_discord",)),
    ("global_discord", "gd", ("gd",), ("mean_E", "var_E")),
    # amid fails after discord and MID have run; the whole group is void
    ("amid", "pair", ("nn_discord", "nn_mid", "nn_amid"), ("mean_E",)),
])
def test_row_errors_leave_failed_group_nan(monkeypatch, tmp_path, name, group,
                                           failed, kept):
    monkeypatch.setattr(sweep_module, name, _fail)
    measures = ("gd", "estats") if group == "gd" else ("pair", "estats")
    table = sweep(3, ratios=[0.5, 1.0], measures=measures,
                  opt=OptimizerConfig(uniform_angles=True, restarts=2))
    assert table.metadata["row_errors"] == [
        f"{group}@ratio=0.5: boom", f"{group}@ratio=1: boom"
    ]
    for col in failed:
        assert np.all(np.isnan(table.columns[col])), col
    for col in kept:
        assert np.all(np.isfinite(table.columns[col])), col
    if group == "gd":
        assert np.array_equal(table.columns["gd_converged"], [0.0, 0.0])
    path = os.fspath(tmp_path / "t.csv")
    table.to_csv(path)
    assert SweepTable.from_csv(path).same_as(table)


#: Peak shapes with their true maximum, each off the grid points of
#: ``small_table`` so that only refinement can reach it.
PEAKS = {
    "parabola": (lambda r: 1.0 - (r - 0.9876) ** 2, 0.9876),
    "kink": (lambda r: 2.0 - abs(r - 1.0312), 1.0312),
    "skewed": (lambda r: r ** 3 * math.exp(-2.8 * r), 3.0 / 2.8),
}


@pytest.mark.parametrize("shape", sorted(PEAKS))
def test_find_peak_refines_with_injected_evaluator(shape):
    f, true_ratio = PEAKS[shape]
    table = small_table(gd=np.array([f(r) for r in [0.5, 0.75, 1.0, 1.25, 1.5]]))
    peak = find_peak(table, "gd", evaluator=f, xtol=1e-5)
    assert not peak.boundary
    assert abs(peak.ratio_star - true_ratio) <= 1e-5
    assert peak.value >= np.max(table.columns["gd"])
    assert peak.n_evals > 0
    if shape == "parabola":
        # Brent's parabolic steps land on a parabola's vertex at once; a
        # golden-section loop takes 25 probes to this tolerance
        assert peak.n_evals <= 10


def test_find_peak_keeps_the_grid_point_when_no_probe_beats_it():
    peak = find_peak(small_table(), "gd", evaluator=lambda r: 0.5)
    assert not peak.boundary and peak.n_evals > 0
    assert (peak.ratio_star, peak.value) == (1.0, 1.0)


@pytest.mark.parametrize("xtol", [0.0, -1.0, math.nan, math.inf])
def test_find_peak_rejects_bad_xtol(xtol):
    def never(r):
        raise AssertionError("probed before xtol was checked")

    with pytest.raises(ValueError, match="xtol"):
        find_peak(small_table(), "gd", evaluator=never, xtol=xtol)


def test_find_peak_boundary_flag():
    table = sweep(5, ratios=[1.0, 1.5, 2.0, 3.0], measures=("estats",))
    peak = find_peak(table, "mean_E")
    assert peak.boundary and peak.ratio_star == 1.0 and peak.n_evals == 0


def test_find_peak_rejects_unusable_columns():
    table = small_table()
    with pytest.raises(ValueError):
        find_peak(table, "nn_discord")  # all NaN
    with pytest.raises(ValueError):
        find_peak(
            small_table(nn_discord=np.zeros(5)), "gd_diff",
        )


def test_find_peak_reevaluates_true_measure():
    """Refinement through metadata-reconstructed evaluators: the var_E peak
    of the N=6 ring lands near the finite-size critical ratio."""
    table = sweep(6, ratios=np.geomspace(0.5, 2.0, 9), measures=("estats",))
    peak = find_peak(table, "var_E")
    assert not peak.boundary
    assert 0.8 <= peak.ratio_star <= 1.5
    assert peak.value >= np.max(table.columns["var_E"]) - 1e-12


def test_fit_scaling_exact_line_and_degenerate():
    line = [(n, 1.0 + 0.7 * (n - 2)) for n in range(2, 8)]
    fit = fit_scaling(line)
    assert abs(fit.slope - 0.7) < 1e-12
    assert max(abs(r) for r in fit.residuals) < 1e-12
    assert abs(fit.predict(9) - (1.0 + 0.7 * 7)) < 1e-12
    with pytest.raises(ValueError):
        fit_scaling([(2, 1.0), (2, 1.1)])
    with pytest.raises(ValueError):
        fit_scaling([])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_scaling([(3, bad), (4, 2.0)])


def test_fit_scaling_reference_point_set():
    points = [(2, 1.0), (3, 1.8296), (4, 2.4360), (5, 3.0879), (6, 3.7095), (7, 4.501)]
    fit = fit_scaling(points)
    assert abs(fit.slope - 0.6965) < 5e-4
    # N=2 carries zero weight in the constrained fit
    assert abs(fit_scaling(points[1:]).slope - fit.slope) < 1e-15


def test_metadata_records_configuration():
    table = sweep(3, ratios=[0.8, 1.2], measures=("estats",), seed=9)
    meta = table.metadata
    assert meta["n_sites"] == 3 and meta["seed"] == 9
    assert "coupling_j" not in meta
    assert meta["measures"] == ["estats"]
    assert meta["grid"] == {"count": 2, "min": 0.8, "max": 1.2}
    assert meta["row_errors"] == []
