import concurrent.futures
import importlib
import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from isingring.global_discord import OptimizerConfig
from isingring.pair_measures import (amid, discord, mid, pair_mutual_information,
                                     reduced_two_spin, toeplitz_correlators)
from isingring.ring import RingConfig, ground_state
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
pair_measures = importlib.import_module("isingring.pair_measures")


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


def test_default_grid_equals_np_unique_bit_for_bit():
    """The grid is np.unique's array of the quantized points, also where the
    appended 1.0 is already a point (0.5:2:3, 0.5:2:5 and 1:3:7)."""
    for start, stop, count in ((1e-2, 6.0, 100), (0.5, 2.0, 3), (0.5, 2.0, 5),
                               (2.0, 5.0, 4), (1.0, 3.0, 7)):
        pts = np.geomspace(start, stop, count)
        if start <= 1.0 <= stop:
            pts = np.append(pts, 1.0)
        expected = np.unique([_q12(p) for p in pts])
        got = default_ratio_grid(start, stop, count)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), (start, stop, count)
    assert default_ratio_grid(0.5, 2.0, 3).tolist() == [0.5, 1.0, 2.0]


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


def test_table_checks_reach_headers_ratio_shape_and_metadata(tmp_path):
    """An unexpected CSV header, an empty or 2-d ratio column, and two tables
    that differ in their metadata alone."""
    text = small_table()._csv_text().replace("nn_amid", "nn_xyz")
    path = tmp_path / "renamed.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="renamed.csv: unexpected column header"):
        SweepTable.from_csv(os.fspath(path))
    for ratios in (np.array([]), np.ones((2, 2))):
        columns = {c: np.zeros(ratios.shape) for c in COLUMNS} | {"ratio": ratios}
        with pytest.raises(ValueError, match="nonempty 1-d array"):
            SweepTable(columns=columns)
    table = small_table()
    other = SweepTable(columns=table.columns, metadata={**table.metadata, "seed": 1})
    assert table.same_as(small_table()) and not table.same_as(other)


def test_atomic_write_leaves_no_temp_file_when_the_rename_fails(monkeypatch, tmp_path):
    target = tmp_path / "t.csv"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        small_table().to_csv(os.fspath(target))
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_row_passes_other_warnings_on_and_keeps_its_cells(monkeypatch):
    """A warning that is not a ConvergenceWarning reaches the caller; the row
    keeps its cells and records no row error."""
    real = sweep_module.entanglement_stats

    def noisy(gs):
        warnings.warn("unrelated", UserWarning)
        return real(gs)

    monkeypatch.setattr(sweep_module, "entanglement_stats", noisy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values, errors = sweep_module._row_values((3, 1.0, ("estats",), OptimizerConfig()))
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, "unrelated")]
    assert errors == [] and set(values) == {"mean_E", "var_E"}
    assert all(math.isfinite(v) for v in values.values())


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


@pytest.mark.parametrize("build, bad, name", [
    (RingConfig, 3.0, "n_sites"),
    (RingConfig, 3.5, "n_sites"),
    (lambda v: OptimizerConfig(max_evals=v), 100.5, "max_evals"),
    (lambda v: OptimizerConfig(max_evals=v), math.nan, "max_evals"),
    (lambda v: OptimizerConfig(restarts=v), 2.5, "restarts"),
    (lambda v: toeplitz_correlators(0.5, v), 2.5, "separation"),
    (lambda v: fit_scaling([(v, 1.2), (3, 1.3)]), 2.5, "N"),
    (lambda v: sweep(3, [1.0], measures=("estats",), n_workers=v), 1.5, "n_workers"),
], ids=["n_sites-3.0", "n_sites-3.5", "max_evals-100.5", "max_evals-nan",
        "restarts-2.5", "separation-2.5", "fit-N-2.5", "n_workers-1.5"])
def test_integer_arguments_are_checked_where_they_enter(build, bad, name):
    """A non-integer size or count fails with ValueError where it enters the
    package, not deep inside a solver (nor is a fit size truncated); a numpy
    integer is accepted."""
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build(bad)
    build(np.int64(3))


@pytest.mark.parametrize("n_sites, knobs, error", [
    (np.int64(3), {}, None),
    (3, {"restarts": np.int32(2), "max_evals": np.int64(500), "seed": np.uint8(4)}, None),
    (3, {"seed": -1}, "seed must be an integer >= 0"),
    (3, {"seed": np.int64(-1)}, "seed must be an integer >= 0"),
    (3, {"seed": 1.5}, "seed must be an integer, got 1.5"),
], ids=["numpy-n_sites", "numpy-knobs", "seed--1", "numpy-seed--1", "seed-1.5"])
def test_numpy_integers_write_and_bad_seeds_fail_at_the_config(
        tmp_path, n_sites, knobs, error):
    """A table built from numpy-integer sizes and counts stores them as ints,
    so both writers take it and both readers give it back; a seed that is
    not an integer >= 0 fails where it enters, not at the first draw."""
    if error is not None:
        with pytest.raises(ValueError, match=error):
            OptimizerConfig(**knobs)
        return
    table = sweep(n_sites, [0.5, 1.0], measures=("gd",), opt=OptimizerConfig(**knobs))
    stored = [table.metadata["n_sites"], table.metadata["seed"],
              *table.metadata["optimizer"].values()]
    assert all(type(v) in (int, bool) or v is None for v in stored)
    for write, read, suffix in ((table.to_csv, SweepTable.from_csv, "csv"),
                                (table.to_json, SweepTable.from_json, "json")):
        path = str(tmp_path / f"t.{suffix}")
        write(path)
        assert read(path).same_as(table)


def test_default_grid_sweep():
    """``ratios=None`` sweeps ``default_ratio_grid()``, all 101 rows."""
    table = sweep(2, measures=("estats",))
    assert table.n_rows == 101 == table.metadata["grid"]["count"]
    assert np.array_equal(table.ratios, [_q12(r) for r in default_ratio_grid()])
    assert np.all(np.isfinite(table.columns["mean_E"]))


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

    # _worker_pool imports the pool class from concurrent.futures per call
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


#: Functions to minimize on (lower, upper): smooth unimodal ones, a flat
#: one, ones falling toward a bracket edge (a maximum at the edge), and two
#: with a flat floor that reach the search's tie branches.  On the centred
#: floor the parabola through the midpoint and two probes mirrored about it
#: has its vertex on the midpoint, a step of exactly 0 that must count as a
#: step up.  On the off-centre floor (at xtol 1e-2) a parabola through two
#: probes on the floor and one above it asks for exactly half the step
#: before last, which must fall back to a golden step.
BRENT_PANEL = {
    "parabola": (lambda x: (x - 0.9876) ** 2, 0.5, 1.5),
    "quartic": (lambda x: (x - 1.3) ** 4 - 0.1 * x, 0.75, 1.75),
    "skewed": (lambda x: -(x ** 3) * math.exp(-2.8 * x), 0.5, 2.0),
    "cosine": (lambda x: math.cos(3.0 * x), 0.2, 1.9),
    "flat": (lambda x: 0.5, 0.5, 1.5),
    "edge_low": (lambda x: x * x, 1.0, 2.0),
    "edge_high": (lambda x: -math.exp(x), 0.1, 0.6),
    "floor_centred": (lambda x: max(abs(x - 1.0) - 0.05, 0.0), 0.5, 1.5),
    "floor_offcentre": (lambda x: max(0.88 - 0.013 - x, 2.0 * (x - 0.88 - 0.013), 0.0),
                        0.5, 1.5),
}


@pytest.mark.parametrize("xtol", [1e-4, 1e-2])
@pytest.mark.parametrize("name", sorted(BRENT_PANEL))
def test_bounded_brent_matches_scipy(name, xtol):
    f, lower, upper = BRENT_PANEL[name]
    ref = minimize_scalar(f, method="bounded", bounds=(lower, upper),
                          options={"xatol": xtol})
    x, fun, n_evals = sweep_module._bounded_brent(f, lower, upper, xtol)
    assert (float(x).hex(), float(fun).hex(), n_evals) == (
        float(ref.x).hex(), float(ref.fun).hex(), int(ref.nfev))


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


def test_pair_record_builds_one_bloch_form_and_one_spectrum(monkeypatch):
    """A pair record hands one Bloch form and one joint entropy to all of
    its measures: one ``_bloch`` and one eigvalsh call (the X state's
    validation, whose spectrum gives the entropy), where it took five and
    seven; its values are the public measures' bit for bit."""
    gs, _ = ground_state(RingConfig(n_sites=6, coupling_j=1.0, field_b=0.9))
    counts = {"_bloch": 0, "eigvalsh": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    counting(pair_measures, "_bloch")
    counting(np.linalg, "eigvalsh")
    record = sweep_module._pair_record(gs, OptimizerConfig(seed=2), (0, 2))
    monkeypatch.undo()
    assert counts == {"_bloch": 1, "eigvalsh": 1}
    pair = reduced_two_spin(gs, 0, 2)
    expected = {"sites": [0, 2], "discord": discord(pair),
                "discord_a_measured": discord(pair, direction="a->b"),
                "discord_b_measured": discord(pair, direction="b->a"),
                "mid": mid(pair), "amid": amid(pair, seed=2),
                "mutual_information": pair_mutual_information(pair)}
    assert {k: v if k == "sites" else v.hex() for k, v in record.items()} == {
        k: v if k == "sites" else v.hex() for k, v in expected.items()}
