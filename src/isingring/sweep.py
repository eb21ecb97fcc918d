"""B/J sweeps, peak refinement, and finite-size scaling fits.

A sweep evaluates the measure families (global discord, nearest-neighbour
pair measures, bipartition-entanglement statistics) on the ring ground state
over a grid of field/coupling ratios and collects them in a flat table with
a fixed column schema.  One measure table, ``_MEASURES``, maps each family
to the function that computes its record; the columns are a fixed projection
of those records, and the CLI's ``measures`` prints them whole.  Peaks are
refined by a bounded Brent search (``_bounded_brent``) that re-evaluates the
underlying measure, not by interpolating the grid.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .entanglement import entanglement_stats
from .errors import ConvergenceWarning, _check_integer
from .global_discord import OptimizerConfig, global_discord
from .pair_measures import (_pair_form, _sorted_unique, amid, mid,
                            one_sided_discords, pair_mutual_information,
                            reduced_two_spin)
from .ring import RingConfig, ground_state

COLUMNS = (
    "ratio",
    "gd",
    "gd_converged",
    "mean_E",
    "var_E",
    "nn_discord",
    "nn_mid",
    "nn_amid",
    "gd_diff",
)


#: The pair a sweep's ``pair`` group measures: nearest neighbours.
_NN_SITES = (0, 1)


def _gd_record(gs, opt, sites):
    res = global_discord(gs, opt)
    return {"value": res.value, "converged": res.converged,
            "n_restarts": res.n_restarts, "n_evals": res.n_evals,
            "basis": res.basis, "hessian_margin": res.hessian_margin}


def _pair_record(gs, opt, sites):
    # one Bloch form and one spectrum for every measure of the pair
    pair = _pair_form(reduced_two_spin(gs, *sites))
    d_a, d_b = one_sided_discords(pair)
    return {"sites": list(sites), "discord": max(d_a, d_b),
            "discord_a_measured": d_a, "discord_b_measured": d_b,
            "mid": mid(pair), "amid": amid(pair, seed=opt.seed),
            "mutual_information": pair_mutual_information(pair)}


def _estats_record(gs, opt, sites):
    return asdict(entanglement_stats(gs))


#: Measure group -> (its key in a ``measures`` record, the function of
#: (PureState, OptimizerConfig, pair sites) returning the group's record,
#: {table column: the record field it holds}); ``OptimizerConfig.seed`` seeds
#: the search and AMID alike.  The CLI's ``measures``, sweep rows and
#: find_peak all read it.  Its functions look the measures up by their
#: module-global names at call time, so patching those names reaches them.
_MEASURES = {
    "gd": ("global_discord", _gd_record,
           {"gd": "value", "gd_converged": "converged"}),
    "pair": ("pair", _pair_record,
             {"nn_discord": "discord", "nn_mid": "mid", "nn_amid": "amid"}),
    "estats": ("entanglement_stats", _estats_record,
               {"mean_E": "mean", "var_E": "variance"}),
}

MEASURE_GROUPS = tuple(_MEASURES)

#: Column find_peak can re-evaluate -> its group: every cell but the 0/1 flag.
_REFINABLE = {
    c: g for g, (_, _, cols) in _MEASURES.items() for c in cols
    if c != "gd_converged"
}

_CSV_MAGIC = "# isingring-sweep-v1 "
_JSON_FORMAT = "isingring-sweep-v1"


def _q12(x: float) -> float:
    """Quantize to 12 significant digits: the table's storage precision.

    Applied at computation time so the in-memory table, the CSV text, and
    the JSON text all carry bit-identical values.  NaN and +-inf map to
    themselves, so every cell is stored through it.
    """
    return float(f"{float(x):.12g}")


def default_ratio_grid(
    start: float = 1e-2, stop: float = 6.0, count: int = 100
) -> np.ndarray:
    """Logarithmic B/J grid with the critical point 1.0 always included."""
    if not (0 < start < stop < math.inf):
        raise ValueError("grid requires 0 < start < stop, both finite")
    if _check_integer("count", count) < 2:
        raise ValueError("grid requires at least 2 points")
    pts = np.geomspace(start, stop, count)
    if start <= 1.0 <= stop:
        pts = np.append(pts, 1.0)
    return _sorted_unique([_q12(p) for p in pts])


@dataclass(frozen=True)
class SweepTable:
    """Fixed-schema results table: one row per B/J ratio.

    All nine columns are always present; measure families that were not
    requested are filled with NaN and listed out of ``metadata['measures']``.
    ``gd_converged`` is stored as 0.0/1.0.  ``gd_diff`` is the first
    difference d(gd)/d(ratio) with a leading zero.
    """

    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = [c for c in COLUMNS if c not in self.columns]
        if missing:
            raise ValueError(f"table missing columns {missing}")
        ratios = _checked_ratios(self.columns["ratio"])
        for name in COLUMNS:
            col = np.asarray(self.columns[name], dtype=float)
            if col.shape != ratios.shape:
                raise ValueError(f"column {name!r} length mismatch")
            object.__setattr__(self, "columns", {**self.columns, name: col})
        measures = self.metadata.get("measures")
        measures = () if measures is None else _normalize_measures(measures)
        if not self.metadata.get("row_errors"):
            checked = [c for g in measures for c in _MEASURES[g][2]]
            if "gd" in measures:
                checked.append("gd_diff")
            for name in checked:
                if not np.all(np.isfinite(self.columns[name])):
                    raise ValueError(
                        f"column {name!r} contains non-finite values "
                        "but no row errors were recorded"
                    )

    @property
    def ratios(self) -> np.ndarray:
        return self.columns["ratio"]

    @property
    def n_rows(self) -> int:
        return len(self.columns["ratio"])

    def same_as(self, other: "SweepTable") -> bool:
        """Exact equality, treating NaN as equal to NaN."""
        if self.metadata != other.metadata:
            return False
        return all(
            np.array_equal(self.columns[c], other.columns[c], equal_nan=True)
            for c in COLUMNS
        )

    # ------------------------------------------------------------------ io

    def _csv_text(self) -> str:
        lines = [_CSV_MAGIC + json.dumps(self.metadata, sort_keys=True)]
        lines.append(",".join(COLUMNS))
        for i in range(self.n_rows):
            lines.append(
                ",".join(f"{self.columns[c][i]:.12g}" for c in COLUMNS)
            )
        return "\n".join(lines) + "\n"

    def _json_text(self) -> str:
        payload = {
            "format": _JSON_FORMAT,
            "metadata": self.metadata,
            "columns": {c: list(self.columns[c]) for c in COLUMNS},
        }
        return json.dumps(payload, indent=1)

    def to_csv(self, path: str) -> None:
        _atomic_write(path, self._csv_text())

    @classmethod
    def from_csv(cls, path: str) -> "SweepTable":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        if not lines or not lines[0].startswith(_CSV_MAGIC):
            raise ValueError(f"{path}: not an isingring sweep CSV")
        metadata = json.loads(lines[0][len(_CSV_MAGIC):])
        if len(lines) < 2:
            raise ValueError(f"{path}: missing the column header")
        header = tuple(lines[1].split(","))
        if header != COLUMNS:
            raise ValueError(f"{path}: unexpected column header {header}")
        rows = [[float(tok) for tok in ln.split(",")] for ln in lines[2:]]
        data = np.array(rows, dtype=float).reshape(len(rows), len(COLUMNS))
        columns = {c: data[:, k] for k, c in enumerate(COLUMNS)}
        return cls(columns=columns, metadata=metadata)

    def to_json(self, path: str) -> None:
        _atomic_write(path, self._json_text())

    @classmethod
    def from_json(cls, path: str) -> "SweepTable":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != _JSON_FORMAT:
            raise ValueError(f"{path}: not an isingring sweep JSON")
        for key in ("metadata", "columns"):
            if key not in payload:
                raise ValueError(f"{path}: missing the {key!r} key")
        missing = [c for c in COLUMNS if c not in payload["columns"]]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        columns = {c: np.array(payload["columns"][c], float) for c in COLUMNS}
        return cls(columns=columns, metadata=payload["metadata"])


def _atomic_write(path: str, text: str) -> None:
    """Write via a sibling temp file + rename so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------- sweeping


def _checked_ratios(ratios) -> np.ndarray:
    """``ratios`` as floats; ValueError unless a nonempty 1-d array, finite,
    increasing and >= 0."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.ndim != 1 or len(ratios) == 0:
        raise ValueError("ratios must be a nonempty 1-d array")
    if not np.all(np.isfinite(ratios)):
        raise ValueError("ratios must be finite")
    if np.any(np.diff(ratios) <= 0):
        raise ValueError("ratios must be strictly increasing")
    if np.any(ratios < 0):
        raise ValueError("ratios must be nonnegative")
    return ratios


def _normalize_measures(measures) -> tuple:
    """The requested groups in ``MEASURE_GROUPS`` order; ValueError on a bare
    string, a non-collection, no group or an unknown one."""
    if isinstance(measures, str):
        raise ValueError(f"measure groups must be a collection, not the string {measures!r}")
    try:
        requested = set(measures)
    except TypeError:
        raise ValueError(f"measure groups must be a collection of names, got {measures!r}") from None
    if not requested:
        raise ValueError("no measure group selected")
    unknown = requested - set(MEASURE_GROUPS)
    if unknown:
        raise ValueError(f"unknown measure groups {sorted(unknown)}")
    return tuple(g for g in MEASURE_GROUPS if g in requested)


def _state_at(n_sites: int, ratio: float):
    return ground_state(RingConfig(n_sites=n_sites, field_b=ratio))[0]


#: Environment variables that size the BLAS thread pool of a new process.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _worker_pool(n_workers: int):
    """Pool of ``n_workers`` spawned processes with one BLAS thread each, as
    rows already run in parallel (a forked worker keeps the parent's pool).
    A spawn pool starts workers on demand as work is submitted, so the
    thread variables stay set for the whole block, then are restored.  The
    process machinery is imported here, so a one-worker run never loads it."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    saved = {name: os.environ.pop(name, None) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(n_workers, mp_context=get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value


@contextmanager
def _stalls():
    """Collect the messages of the ConvergenceWarnings raised in the block
    (the pair polishes reaching their step cap); other warnings pass on.  The messages travel as values, so they also leave worker
    processes, whose warnings would stay there."""
    messages = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        yield messages
    for w in caught:
        if issubclass(w.category, ConvergenceWarning):
            messages.append(str(w.message))
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def _row_values(args):
    """Evaluate one grid point; module-level so worker processes can pick it up.

    A group that raises leaves all of its cells unset (NaN in the table);
    a failed GD search also counts as not converged.  A group that warns
    :class:`ConvergenceWarning` keeps its cells and reports the warning as a
    row error.
    """
    n_sites, ratio, measures, opt = args
    gs = _state_at(n_sites, ratio)
    out, errors = {}, []
    for group in measures:
        _, record_of, columns = _MEASURES[group]
        try:
            with _stalls() as stalls:
                record = record_of(gs, opt, _NN_SITES)
            out.update((c, record[f]) for c, f in columns.items())
            errors.extend(f"{group}@ratio={ratio:.6g}: {m}" for m in stalls)
        except Exception as exc:
            errors.append(f"{group}@ratio={ratio:.6g}: {exc}")
            if group == "gd":
                out["gd_converged"] = 0.0
    return out, errors


def sweep(
    n_sites: int,
    ratios=None,
    *,
    measures=MEASURE_GROUPS,
    opt: OptimizerConfig | None = None,
    seed: int = 0,
    n_workers: int | None = None,
) -> SweepTable:
    """Evaluate the requested measure families over a B/J grid.

    Every measure depends on B/J alone, so the ring is solved at J = 1.
    Rows are computed independently (in ``n_workers`` spawned processes with
    one BLAS thread each; None means 1) and assembled in grid order, so the
    result is identical for any worker count.  A failure at one grid point
    leaves NaN in the affected cells, is recorded in
    ``metadata['row_errors']``, and the sweep continues.  A pair polish that
    stops on its step cap (``ConvergenceWarning``) is recorded there too,
    with its cells kept, so the CLI exits 1 as ``measures --pair`` does.
    ``opt.seed``, stored as ``metadata['seed']``, seeds the search and AMID;
    ``seed`` only seeds the default ``opt`` and is ignored when one is given.
    """
    n_sites = _check_integer("n_sites", n_sites)
    if ratios is None:
        ratios = default_ratio_grid()
    ratios = _checked_ratios([_q12(r) for r in np.asarray(ratios, dtype=float).ravel()])
    workers = 1 if n_workers is None else _check_integer("n_workers", n_workers)
    if workers < 1:
        raise ValueError(f"n_workers must be None or >= 1, got {n_workers}")
    measures = _normalize_measures(measures)
    opt = opt if opt is not None else OptimizerConfig(seed=seed)
    args = [(n_sites, float(r), measures, opt) for r in ratios]
    if workers > 1 and len(args) > 1:
        with _worker_pool(min(workers, len(args))) as pool:
            results = list(pool.map(_row_values, args))
    else:
        results = [_row_values(a) for a in args]

    columns = {c: np.full(len(ratios), math.nan) for c in COLUMNS}
    columns["ratio"] = ratios
    row_errors = []
    for i, (values, errors) in enumerate(results):
        row_errors.extend(errors)
        for name, value in values.items():
            columns[name][i] = _q12(value)
    # d(gd)/d(ratio) by first differences, zero-padded at the left edge
    columns["gd_diff"] = np.array(
        [_q12(d) for d in np.append(0.0, np.diff(columns["gd"]) / np.diff(ratios))])
    metadata = {
        "n_sites": n_sites,
        "seed": opt.seed,
        "measures": list(measures),
        "grid": {
            "count": int(len(ratios)),
            "min": float(ratios[0]),
            "max": float(ratios[-1]),
        },
        "optimizer": asdict(opt),
        "row_errors": row_errors,
    }
    return SweepTable(columns=columns, metadata=metadata)


# ------------------------------------------------------------------ peaks


@dataclass(frozen=True)
class PeakResult:
    """Refined maximum of one table column over the ratio axis."""

    ratio_star: float
    value: float
    column: str
    boundary: bool
    n_evals: int


def _make_evaluator(table: SweepTable, column: str):
    """Re-evaluator for a measure column at an arbitrary ratio.

    Reconstructs the measure from the table metadata so refinement probes
    the actual function, under the same optimizer settings and seed.
    """
    meta = table.metadata
    n_sites = meta["n_sites"]
    # older tables carry xatol and fatol as optimizer fields, and some a
    # coupling_j, ignored since every measure depends on B/J alone
    opt_fields = {k: v for k, v in (meta.get("optimizer") or {}).items()
                  if k not in ("xatol", "fatol")}
    opt = OptimizerConfig(**opt_fields)
    _, record_of, columns = _MEASURES[_REFINABLE[column]]

    def evaluate(ratio: float) -> float:
        return record_of(_state_at(n_sites, ratio), opt, _NN_SITES)[columns[column]]

    return evaluate


def _bounded_brent(func, lower: float, upper: float,
                   xatol: float) -> tuple[float, float, int]:
    """Minimize ``func`` on [lower, upper] by Brent's bounded search
    (golden-section steps with parabolic interpolation).

    A step-for-step port of ``_minimize_scalar_bounded`` from SciPy's
    ``scipy/optimize/_optimize.py`` (BSD 3-Clause licence, copyright the
    SciPy developers), which ``minimize_scalar(method="bounded")`` runs: the
    same probes in the same order, so the same result, with SciPy's default
    cap of 500 evaluations.  Returns the best abscissa, its value and the
    number of evaluations.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lower, upper
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx, num


def find_peak(
    table: SweepTable,
    column: str = "gd",
    *,
    evaluator=None,
    xtol: float = 1e-4,
) -> PeakResult:
    """Locate and refine the maximum of ``column`` along the ratio axis.

    The grid argmax brackets a bounded Brent search (``_bounded_brent``)
    between its grid neighbours; every probe re-evaluates the measure,
    ``n_evals`` counts the probes and ``xtol`` (finite, > 0) is the
    absolute tolerance on the refined ratio.
    The result is never below the grid maximum: if no probe beats it, the
    grid point is returned.  A maximum on the first or last grid point is
    returned unrefined with ``boundary=True`` (no bracket exists).
    """
    if not (math.isfinite(xtol) and xtol > 0):
        raise ValueError(f"xtol must be finite and positive, got {xtol}")
    if evaluator is None and column not in _REFINABLE:
        raise ValueError(
            f"column {column!r} is not a refinable measure; "
            "supply an evaluator to refine it"
        )
    if column not in table.columns:
        raise ValueError(f"table has no column {column!r}")
    values = table.columns[column]
    if np.any(~np.isfinite(values)):
        raise ValueError(f"column {column!r} has non-finite entries")
    i = int(np.argmax(values))
    best_r, best_v = float(table.ratios[i]), float(values[i])
    if i == 0 or i == table.n_rows - 1:
        return PeakResult(ratio_star=best_r, value=best_v, column=column,
                          boundary=True, n_evals=0)
    if evaluator is None:
        evaluator = _make_evaluator(table, column)
    x, fun, n_evals = _bounded_brent(
        lambda r: -float(evaluator(r)),
        float(table.ratios[i - 1]), float(table.ratios[i + 1]), xtol)
    if -fun > best_v:
        best_r, best_v = x, -fun
    return PeakResult(ratio_star=best_r, value=best_v, column=column,
                      boundary=False, n_evals=n_evals)


# ------------------------------------------------------------------- fits


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (2, 1): value = 1 + slope * (N - 2)."""

    slope: float
    points: tuple
    residuals: tuple

    def predict(self, n: int) -> float:
        return 1.0 + self.slope * (n - 2)


def fit_scaling(points) -> ScalingFit:
    """Fit max-measure-versus-size points to a line constrained through (2, 1).

    Minimizing sum_i (y_i - 1 - m (N_i - 2))^2 gives
    m = sum (N-2)(y-1) / sum (N-2)^2 in closed form.
    """
    pts = tuple((_check_integer("N", n), float(y)) for n, y in points)
    if not pts:
        raise ValueError("fit requires at least one point")
    if not all(math.isfinite(y) for _, y in pts):
        raise ValueError("fit values must be finite")
    x = np.array([n - 2 for n, _ in pts], dtype=float)
    y = np.array([v - 1.0 for _, v in pts], dtype=float)
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValueError(
            "degenerate fit: all points have N = 2, slope is unconstrained"
        )
    slope = float(np.dot(x, y) / denom)
    residuals = tuple(float(r) for r in (y - slope * x))
    return ScalingFit(slope=slope, points=pts, residuals=residuals)
