"""Command-line interface: ground-state, measures, sweep, fit.

Every run emits a manifest (command, argument echo, seed, package version,
wall time) embedded in its output so results stay reproducible.  The exit
code is 0 only when every requested optimization converged.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .entanglement import entanglement_stats
from .errors import ConvergenceWarning
from .global_discord import OptimizerConfig, global_discord
from .pair_measures import (
    amid,
    discord,
    mid,
    pair_mutual_information,
    reduced_two_spin,
)
from .ring import (
    RingConfig,
    ghz_state,
    ground_state,
    parity_expectation,
    product_state_down,
)
from .sweep import (
    SweepTable,
    _atomic_write,
    _checked_ratios,
    _normalize_measures,
    default_ratio_grid,
    find_peak,
    fit_scaling,
    sweep,
)

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_ERROR = 3


@dataclass
class RunManifest:
    """Reproducibility record attached to every CLI output."""

    command: str
    arguments: dict
    seed: int | None
    version: str
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_ratio_grid(spec: str) -> np.ndarray:
    """Grid spec 'start:stop:count[:log|lin]' or a comma list of ratios."""
    try:
        parts = spec.split(":")
        if len(parts) == 1:
            grid = [float(tok) for tok in spec.split(",") if tok.strip()]
        elif not np.all(np.isfinite([float(p) for p in parts[:2]])):
            raise ValueError("start and stop must be finite")
        elif len(parts) in (3, 4) and parts[3:] in ([], ["log"]):
            grid = default_ratio_grid(float(parts[0]), float(parts[1]), int(parts[2]))
        elif len(parts) == 4 and parts[3] == "lin" and int(parts[2]) >= 2:
            grid = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
        else:
            raise ValueError("expected start:stop:count[:log|lin] with count >= 2")
        if len(grid) == 0:
            raise ValueError("empty ratio grid")
        return _checked_ratios(grid)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}: {exc}") from None


def _parse_measures(spec: str) -> tuple:
    """Measures spec: a nonempty comma list of measure groups."""
    try:
        return _normalize_measures(t.strip() for t in spec.split(",") if t.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_threads(spec: str) -> int:
    """Worker count: an integer >= 1."""
    if not spec.isdigit() or int(spec) < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {spec!r}")
    return int(spec)


def _add_common(parser: argparse.ArgumentParser, *, needs_field: bool) -> None:
    parser.add_argument("--n", type=int, required=True, help="ring size N")
    if needs_field:
        parser.add_argument("--j", type=float, default=1.0, help="coupling J")
        parser.add_argument("--b", type=float, default=0.0, help="field B")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None, help="output file")
    parser.add_argument(
        "--format", choices=("csv", "json"), default=None, dest="fmt"
    )


def _add_optimizer(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--restarts", type=int, default=None,
        help="multi-start count for the global-discord search (the "
        "fallback when the certified basis does not apply)",
    )
    parser.add_argument(
        "--max-evals", type=int, default=None,
        help="objective evaluation budget",
    )
    parser.add_argument(
        "--uniform-angles", action="store_true",
        help="restrict the fallback search to one shared angle pair for "
        "all sites",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingring",
        description="Exact transverse-field Ising rings and their "
        "quantum-correlation measures.",
    )
    parser.add_argument(
        "--threads", type=_parse_threads, default=None,
        help="worker processes for sweeps, >= 1 (default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gs = sub.add_parser("ground-state", help="solve the ring ground state")
    _add_common(p_gs, needs_field=True)
    p_gs.set_defaults(func=_cmd_ground_state)

    p_me = sub.add_parser("measures", help="correlation measures on a state")
    _add_common(p_me, needs_field=True)
    p_me.add_argument(
        "--state", choices=("ground", "ghz", "product"), default="ground"
    )
    p_me.add_argument(
        "--pair", type=int, nargs=2, metavar=("I", "J"), default=None,
        help="two-spin discord/MID/AMID for sites I and J",
    )
    p_me.add_argument(
        "--global", dest="global_measure", action="store_true",
        help="global quantum discord",
    )
    p_me.add_argument(
        "--estats", action="store_true",
        help="bipartition-entanglement statistics",
    )
    _add_optimizer(p_me)
    p_me.set_defaults(func=_cmd_measures)

    p_sw = sub.add_parser("sweep", help="measures over a B/J grid")
    _add_common(p_sw, needs_field=False)
    p_sw.add_argument(
        "--ratio-grid", type=_parse_ratio_grid, default=None,
        help="'start:stop:count[:log|lin]' or 'r1,r2,...' "
        "(default: 100 log points on [0.01, 6] plus 1.0)",
    )
    p_sw.add_argument(
        "--measures", type=_parse_measures, default="gd,pair,estats",
        help="comma list from {gd,pair,estats}",
    )
    _add_optimizer(p_sw)
    p_sw.set_defaults(func=_cmd_sweep)

    p_ft = sub.add_parser(
        "fit", help="constrained size-scaling fit of peak values"
    )
    p_ft.add_argument(
        "--points", type=_parse_points, default=None,
        help="comma list of N:maxvalue pairs, e.g. '3:1.83,4:2.44'",
    )
    p_ft.add_argument(
        "--tables", type=str, nargs="+", default=None,
        help="sweep tables (csv/json); each contributes its refined gd peak",
    )
    p_ft.add_argument("--out", type=str, default=None)
    p_ft.add_argument(
        "--format", choices=("csv", "json"), default=None, dest="fmt"
    )
    p_ft.set_defaults(func=_cmd_fit)
    return parser


def _manifest(args, command: str, t0: float) -> RunManifest:
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        if isinstance(value, np.ndarray):
            value = [float(v) for v in value]
        echo[key] = value
    return RunManifest(
        command=command,
        arguments=echo,
        seed=getattr(args, "seed", None),
        version=__version__,
        wall_time_s=round(time.time() - t0, 3),
    )


def _emit_record(record: dict, args) -> None:
    fmt = args.fmt or "json"
    if fmt == "json":
        text = json.dumps(record, indent=2, default=str) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "value"))
        for key, value in record.items():
            items = ([(f"{key}.{k2}", v2) for k2, v2 in value.items()]
                     if isinstance(value, dict) and key != "manifest"
                     else [(key, value)])
            # None is an empty cell, so the key set does not depend on it;
            # lists, nested records and the manifest are JSON text, quoted
            # by the writer where their commas would split the row
            for name, v in items:
                cell = ("" if v is None else v if np.isscalar(v)
                        else json.dumps(v, default=str))
                writer.writerow((name, cell))
        text = buf.getvalue()
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _optimizer_from(args) -> OptimizerConfig:
    kwargs = {"seed": args.seed, "uniform_angles": args.uniform_angles}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    if args.max_evals is not None:
        kwargs["max_evals"] = args.max_evals
    return OptimizerConfig(**kwargs)


def _state_for(args):
    if args.state == "ghz":
        return ghz_state(args.n), None
    if args.state == "product":
        return product_state_down(args.n), None
    config = RingConfig(n_sites=args.n, coupling_j=args.j, field_b=args.b)
    return ground_state(config)


def _cmd_ground_state(args) -> int:
    t0 = time.time()
    config = RingConfig(n_sites=args.n, coupling_j=args.j, field_b=args.b)
    gs, energy = ground_state(config)
    amps = gs.amplitudes
    top = np.argsort(np.abs(amps))[::-1][:8]
    record = {
        "n_sites": args.n,
        "coupling_j": args.j,
        "field_b": args.b,
        "energy": energy,
        "energy_per_site": energy / args.n,
        "parity": parity_expectation(gs),
        "leading_amplitudes": {
            format(int(k), f"0{args.n}b"): [
                float(amps[k].real), float(amps[k].imag)
            ]
            for k in top
            if abs(amps[k]) > 1e-12
        },
        "converged": True,
    }
    record["manifest"] = _manifest(args, "ground-state", t0).to_dict()
    _emit_record(record, args)
    return EXIT_OK


def _cmd_measures(args) -> int:
    t0 = time.time()
    if args.pair is None and not args.global_measure and not args.estats:
        print(
            "measures: choose at least one of --pair/--global/--estats",
            file=sys.stderr,
        )
        return 2
    state, energy = _state_for(args)
    record = {
        "n_sites": args.n,
        "state": args.state,
        "coupling_j": args.j,
        "field_b": args.b,
    }
    if energy is not None:
        record["energy"] = energy
    converged = True
    if args.pair is not None:
        i, j = args.pair
        pair = reduced_two_spin(state, i, j)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            d_a = discord(pair, direction="a->b")
            d_b = discord(pair, direction="b->a")
            record["pair"] = {
                "sites": [i, j],
                "discord": max(d_a, d_b),
                "discord_a_measured": d_a,
                "discord_b_measured": d_b,
                "mid": mid(pair),
                "amid": amid(pair, seed=args.seed),
                "mutual_information": pair_mutual_information(pair),
            }
        if any(issubclass(w.category, ConvergenceWarning) for w in caught):
            converged = False
    if args.global_measure:
        result = global_discord(state, _optimizer_from(args))
        record["global_discord"] = {
            "value": result.value,
            "converged": result.converged,
            "n_restarts": result.n_restarts,
            "n_evals": result.n_evals,
            "basis": result.basis,
            # ~9 digits are stable: its central differences scale rounding by 1e6
            "hessian_margin": (None if result.hessian_margin is None
                               else round(result.hessian_margin, 8)),
        }
        converged = converged and result.converged
    if args.estats:
        stats = entanglement_stats(state)
        record["entanglement_stats"] = {
            "mean": stats.mean,
            "variance": stats.variance,
            "n_bipartitions": stats.n_bipartitions,
        }
    record["converged"] = converged
    record["manifest"] = _manifest(args, "measures", t0).to_dict()
    _emit_record(record, args)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _cmd_sweep(args) -> int:
    t0 = time.time()
    table = sweep(
        args.n,
        ratios=args.ratio_grid,
        measures=args.measures,
        opt=_optimizer_from(args),
        seed=args.seed,
        n_workers=args.threads,
    )
    table.metadata["manifest"] = _manifest(args, "sweep", t0).to_dict()
    fmt = args.fmt or ("json" if (args.out or "").endswith(".json") else "csv")
    if args.out:
        (table.to_json if fmt == "json" else table.to_csv)(args.out)
    else:
        sys.stdout.write(table._json_text() if fmt == "json" else table._csv_text())
    ok = not table.metadata["row_errors"]
    if "gd" in args.measures:
        ok = ok and bool(np.all(table.columns["gd_converged"] == 1.0))
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _parse_points(spec: str) -> list[tuple[int, float]]:
    """Points spec: a nonempty comma list of N:value pairs, values finite."""
    points = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        n_str, _, v_str = token.partition(":")
        try:
            points.append((int(n_str), float(v_str)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad point {token!r}: {exc}") from None
    if not points or not np.all(np.isfinite([v for _, v in points])):
        raise argparse.ArgumentTypeError(f"need finite N:value points, got {spec!r}")
    return points


def _cmd_fit(args) -> int:
    t0 = time.time()
    if (args.points is None) == (args.tables is None):
        print("fit: supply exactly one of --points or --tables", file=sys.stderr)
        return 2
    points, peaks = args.points or [], []
    for path in args.tables or ():
        loader = (
            SweepTable.from_json if path.endswith(".json")
            else SweepTable.from_csv
        )
        table = loader(path)
        peak = find_peak(table, "gd")
        points.append((table.metadata["n_sites"], peak.value))
        peaks.append(
            {
                "n_sites": table.metadata["n_sites"],
                "ratio_star": peak.ratio_star,
                "value": peak.value,
                "boundary": peak.boundary,
            }
        )
    fit = fit_scaling(points)
    record = {
        "slope": fit.slope,
        "points": [[n, v] for n, v in fit.points],
        "residuals": list(fit.residuals),
    }
    if peaks:
        record["peaks"] = peaks
    record["converged"] = True
    record["manifest"] = _manifest(args, "fit", t0).to_dict()
    _emit_record(record, args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # surface a clean one-line error, not a traceback
        print(f"isingring: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
