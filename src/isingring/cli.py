"""Command-line interface: ground-state, measures, sweep, fit.

A subcommand parses its arguments into a computation and returns its output
(a record or a sweep table) and whether every requested optimization
converged.  ``main`` alone stamps the manifest (command, argument echo,
seed, package version, wall time) into that output, writes it, and turns
convergence into the exit code.  ``measures`` and ``sweep`` compute through
one measure table, ``sweep._MEASURES``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .global_discord import OptimizerConfig
from .ring import (
    RingConfig,
    ghz_state,
    ground_state,
    parity_expectation,
    product_state_down,
)
from .sweep import (
    _MEASURES,
    SweepTable,
    _atomic_write,
    _checked_ratios,
    _normalize_measures,
    _stalls,
    default_ratio_grid,
    find_peak,
    fit_scaling,
    sweep,
)

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


class _UsageError(Exception):
    """A combination of options that the parser cannot reject by itself."""


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
    _add_output(parser)


def _add_output(parser: argparse.ArgumentParser) -> None:
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
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the random search starts and AMID candidates")


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
    _add_output(p_ft)
    p_ft.set_defaults(func=_cmd_fit)
    return parser


def _is_json(path) -> bool:
    """The suffix rule: a path ending in ``.json`` holds JSON, any other CSV."""
    return (path or "").endswith(".json")


def _record_text(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2, default=str) + "\n"
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
    return buf.getvalue()


def _optimizer_from(args) -> OptimizerConfig:
    budget = {} if args.max_evals is None else {"max_evals": args.max_evals}
    return OptimizerConfig(restarts=args.restarts, seed=args.seed,
                           uniform_angles=args.uniform_angles, **budget)


def _state_for(args):
    if args.state == "ghz":
        return ghz_state(args.n), None
    if args.state == "product":
        return product_state_down(args.n), None
    config = RingConfig(n_sites=args.n, coupling_j=args.j, field_b=args.b)
    return ground_state(config)


def _cmd_ground_state(args):
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
    }
    return record, True


def _cmd_measures(args):
    # in the order the record lists them
    wanted = (("pair", args.pair is not None), ("gd", args.global_measure),
              ("estats", args.estats))
    groups = [group for group, flag in wanted if flag]
    if not groups:
        raise _UsageError(
            "measures: choose at least one of --pair/--global/--estats")
    state, energy = _state_for(args)
    record = {
        "n_sites": args.n,
        "state": args.state,
        "coupling_j": args.j,
        "field_b": args.b,
    }
    if energy is not None:
        record["energy"] = energy
    opt = _optimizer_from(args)
    # the pair polishes warn ConvergenceWarning when they reach their step
    # cap; a sweep collects the same warnings per row, as row errors
    with _stalls() as stalls:
        for group in groups:
            key, record_of, _ = _MEASURES[group]
            record[key] = record_of(state, opt, args.pair)
    return record, not stalls and record.get("global_discord", {}).get(
        "converged", True)


def _cmd_sweep(args):
    table = sweep(
        args.n,
        ratios=args.ratio_grid,
        measures=args.measures,
        opt=_optimizer_from(args),
        n_workers=args.threads,
    )
    gd_ok = "gd" not in args.measures or np.all(table.columns["gd_converged"] == 1.0)
    return table, bool(gd_ok) and not table.metadata["row_errors"]


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


def _cmd_fit(args):
    if (args.points is None) == (args.tables is None):
        raise _UsageError("fit: supply exactly one of --points or --tables")
    points, peaks = args.points or [], []
    for path in args.tables or ():
        loader = (
            SweepTable.from_json if _is_json(path)
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
    return record, True


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call in a process.

    Building one costs more than most commands it parses; parsing leaves no
    state in it, since every call fills a fresh namespace.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        output, converged = args.func(args)
        echo = {k: [float(x) for x in v] if isinstance(v, np.ndarray) else v
                for k, v in sorted(vars(args).items()) if k not in ("func", "command")}
        manifest = {"command": args.command, "arguments": echo,
                    "seed": getattr(args, "seed", None), "version": __version__,
                    "wall_time_s": round(time.perf_counter() - t0, 3)}
        if isinstance(output, SweepTable):
            output.metadata["manifest"] = manifest
            fmt = args.fmt or ("json" if _is_json(args.out) else "csv")
            text = output._json_text() if fmt == "json" else output._csv_text()
        else:
            output.update(converged=converged, manifest=manifest)
            text = _record_text(output, args.fmt or "json")
        if args.out:
            _atomic_write(args.out, text)
        else:
            sys.stdout.write(text)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # surface a clean one-line error, not a traceback
        print(f"isingring: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
