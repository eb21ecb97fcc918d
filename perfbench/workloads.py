"""The three workloads: inputs made from the seed, the timed job, the checks.

A job is one round of a fixed list of operations; an operation is one call
into a measure or one CLI command.  Jobs return plain numbers, text and
digests so rounds (and traced against untraced runs) compare exactly; the
arrays the checks need are kept on the workload object.  Checks run outside
the timed phase and compare against ``references`` (which imports nothing
from ``isingring``) or against properties the method must have.  Every
comparison is written so that it passes only on a good value: NaN, which
compares false with everything, fails it.  A check also fails when an
output it expects is missing because its operation failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np

import isingring as ir
import isingring.cli as cli
import references as ref

#: Measured GD may undercut the brute-force scan only by the scan's
#: resolution (its last zoom step is below 1e-4 rad, the error O(step^2)).
SCAN_TOL = 1e-6
#: Slack for an optimizer value above a brute-force value it should beat.
OPT_TOL = 1e-8
ENERGY_TOL = 1e-9
ESTATS_TOL = 1e-10


class Ops:
    """Counts attempted operations and records the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{label}: {exc!r}")
            return None

    def cli(self, argv) -> str | None:
        """Run ``isingring ARGV`` in process; stdout on exit code 0, else None."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:
            self.failures.append(f"isingring {argv[0]}: {exc!r} {err.getvalue()}")
            return None
        if code != 0:
            self.failures.append(
                f"isingring {argv[0]} exited {code}: {err.getvalue().strip()}")
            return None
        return out.getvalue()


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _without_manifest(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "manifest"}


def _check_pair(fails, label, d, m, a, mat):
    """Discord against the brute-force scan, then discord <= AMID <= MID."""
    if None in (d, m, a):
        fails.append(f"{label}: discord, MID or AMID missing")
        return
    d_ref = ref.symmetric_discord(mat)
    if not abs(d - d_ref) <= SCAN_TOL:
        fails.append(f"{label}: discord {d!r} vs brute-force scan {d_ref!r}")
    if not d <= a + OPT_TOL:
        fails.append(f"{label}: discord {d!r} > AMID {a!r}")
    if not a <= m + 1e-6:
        fails.append(f"{label}: AMID {a!r} > MID {m!r} + 1e-6")


def _check_estats(fails, label, stats, psi, n):
    if stats is None:
        fails.append(f"{label}: entanglement stats missing")
        return
    mean, var, count = ref.cut_statistics(psi, n)
    if not (abs(stats[0] - mean) <= ESTATS_TOL and abs(stats[1] - var) <= ESTATS_TOL
            and stats[2] == count):
        fails.append(f"{label}: entanglement stats {stats!r} vs SVD "
                     f"({mean!r}, {var!r}, {count})")


def _check_gd(fails, label, value, psi, n):
    """GD no higher than the shared-angle scan, nor below its resolution."""
    scan = ref.shared_angle_gd(psi, n)
    if not scan - SCAN_TOL <= value <= scan + OPT_TOL:
        fails.append(f"{label}: GD {value!r} vs shared-angle scan {scan!r}")


class GdPeakScan:
    """CLI sweeps of shared-angle GD around B/J = 1, the fit, one free GD.

    Each N gets the log grid 0.45..1.35 (5 points) scaled by a seeded factor
    in [0.95, 1.05]; every scaled grid brackets the N = 3, 4, 5 peaks
    (B/J ~ 0.69, 0.84, 0.92) strictly inside, so ``fit`` refines all three.
    """

    SIZES = (3, 4, 5)
    RESTARTS = 4

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng([seed, 1])
        base = np.geomspace(0.45, 1.35, 5)
        self.seed = seed
        self.grids = {n: [round(float(x), 6) for x in base * rng.uniform(0.95, 1.05)]
                      for n in self.SIZES}
        self.paths = {n: workdir / f"sweep_n{n}.csv" for n in self.SIZES}

    def _read_table(self, n) -> dict:
        table = ir.SweepTable.from_csv(str(self.paths[n]))
        cols = table.columns
        return {"digest": _digest(np.stack([cols[c] for c in ir.COLUMNS])),
                "row_errors": table.metadata["row_errors"],
                "ratio": cols["ratio"].tolist(), "gd": cols["gd"].tolist(),
                "converged": cols["gd_converged"].tolist()}

    def job(self, ops: Ops) -> dict:
        common = ["--uniform-angles", "--restarts", self.RESTARTS, "--seed", self.seed]
        out = {"tables": {}, "fit": None, "free": None}
        for n in self.SIZES:
            grid = ",".join(repr(r) for r in self.grids[n])
            if ops.cli(["sweep", "--n", n, "--ratio-grid", grid, "--measures", "gd",
                        *common, "--out", self.paths[n]]) is not None:
                out["tables"][n] = self._read_table(n)
        text = ops.cli(["fit", "--tables", *(self.paths[n] for n in self.SIZES),
                        "--format", "json"])
        if text is None:
            return out
        out["fit"] = _without_manifest(json.loads(text))
        smallest = min(out["fit"]["peaks"], key=lambda p: p["n_sites"])
        text = ops.cli(["measures", "--n", smallest["n_sites"], "--j", 1.0,
                        "--b", repr(smallest["ratio_star"]), "--global",
                        "--restarts", self.RESTARTS, "--seed", self.seed,
                        "--format", "json"])
        if text is not None:
            out["free"] = _without_manifest(json.loads(text))
        return out

    @staticmethod
    def opt_sum(out) -> float:
        total = sum(sum(t["gd"]) for t in out["tables"].values())
        if out["fit"]:
            total += sum(p["value"] for p in out["fit"]["peaks"])
        if out["free"]:
            total += out["free"]["global_discord"]["value"]
        return total

    def check(self, out) -> list[str]:
        fails = []
        for n in self.SIZES:
            table = out["tables"].get(n)
            if table is None:
                fails.append(f"N={n}: no sweep table")
                continue
            if table["ratio"] != self.grids[n]:
                fails.append(f"N={n}: table ratios {table['ratio']!r} are not the grid")
            if table["row_errors"] or any(c != 1.0 for c in table["converged"]):
                fails.append(f"N={n}: sweep row errors or unconverged GD")
            for r, gd in zip(table["ratio"], table["gd"]):
                _check_gd(fails, f"sweep N={n} B/J={r}", gd,
                          ref.ring_state(n, 1.0, r), n)
        if self.SIZES[0] in out["tables"]:
            fails += self._check_workers()
        fit = out["fit"]
        if fit is None:
            return fails + ["no fit output"]
        peaks = sorted(fit["peaks"], key=lambda p: p["n_sites"])
        if [p["n_sites"] for p in peaks] != list(self.SIZES):
            return fails + [f"fit peaks for N = {[p['n_sites'] for p in peaks]}"]
        for p in peaks:
            n, r_star = p["n_sites"], p["ratio_star"]
            table = out["tables"].get(n)
            if table is None:
                continue
            i = int(np.argmax(table["gd"]))
            last = len(table["ratio"]) - 1
            lo, hi = table["ratio"][max(i - 1, 0)], table["ratio"][min(i + 1, last)]
            if p["boundary"] or not lo < r_star < hi:
                fails.append(f"N={n}: peak {r_star!r} outside bracket ({lo}, {hi})")
            if not p["value"] >= max(table["gd"]):
                fails.append(f"N={n}: refined peak below the grid maximum")
            _check_gd(fails, f"peak N={n}", p["value"],
                      ref.ring_state(n, 1.0, r_star), n)
        devs = [abs(p["ratio_star"] - 1.0) for p in peaks]
        if not all(b <= a for a, b in zip(devs, devs[1:])):
            fails.append(f"|ratio* - 1| grows with N: {devs!r}")
        x = np.array([p["n_sites"] - 2.0 for p in peaks])
        y = np.array([p["value"] - 1.0 for p in peaks])
        slope = float(np.dot(x, y) / np.dot(x, x))
        if not abs(slope - fit["slope"]) <= 1e-12 * max(1.0, abs(slope)):
            fails.append(f"fit slope {fit['slope']!r} != recomputed {slope!r}")
        free = out["free"]
        if free is None:
            return fails + ["no free-angle GD output"]
        n, b = free["n_sites"], free["field_b"]
        shared = next((p["value"] for p in peaks if p["n_sites"] == n), None)
        value = free["global_discord"]["value"]
        if shared is None or not abs(value - shared) <= 1e-6:
            fails.append(f"free-angle GD {value!r} vs shared {shared!r} at N={n}")
        _, energy = ref.lanczos_ground(n, 1.0, b)
        if not abs(free["energy"] - energy) <= ENERGY_TOL:
            fails.append(f"N={n} B={b}: energy {free['energy']!r} vs {energy!r}")
        return fails

    def _check_workers(self) -> list[str]:
        """The smallest grid recomputed on 2 worker processes equals the table."""
        n = self.SIZES[0]
        serial = ir.SweepTable.from_csv(str(self.paths[n]))
        serial = ir.SweepTable(columns=serial.columns,
                               metadata=_without_manifest(serial.metadata))
        opt = ir.OptimizerConfig(seed=self.seed, uniform_angles=True,
                                 restarts=self.RESTARTS)
        parallel = ir.sweep(n, self.grids[n], measures=("gd",), opt=opt,
                            seed=self.seed, n_workers=2)
        if not parallel.same_as(serial):
            return [f"N={n}: sweep with 2 workers differs from the serial table"]
        return []


def _random_x_state(rng) -> np.ndarray:
    """Diagonal from a Dirichlet draw, coherences inside the PSD limits."""
    d = rng.dirichlet(np.ones(4))
    f = rng.uniform(0.0, math.sqrt(d[0] * d[3])) * np.exp(2j * math.pi * rng.uniform())
    e = rng.uniform(0.0, math.sqrt(d[1] * d[2])) * np.exp(2j * math.pi * rng.uniform())
    mat = np.diag(d).astype(complex)
    mat[0, 3], mat[3, 0] = f, np.conj(f)
    mat[1, 2], mat[2, 1] = e, np.conj(e)
    return mat


def _random_density(rng) -> np.ndarray:
    """Full-rank Ginibre two-qubit state: no X pattern."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_pure(rng, n) -> np.ndarray:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


class StateMeasures:
    """Pair measures and entanglement statistics on seeded fixed states.

    Pairs: 4 X states and 2 non-X (full-rank) states, ring ground-state pairs
    (N = 6: separations 1, 2, 3; N = 8: separations 1, 4) at seeded B/J in
    [0.95, 1.05], and Toeplitz X states at J/B in [0.58, 0.62] and [1.55, 1.65]
    with separations 1, 2, 3.  The random two-qubit states are a fixed panel
    (drawn from PANEL_SEED) mixed with weight JITTER with states drawn from
    the run's seed, so every seed measures the same kinds of state while
    the sum of attained values stays comparable between seeds.
    Entanglement: ring ground states at N = 10, 12 (translation invariant)
    and random pure states at N = 10, 11, 12 (no symmetry).  Ring states come
    from the reference Lanczos solver, so the dense solver does no work here.
    """

    PANEL_SEED = 20121
    JITTER = 0.05

    def __init__(self, seed: int, workdir):
        panel = np.random.default_rng(self.PANEL_SEED)
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        mixed = [(f"x{k}", _random_x_state(panel), _random_x_state(rng))
                 for k in range(4)]
        mixed += [(f"nonx{k}", _random_density(panel), _random_density(rng))
                  for k in range(2)]
        self.matrices = [
            (label, ir.DensityMatrix((1.0 - self.JITTER) * a + self.JITTER * b, (0, 1)))
            for label, a, b in mixed]
        self.ring_pairs = []
        for n, seps in ((6, (1, 2, 3)), (8, (1, 4))):
            b = round(float(rng.uniform(0.95, 1.05)), 6)
            psi = ref.ring_state(n, 1.0, b)
            state = ir.PureState(psi, n)
            self.ring_pairs += [(f"ring N={n} B/J={b} (0,{s})", state, psi, n, s)
                                for s in seps]
        self.lams = [round(float(rng.uniform(0.58, 0.62)), 6),
                     round(float(rng.uniform(1.55, 1.65)), 6)]
        self.pair_labels = ([label for label, _ in self.matrices]
                            + [pair[0] for pair in self.ring_pairs]
                            + [self._toeplitz_label(lam, s)
                               for lam in self.lams for s in (1, 2, 3)])
        self.pure = []
        for n in (10, 12):
            b = round(float(rng.uniform(0.6, 1.4)), 6)
            self.pure.append((f"ring N={n} B/J={b}", ref.ring_state(n, 1.0, b), n))
        self.pure += [(f"random N={n}", _random_pure(rng, n), n) for n in (10, 11, 12)]
        self.pure = [(label, ir.PureState(psi, n), psi, n) for label, psi, n in self.pure]
        self.seen = {}

    @staticmethod
    def _toeplitz_label(lam, s) -> str:
        return f"toeplitz lam={lam} s={s}"

    def _measure(self, ops, label, rho, out):
        d = ops.call(f"discord {label}", ir.discord, rho)
        m = ops.call(f"mid {label}", ir.mid, rho)
        a = ops.call(f"amid {label}", ir.amid, rho, seed=self.seed)
        mat = np.asarray(rho.matrix)
        self.seen[label] = mat
        out["pairs"].append((label, _digest(mat), d, m, a))

    def job(self, ops: Ops) -> dict:
        out = {"pairs": [], "estats": []}
        for label, rho in self.matrices:
            self._measure(ops, label, rho, out)
        for label, state, _, _, s in self.ring_pairs:
            rho = ops.call(f"reduced_two_spin {label}", ir.reduced_two_spin, state, 0, s)
            if rho is not None:
                self._measure(ops, label, rho, out)
        for lam in self.lams:
            for s in (1, 2, 3):
                label = self._toeplitz_label(lam, s)
                corr = ops.call(f"toeplitz_correlators {label}",
                                ir.toeplitz_correlators, lam, s)
                rho = corr and ops.call(f"x_state {label}",
                                        ir.x_state_from_correlators, corr)
                if rho is not None:
                    self._measure(ops, label, rho, out)
        for label, state, _, _ in self.pure:
            stats = ops.call(f"entanglement_stats {label}", ir.entanglement_stats, state)
            if stats is not None:
                out["estats"].append(
                    (label, stats.mean, stats.variance, stats.n_bipartitions))
        return out

    @staticmethod
    def opt_sum(out) -> float:
        return sum((d or 0.0) + (a or 0.0) for _, _, d, _, a in out["pairs"])

    def check(self, out) -> list[str]:
        fails = []
        if [pair[0] for pair in out["pairs"]] != self.pair_labels:
            fails.append("pair states missing: their construction failed")
        if [stats[0] for stats in out["estats"]] != [p[0] for p in self.pure]:
            fails.append("entanglement stats missing")
        ring = {label: (psi, n, s) for label, _, psi, n, s in self.ring_pairs}
        for label, _, d, m, a in out["pairs"]:
            mat = self.seen[label]
            if not np.all(np.isfinite(mat)):
                fails.append(f"{label}: non-finite pair state")
                continue
            if label in ring:
                psi, n, s = ring[label]
                if not np.max(np.abs(mat - ref.reduced_pair(psi, n, 0, s))) <= 1e-12:
                    fails.append(f"{label}: reduced state differs from reference")
            evals = np.linalg.eigvalsh(mat)
            if not (abs(np.trace(mat).real - 1.0) <= 1e-9 and evals[0] >= -1e-12):
                fails.append(f"{label}: not a density matrix (eigenvalues {evals})")
            _check_pair(fails, label, d, m, a, mat)
        psis = {label: (psi, n) for label, _, psi, n in self.pure}
        for label, *stats in out["estats"]:
            _check_estats(fails, label, stats, *psis[label])
        return fails


class LargeRing:
    """Dense solves at N = 12 (B/J = 1), N = 11 (B = 0) and N = 11 (seeded
    B/J in [0.5, 1.5]), each with entanglement statistics and nearest-
    neighbour pair measures, plus one shared-angle GD at N = 10, B/J = 1."""

    GD_SIZE = 10
    GD_RESTARTS = 8

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.points = [(12, 1.0), (11, 0.0), (11, round(float(rng.uniform(0.5, 1.5)), 6))]
        self.states = {}

    def job(self, ops: Ops) -> dict:
        out = {"points": [], "gd": None}
        for n, b in self.points:
            label = f"N={n} B/J={b}"
            solved = ops.call(f"ground_state {label}", ir.ground_state,
                              ir.RingConfig(n, 1.0, b))
            if solved is None:
                continue
            gs, energy = solved
            self.states[(n, b)] = gs.amplitudes
            stats = ops.call(f"entanglement_stats {label}", ir.entanglement_stats, gs)
            pair = ops.call(f"reduced_two_spin {label}", ir.reduced_two_spin, gs, 0, 1)
            d = m = a = None
            if pair is not None:
                self.states[(n, b, "pair")] = np.asarray(pair.matrix)
                d = ops.call(f"discord {label}", ir.discord, pair)
                m = ops.call(f"mid {label}", ir.mid, pair)
                a = ops.call(f"amid {label}", ir.amid, pair, seed=self.seed)
            out["points"].append((n, b, energy, _digest(gs.amplitudes),
                                  stats and (stats.mean, stats.variance,
                                             stats.n_bipartitions), d, m, a))
        solved = ops.call("ground_state GD point", ir.ground_state,
                          ir.RingConfig(self.GD_SIZE, 1.0, 1.0))
        if solved is not None:
            opt = ir.OptimizerConfig(uniform_angles=True, restarts=self.GD_RESTARTS,
                                     seed=self.seed)
            res = ops.call("global_discord", ir.global_discord, solved[0], opt)
            if res is not None:
                out["gd"] = (res.value, res.converged, res.n_evals, solved[1])
        return out

    @staticmethod
    def opt_sum(out) -> float:
        total = sum((p[5] or 0.0) + (p[7] or 0.0) for p in out["points"])
        return total + (out["gd"][0] if out["gd"] else 0.0)

    def check(self, out) -> list[str]:
        fails = []
        if [(p[0], p[1]) for p in out["points"]] != self.points:
            fails.append("ground states missing: their solve failed")
        for n, b, energy, _, stats, d, m, a in out["points"]:
            label = f"N={n} B/J={b}"
            vec, e_ref = ref.lanczos_ground(n, 1.0, b)
            amps = self.states[(n, b)]
            if not np.all(np.isfinite(amps)):
                fails.append(f"{label}: non-finite ground state")
                continue
            if not abs(energy - e_ref) <= ENERGY_TOL:
                fails.append(f"{label}: energy {energy!r} vs Lanczos {e_ref!r}")
            par = ref.parity(amps, n)
            if n % 2 == 0 and abs(par - 1.0) < 1e-9:
                e_ff = ref.free_fermion_energy(n, 1.0, b)
                if not abs(energy - e_ff) <= ENERGY_TOL:
                    fails.append(f"{label}: energy {energy!r} vs free fermions {e_ff!r}")
            if b == 0.0 and not abs(par - 1.0) <= 1e-9:
                fails.append(f"{label}: parity {par!r}, expected +1")
            if b > 0.0 and not abs(np.vdot(vec, amps)) >= 1.0 - 1e-9:
                fails.append(f"{label}: state overlap with Lanczos below 1 - 1e-9")
            _check_estats(fails, label, stats, amps, n)
            _check_pair(fails, label, d, m, a, self.states.get((n, b, "pair")))
        if out["gd"] is None:
            return fails + ["no GD output at N=10"]
        value, converged, _, energy = out["gd"]
        n = self.GD_SIZE
        psi, e_ref = ref.lanczos_ground(n, 1.0, 1.0)
        if not abs(energy - e_ref) <= ENERGY_TOL:
            fails.append(f"GD point: energy {energy!r} vs Lanczos {e_ref!r}")
        if not abs(energy - ref.free_fermion_energy(n, 1.0, 1.0)) <= ENERGY_TOL:
            fails.append("GD point: energy differs from free fermions")
        if not converged:
            fails.append("GD at N=10 did not converge")
        _check_gd(fails, f"GD N={n}", value, psi.astype(complex), n)
        return fails


WORKLOADS = {
    "gd_peak_scan": GdPeakScan,
    "state_measures": StateMeasures,
    "large_ring": LargeRing,
}
