"""Span recorder that wraps the public functions of each ``isingring`` layer.

Each wrapped call records (name, start, end, parent) in memory.  A function
is replaced at every module attribute that binds it (``isingring.sweep.
ground_state``, ``isingring.cli.global_discord``, the package namespace,
...), so calls between layers are seen as well as calls from the benchmark.
A layer's self time is its span time minus the time of its direct children.
Spans are grouped in rounds; ``layer_metrics`` scales each round's self
times by that round's reference-to-wall ratio (see ``speed.py``), so they
are in the same units as the untraced ``wall_ref_s``.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import time
from collections import defaultdict


def _count_gd(counts, result):
    counts["global_discord.n_evals"] += result.n_evals
    counts["global_discord.converged"] += bool(result.converged)


def _count_cuts(counts, result):
    counts["entanglement.cuts"] += result.n_bipartitions


def _count_probes(counts, result):
    counts["sweep.find_peak.probes"] += result.n_evals


#: (span name, module, attribute, hook reading counts off the result)
FUNCTIONS = (
    ("ring.ground_state", "isingring.ring", "ground_state", None),
    ("global_discord", "isingring.global_discord", "global_discord", _count_gd),
    ("pair_measures.discord", "isingring.pair_measures", "discord", None),
    ("pair_measures.mid", "isingring.pair_measures", "mid", None),
    ("pair_measures.amid", "isingring.pair_measures", "amid", None),
    ("pair_measures.reduced_two_spin", "isingring.pair_measures",
     "reduced_two_spin", None),
    ("pair_measures.toeplitz_correlators", "isingring.pair_measures",
     "toeplitz_correlators", None),
    ("pair_measures.x_state_from_correlators", "isingring.pair_measures",
     "x_state_from_correlators", None),
    ("entanglement.entanglement_stats", "isingring.entanglement",
     "entanglement_stats", _count_cuts),
    ("density.reduced_state", "isingring.density", "reduced_state", None),
    ("sweep.sweep", "isingring.sweep", "sweep", None),
    ("sweep.find_peak", "isingring.sweep", "find_peak", _count_probes),
    ("cli.main", "isingring.cli", "main", None),
)

#: SweepTable methods whose time is reported as sweep.table_io_s.
TABLE_IO = ("to_csv", "to_json", "from_csv", "from_json")


class Recorder:
    """In-memory spans plus counts taken from the wrapped calls' results."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.round_starts = []   # index of each round's first span
        self.counts = defaultdict(float)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None,
                 self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(self.counts, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "isingring"
                                         or name.startswith("isingring."))]
        for name, module_name, attr, hook in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        table = sys.modules["isingring.sweep"].SweepTable
        for attr in TABLE_IO:
            raw = vars(table)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap("sweep.table_io", raw.__func__, None))
            else:
                new = self._wrap("sweep.table_io", raw, None)
            self._restore.append((table, attr, raw))
            setattr(table, attr, new)

    def new_round(self) -> None:
        self.round_starts.append(len(self.spans))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self, scales) -> dict:
        """Total self time per span name, each span's time multiplied by
        ``scales[r]`` for the round ``r`` it belongs to."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, ((name, start, end, _), covered) in enumerate(zip(self.spans, child)):
            scale = scales[bisect.bisect_right(self.round_starts, i) - 1]
            out[name] += ((end - start) - covered) * scale
        return out

    def calls(self) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def layer_metrics(rec: Recorder, scales) -> dict:
    """Per-round figures of every layer, as ``name -> (value, unit)``.

    ``scales`` holds each round's reference seconds over its wall seconds.
    A layer the workload does not call reports 0.
    """
    calls, self_s = rec.calls(), rec.self_times(scales)
    per = float(len(scales))
    out = {}
    for name, *_ in FUNCTIONS:
        if not name.startswith("sweep."):
            out[f"{name}.calls"] = (calls[name] / per, "count")
        out[f"{name}.self_s"] = (self_s[name] / per, "s")
    n_evals = rec.counts["global_discord.n_evals"]
    out["global_discord.n_evals"] = (n_evals / per, "count")
    out["global_discord.eval_us"] = (
        1e6 * self_s["global_discord"] / n_evals if n_evals else 0.0, "us")
    out["global_discord.converged_ratio"] = (
        rec.counts["global_discord.converged"] / calls["global_discord"]
        if calls["global_discord"] else 0.0, "ratio")
    cuts = rec.counts["entanglement.cuts"]
    out["entanglement.cuts"] = (cuts / per, "count")
    out["entanglement.cut_us"] = (
        1e6 * self_s["entanglement.entanglement_stats"] / cuts if cuts else 0.0,
        "us")
    out["sweep.find_peak.probes"] = (
        rec.counts["sweep.find_peak.probes"] / per, "count")
    out["sweep.table_io_s"] = (self_s["sweep.table_io"] / per, "s")
    return out
