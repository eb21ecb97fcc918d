"""The benchmark's span recorder (``perfbench/spans.py``) wraps package
functions and ``SweepTable`` methods by name, so a rename would break only a
traced benchmark run.  This test reads its two tables and resolves every
name, so the rename fails here first.  It executes the file's source in a
fresh namespace, so nothing under ``perfbench/`` is imported or written."""

import importlib
import pathlib

from isingring.sweep import SweepTable

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_span_targets_resolve():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    functions, table_io = namespace["FUNCTIONS"], namespace["TABLE_IO"]
    assert functions and table_io
    for _, module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for attr in table_io:
        # the recorder reads the class's own attribute, as vars() holds it
        assert attr in vars(SweepTable), attr
