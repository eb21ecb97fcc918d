"""The benchmark's span recorder (``perfbench/spans.py``) wraps package
functions and ``SweepTable`` methods by name, and its set-up pass
(``perfbench/layers.py``) calls every layer with the keywords it names, so a
rename or a dropped keyword would break only a benchmark run.  These tests
resolve every name and run the set-up pass, so the break fails here first.
They execute each file's source in a fresh namespace, so nothing under
``perfbench/`` is imported, compiled or written."""

import importlib
import pathlib
import warnings

import isingring
import isingring.cli
from isingring.sweep import SweepTable

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _namespace(name):
    """The globals of ``perfbench/<name>.py`` after executing its source."""
    path = PERFBENCH / f"{name}.py"
    namespace = {"__name__": f"perfbench_{name}"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def test_perfbench_span_targets_resolve():
    namespace = _namespace("spans")
    functions, table_io = namespace["FUNCTIONS"], namespace["TABLE_IO"]
    assert functions and table_io
    for _, module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for attr in table_io:
        # the recorder reads the class's own attribute, as vars() holds it
        assert attr in vars(SweepTable), attr


def test_perfbench_setup_pass_runs(tmp_path):
    """The set-up pass runs without a warning and writes only its two files
    to its workdir."""
    setup_pass = _namespace("layers")["setup_pass"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        setup_pass(isingring, isingring.cli, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "setup_ground_state.json", "setup_table.csv"]
