"""The benchmark's workloads are valid runs: at both benchmark seeds each
config passes config.from_dict and runtime.init_state builds it, so a schema
change cannot break the benchmark without a test failing."""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

from sflsim import config as config_mod
from sflsim import kernel, runtime

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [0, 1000])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_builds(name, seed):
    cfg = config_mod.from_dict(workloads.config_dict(name, seed))
    state = runtime.init_state(cfg)
    assert cfg.seed == seed and sorted(state.shards) == list(range(cfg.devices))


# The harness reads the package by name: span names in benchmarks/tracing.py
# and benchmarks/run.py, round functions and TrainState fields. A rename there
# would silently zero a per-layer metric or break the benchmark.
_BENCH = _PATH.parent
_TRACING_SPEC = importlib.util.spec_from_file_location("benchmark_tracing", _BENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_TRACING_SPEC)
_TRACING_SPEC.loader.exec_module(tracing)

_SPAN_READERS = {"self_s", "incl_s", "setup_s", "select", "names_matching", "SpanTable"}
# Span names the harness reads though the package dropped them: the snapshot
# copies behind runtime.state_copy_s (ROADMAP open item 1, harness debt).
_KNOWN_DEAD_SPANS = {"kernel.stack_state", "kernel.load_state"}
_RUN_READS_STATE = {"global_model", "global_device", "global_server", "global_head", "shards",
                    "spec", "op_index", "frozen_device", "dataset", "ledger", "buffer", "config"}


def _string_values(node):
    """The span names a call argument spells out: string constants, lists of
    them, and f-strings over ``kind`` expanded by tracing.LAYER_KINDS."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.List, ast.Tuple)):
        return [name for item in node.elts for name in _string_values(item)]
    if isinstance(node, ast.JoinedStr):
        def render(kind):
            return "".join(part.value if isinstance(part, ast.Constant) else kind
                           for part in node.values)
        return [render(kind) for kind in tracing.LAYER_KINDS]
    return []


def _harness_span_names():
    """(span names, span-name prefixes) that the harness passes to its span readers."""
    names, prefixes = set(), set()
    for path in (_BENCH / "tracing.py", _BENCH / "run.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in _SPAN_READERS:
                found = {n for arg in node.args for n in _string_values(arg)}
                (prefixes if called == "names_matching" else names).update(found)
    return names, prefixes


def _layer_classes():
    return {cls.kind: cls for attr, cls in vars(kernel).items()
            if not attr.startswith("_") and inspect.isclass(cls)
            and issubclass(cls, kernel.Layer) and cls is not kernel.Layer}


def _resolves(name):
    """Whether a span name names what the tracer wraps: a function or method
    of an sflsim module, or kernel.<kind>.fwd/bwd of a layer class."""
    module_name, *attrs = name.split(".")
    obj = importlib.import_module(f"sflsim.{module_name}")
    if module_name == "kernel" and len(attrs) == 2 and attrs[1] in ("fwd", "bwd"):
        cls = _layer_classes().get(attrs[0])
        return cls is not None and {"fwd": "forward", "bwd": "backward"}[attrs[1]] in vars(cls)
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)


def _prefix_resolves(prefix):
    module_name, _, attr_prefix = prefix.partition(".")
    module = importlib.import_module(f"sflsim.{module_name}")
    return any(attr.startswith(attr_prefix) for attr in vars(module))


def test_every_span_name_the_harness_reads_resolves():
    names, prefixes = _harness_span_names()
    assert "netsim.TrafficLedger.per_device_traffic" in names and "kernel.conv3x3.fwd" in names
    assert "runtime.run_round_" in prefixes
    assert not sorted(n for n in names - _KNOWN_DEAD_SPANS if not _resolves(n))
    assert not sorted(p for p in prefixes if not _prefix_resolves(p))


def test_harness_layer_kinds_are_layer_kinds():
    assert set(tracing.LAYER_KINDS) <= set(_layer_classes())


def test_harness_round_functions_and_state_fields_exist():
    for mode in runtime.MODES:
        assert getattr(runtime, f"run_round_{mode}") is runtime.run_round
    assert _RUN_READS_STATE <= {f.name for f in dataclasses.fields(runtime.TrainState)}
