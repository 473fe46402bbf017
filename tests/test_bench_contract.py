"""The names the benchmark reaches gda by: every callable bench/tracing.py
traces and every name bench/workloads.py imports from gda must resolve,
so a rename in src/gda fails here and not only in a benchmark run."""
import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from gda import ClosureHypothesis, ClosureSet, SignMode, VerifierSetup

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def traced():
    """(module, attribute) of each TRACED entry, read without importing
    the benchmark."""
    (entries,) = [
        node.value for node in _tree("tracing.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in entries.elts]


def imported():
    return [
        (node.module, alias.name)
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gda"
        for alias in node.names
    ]


TRACED = traced()
IMPORTED = imported()


def test_the_contract_is_read():
    assert ("gda.verifier", "ClosureSet.find") in TRACED
    assert ("gda", "build_closure_set") in IMPORTED
    assert ("gda.cli", "main") in IMPORTED


def test_what_the_benchmark_reads_off_results_is_there():
    # tracing.py reads .conditions and .tag; workloads.py calls .without
    # and dataclasses.replace on a setup
    assert "tag" in ClosureHypothesis._fields
    assert {"conditions", "find", "without"} <= set(dir(ClosureSet))
    assert dataclasses.replace(VerifierSetup(), sign=SignMode.koszul).sign is SignMode.koszul


@pytest.mark.parametrize("module, attribute", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_each_traced_callable_resolves(module, attribute):
    holder = importlib.import_module(module)
    *classes, name = attribute.split(".")
    for cls in classes:
        holder = getattr(holder, cls)
    # a method is wrapped where its class defines it
    target = vars(holder)[name] if classes else getattr(holder, name)
    assert callable(target)


@pytest.mark.parametrize("module, name", IMPORTED, ids=[f"{m}.{n}" for m, n in IMPORTED])
def test_each_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
