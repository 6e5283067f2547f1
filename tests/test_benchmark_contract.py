"""The benchmark's contract with the package: every name the benchmark under
``perfbench/`` traces, counts or calls resolves, and the checks its headline
workload asks for are answered.

The benchmark's sources are read as text (their literal tables), never
imported or changed, so a renamed or deleted name fails here and not only in
a traced benchmark run.
"""

import ast
import importlib
import pathlib

import pytest

from biconserve import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _literals(name: str) -> dict:
    """The module-level names of ``perfbench/<name>.py`` bound to a literal."""
    out = {}
    for node in ast.parse((BENCH / f"{name}.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return out


SPANS, RUN, WORKLOADS = _literals("spans"), _literals("run"), _literals("workloads")


def _module(name: str):
    return importlib.import_module(f"biconserve.{name}")


@pytest.mark.parametrize("module, function", SPANS["FUNCTIONS"])
def test_each_traced_function_resolves(module, function):
    assert callable(getattr(_module(module), function))


@pytest.mark.parametrize("module, cls, method, _", SPANS["METHODS"] + SPANS["COUNTED"])
def test_each_traced_or_counted_method_is_the_class_s_own(module, cls, method, _):
    # the tracer replaces the entry of the class's own __dict__
    owner = getattr(_module(module), cls)
    assert method in owner.__dict__ and callable(getattr(owner, method))


@pytest.mark.parametrize("module, function, _", SPANS["COUNTED_FUNCTIONS"])
def test_each_counted_function_resolves(module, function, _):
    assert callable(getattr(_module(module), function))


@pytest.mark.parametrize("function", RUN["IMMERSION"] + ("backend_name",))
def test_each_function_the_runner_reads_resolves(function):
    module = "jets" if function == "backend_name" else "immersion"
    assert callable(getattr(_module(module), function))


def test_the_headline_checks_are_answered():
    box = WORKLOADS["HEADLINE_BOX"]
    req = cli.VerifyRequest(target="ex41", parameters=dict(WORKLOADS["EX41_PARAMS"]),
                            profiles=dict(WORKLOADS["SOLVED"]),
                            grid=[[lo, hi, 2] for lo, hi in box],
                            checks=list(WORKLOADS["SOLVED_CHECKS"]), jobs=1)
    report, code = cli.run_verify(req)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == WORKLOADS["SOLVED_CHECKS"]
    assert {c["status"] for c in report["checks"]} == {"pass"}
