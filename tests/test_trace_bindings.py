"""The benchmark's tracer (perfbench/spans.py) wraps girthlab functions and
GaugeBody evaluator fields by name, and its workloads (perfbench/workloads.py)
call girthlab by name.  A refactor that renames or deletes one would only
show up as a crash in the benchmark run; these tests read the names the
benchmark uses and check that girthlab still binds each."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

import girthlab
from girthlab import GaugeBody, GirthOptions

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound_in_girthlab():
    spans = _spans()
    missing = [m for m in spans.MODULES if getattr(girthlab, m, None) is None]
    missing += [
        f"{mod}.{name}"
        for mod, name in spans.FUNCTIONS
        if not callable(getattr(getattr(girthlab, mod, None), name, None))
    ]
    missing += [
        f"{mod}.minimize"
        for mod in spans.MINIMIZE
        if not callable(getattr(getattr(girthlab, mod, None), "minimize", None))
    ]
    assert not missing, f"traced functions no longer bound: {missing}"
    fields = {f.name for f in dataclasses.fields(GaugeBody)}
    assert set(spans.EVALUATORS) <= fields


def _gl_chains(tree):
    """Every maximal attribute chain ``gl.a.b...`` in a syntax tree, as
    ("a", "b", ...)."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "gl":
            chains.add(tuple(reversed(names)))
    return chains


def test_workload_names_are_bound_in_girthlab():
    # the workloads receive girthlab as ``gl``
    chains = _gl_chains(ast.parse(WORKLOADS.read_text()))
    assert ("harness", "subseed") in chains and ("trajectory_action",) in chains

    def bound(chain):
        obj = girthlab
        for name in chain:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    missing = [".".join(chain) for chain in sorted(chains) if not bound(chain)]
    assert not missing, f"names the benchmark workloads use are not bound: {missing}"


def test_experiments_are_harness_functions():
    # the tracer patches library functions in the harness namespace; an
    # experiment stored as a library function would bypass those patches
    foreign = [
        name
        for name, (fn, _) in girthlab.harness.EXPERIMENTS.items()
        if fn.__module__ != "girthlab.harness"
    ]
    assert not foreign, f"experiments not defined in girthlab.harness: {foreign}"


def test_traced_girth_records_lbfgs_counts_and_changes_nothing(round_sphere):
    # the traced benchmark reads nit and nfev off every geodesics.minimize
    # result and compares traced with untraced numbers bit for bit
    spans = _spans()
    opts = GirthOptions(N=8, starts=2, levels=2)
    plain = girthlab.girth(round_sphere, opts)
    before = spans.bindings(girthlab)
    tracer = spans.Tracer(girthlab)
    tracer.install()
    try:
        traced = girthlab.girth(round_sphere, opts)
    finally:
        tracer.uninstall()
    assert spans.unchanged(before, spans.bindings(girthlab))
    name = tracer.arrays()["name"]
    lbfgs = np.flatnonzero(name == tracer.names.index("geodesics.lbfgs"))
    assert len(lbfgs) == opts.levels
    for i in lbfgs:
        assert np.isfinite([tracer.extra[i]["nit"], tracer.extra[i]["nfev"]]).all()
        assert tracer.extra[i]["nfev"] >= 1
    assert traced.girth == plain.girth
    assert traced.curve.half_points.tobytes() == plain.curve.half_points.tobytes()
    assert traced.certificate == plain.certificate
