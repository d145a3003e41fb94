"""In-memory spans around calls into girthlab, and the per-layer figures
derived from them.

A :class:`Tracer` replaces girthlab's public functions in every module
namespace that binds them, and the evaluator fields of the GaugeBody
instances a workload uses, with wrappers that record one span per call:
name, start, end, parent span, and the point count of the first array
argument.  Nothing is installed until :meth:`Tracer.install` and
:meth:`Tracer.uninstall` puts every original object back, so an untraced
run executes girthlab exactly as a user would.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Functions wrapped wherever a girthlab module binds them, with their span
# names.  scipy's ``minimize`` is handled separately: it is the same object
# in ``bodies`` (the BFGS rescue of the dual inverse) and ``geodesics``
# (L-BFGS girth runs), which get different span names.
FUNCTIONS = {
    ("metric", "minimize_along_conormal"): "metric.conormal",
    ("maps", "solve_line_sphere"): "maps.line_sphere",
    ("maps", "phi"): "maps.phi",
    ("maps", "psi"): "maps.psi",
    ("maps", "Phi"): "maps.Phi",
    ("geodesics", "girth"): "geodesics.girth",
    ("geodesics", "dual_girth"): "geodesics.dual_girth",
    ("geodesics", "characteristic_flow"): "geodesics.flow",
    ("measures", "ht_volume"): "measures.ht",
    ("measures", "crofton_line_measure"): "measures.crofton",
    ("measures", "action"): "measures.action",
    ("bodies", "check_quadratic_convexity"): "bodies.certify",
    ("bodies", "dual_body"): "bodies.dual_body",
    ("harness", "body_from_spec"): "harness.body_from_spec",
    ("harness", "run"): "harness.run",
}
MINIMIZE = {"bodies": "bodies.bfgs", "geodesics": "geodesics.lbfgs"}
EVALUATORS = ("gauge", "gradient", "hessian_half_sq")
MODULES = ("bodies", "metric", "maps", "geodesics", "measures", "harness")


def _points(args) -> int:
    """Point count of the first array argument: rows of a batch, 1 for a
    single vector, 0 when no argument is an array."""
    for a in args:
        if isinstance(a, np.ndarray):
            n = 1
            for d in a.shape[:-1]:
                n *= d
            return n
    return 0


def _optimize_counts(res):
    return {"nit": float(res.nit), "nfev": float(res.nfev)}


def _flow_steps(traj):
    return {"steps": float(len(traj.times) - 1)}


def _crofton_lines(rep):
    return {"lines": float(rep.samples), "hit_fraction": float(rep.details["hit_fraction"])}


RESULT_READERS = {
    "bodies.bfgs": _optimize_counts,
    "geodesics.lbfgs": _optimize_counts,
    "geodesics.flow": _flow_steps,
    "measures.crofton": _crofton_lines,
}


def bindings(gl) -> dict:
    """Every name bound in girthlab's package and layer modules."""
    mods = [gl] + [getattr(gl, m) for m in MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def unchanged(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


class Tracer:
    """Span store plus the wrappers that fill it.  Single-threaded."""

    def __init__(self, gl):
        self.gl = gl
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.points = array("q")
        self.extra: dict[int, dict] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._bodies: dict[int, tuple[object, dict]] = {}

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.points.append(_points(args))
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if on_result is not None:
                self.extra[i] = on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the benchmark's root spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing ----------------------------------------------------

    def _patch(self, obj, attr: str, replacement):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def wrap_body(self, body):
        """Wrap the evaluator fields of one GaugeBody in place (once)."""
        if id(body) in self._bodies:
            return body
        originals = {f: getattr(body, f) for f in EVALUATORS}
        self._bodies[id(body)] = (body, originals)
        for f, fn in originals.items():
            setattr(body, f, self.wrap(f"bodies.{body.kind}.{f}", fn))
        return body

    def install(self):
        modules = [self.gl] + [getattr(self.gl, m) for m in MODULES]
        for (mod, attr), span in FUNCTIONS.items():
            original = getattr(getattr(self.gl, mod), attr)
            if attr in ("body_from_spec", "dual_body"):
                inner = self.wrap(span, original)
                replacement = lambda *a, _f=inner, **k: self.wrap_body(_f(*a, **k))
            else:
                replacement = self.wrap(span, original, RESULT_READERS.get(span))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, replacement)
        for mod, span in MINIMIZE.items():
            m = getattr(self.gl, mod)
            self._patch(m, "minimize", self.wrap(span, m.minimize, RESULT_READERS[span]))

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()
        for body, originals in self._bodies.values():
            for f, fn in originals.items():
                setattr(body, f, fn)
        self._bodies.clear()

    # -- output --------------------------------------------------------

    def arrays(self) -> dict:
        n = len(self.start)
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32, count=n).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64, count=n).copy(),
        }

    def save(self, path):
        a = self.arrays()
        keys = sorted({k for d in self.extra.values() for k in d})
        idx = np.array(sorted(self.extra), dtype=np.int64)
        for k in keys:
            a[f"extra_{k}"] = np.array([self.extra[i].get(k, np.nan) for i in idx])
        np.savez(path, extra_index=idx, **a)
