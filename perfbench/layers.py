"""Per-layer metrics from the spans of one traced iteration.

A span's self time is its duration minus the durations of its child spans;
the children of a span run one after another, so they never overlap.
Ratios whose base is empty on a workload (no numeric dual on ``crofton``,
no girth on ``maps``) read 0.
"""

from __future__ import annotations

import numpy as np

LAYERS = ("bodies", "metric", "maps", "geodesics", "measures", "harness")

# name -> unit, in the order they are printed and listed in BENCHMARK.json
UNITS = {
    "bodies.dual.evals": "count",
    "bodies.dual.points": "count",
    "bodies.dual.self_s": "s",
    "bodies.dual.us_per_point_batched": "us",
    "bodies.dual.us_per_call_scalar": "us",
    "bodies.analytic.ellipsoid.points": "count",
    "bodies.analytic.ellipsoid.self_s": "s",
    "bodies.analytic.power_mean.points": "count",
    "bodies.analytic.power_mean.self_s": "s",
    "bodies.bfgs_fallbacks": "count",
    "bodies.certify_s": "s",
    "metric.conormal.calls": "count",
    "metric.conormal.points": "count",
    "metric.conormal.self_s": "s",
    "metric.conormal.evals_per_point": "ratio",
    "maps.line_sphere.calls": "count",
    "maps.line_sphere.self_s": "s",
    "maps.boundary.points": "count",
    "maps.boundary.self_s": "s",
    "geodesics.girth.s_per_start": "s",
    "geodesics.lbfgs.runs": "count",
    "geodesics.lbfgs.nit": "count",
    "geodesics.lbfgs.nfev": "count",
    "geodesics.flow.s_per_step": "s",
    "geodesics.flow.conormal_per_step": "ratio",
    "measures.ht.s_per_pass": "s",
    "measures.crofton.s_per_1e5_lines": "s",
    "measures.crofton.hit_fraction": "ratio",
    "measures.action.self_s": "s",
    "harness.run.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace_overhead": "ratio",
    "trace.accounted_share": "ratio",
    "worst_headroom": "ratio",
}

HT_PASSES = 2  # ht_volume runs a coarse and a fine quadrature pass
EVALUATORS = (".gauge", ".gradient", ".hessian_half_sq")


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def summarize(spans: dict, extra: dict, *, untraced_wall: float, worst_headroom: float,
              girth_starts: int) -> dict:
    """Per-layer metrics of the ``bench.iteration`` span and its subtree,
    plus ``bodies.certify_s`` from the ``bench.setup`` subtree."""
    names = [str(x) for x in spans["names"]]
    ids = spans["name"]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    points = spans["points"].astype(float)
    n = len(start)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    # name id of each span's parent; the extra last id stands for "no parent"
    pid = np.where(has_parent, ids[np.maximum(parent, 0)], len(names))

    def named(pred, of=ids):
        table = np.array([pred(s) for s in names] + [False], dtype=bool)
        return table[of]

    root = list(range(n))
    for i, p in enumerate(parent.tolist()):  # parents precede their children
        if p >= 0:
            root[i] = root[p]
    root = np.array(root, dtype=np.int64)
    it = named(lambda s: s == "bench.iteration", ids[root])
    setup = named(lambda s: s == "bench.setup", ids[root])
    wall = float(dur[it & ~has_parent].sum())

    def sel(span_name):
        return it & named(lambda s: s == span_name)

    def prefixed(prefix):
        return it & named(lambda s: s.startswith(prefix))

    def parent_is(span_name):
        return named(lambda s: s == span_name, pid)

    def extra_sum(mask, key):
        return float(sum(extra.get(int(i), {}).get(key, 0.0) for i in np.nonzero(mask)[0]))

    m = {}
    dual = prefixed("bodies.dual.")
    batched, scalar = dual & (points > 1), dual & (points == 1)
    m["bodies.dual.evals"] = float(dual.sum())
    m["bodies.dual.points"] = float(points[dual].sum())
    m["bodies.dual.self_s"] = float(self_t[dual].sum())
    m["bodies.dual.us_per_point_batched"] = 1e6 * _ratio(dur[batched].sum(), points[batched].sum())
    m["bodies.dual.us_per_call_scalar"] = 1e6 * _ratio(dur[scalar].sum(), scalar.sum())
    for kind in ("ellipsoid", "power_mean"):
        k = prefixed(f"bodies.{kind}.")
        m[f"bodies.analytic.{kind}.points"] = float(points[k].sum())
        m[f"bodies.analytic.{kind}.self_s"] = float(self_t[k].sum())
    m["bodies.bfgs_fallbacks"] = float(sel("bodies.bfgs").sum())
    m["bodies.certify_s"] = float(dur[setup & named(lambda s: s == "bodies.certify")].sum())

    con = sel("metric.conormal")
    m["metric.conormal.calls"] = float(con.sum())
    m["metric.conormal.points"] = float(points[con].sum())
    m["metric.conormal.self_s"] = float(self_t[con].sum())
    # Each solver pass evaluates gauge, gradient and Hessian at the same
    # points, so the most-used evaluator counts the points evaluated.
    in_con = it & parent_is("metric.conormal")
    evaluated = max(
        points[in_con & named(lambda s, f=f: s.startswith("bodies.") and s.endswith(f))].sum()
        for f in EVALUATORS
    )
    m["metric.conormal.evals_per_point"] = _ratio(evaluated, points[con].sum())

    ls = sel("maps.line_sphere")
    m["maps.line_sphere.calls"] = float(ls.sum())
    m["maps.line_sphere.self_s"] = float(self_t[ls].sum())
    boundary = sel("maps.phi") | sel("maps.psi")
    outer = boundary & ~parent_is("maps.psi")
    m["maps.boundary.points"] = float(points[outer].sum())
    m["maps.boundary.self_s"] = float(self_t[boundary].sum())

    gi = sel("geodesics.girth")
    m["geodesics.girth.s_per_start"] = _ratio(dur[gi].sum(), gi.sum() * girth_starts)
    lb = sel("geodesics.lbfgs")
    m["geodesics.lbfgs.runs"] = float(lb.sum())
    m["geodesics.lbfgs.nit"] = extra_sum(lb, "nit")
    m["geodesics.lbfgs.nfev"] = extra_sum(lb, "nfev")
    fl = sel("geodesics.flow")
    steps = extra_sum(fl, "steps")
    m["geodesics.flow.s_per_step"] = _ratio(dur[fl].sum(), steps)
    m["geodesics.flow.conormal_per_step"] = _ratio(
        (con & parent_is("geodesics.flow")).sum(), steps
    )

    ht = sel("measures.ht")
    m["measures.ht.s_per_pass"] = _ratio(dur[ht].sum(), ht.sum() * HT_PASSES)
    cr = sel("measures.crofton")
    lines = extra_sum(cr, "lines")
    m["measures.crofton.s_per_1e5_lines"] = _ratio(dur[cr].sum(), lines / 1e5)
    m["measures.crofton.hit_fraction"] = _ratio(extra_sum(cr, "hit_fraction"), cr.sum())
    m["measures.action.self_s"] = float(self_t[sel("measures.action")].sum())
    m["harness.run.self_s"] = float(self_t[sel("harness.run")].sum())

    layer_total = 0.0
    for layer in LAYERS:
        s = float(self_t[prefixed(f"{layer}.")].sum())
        m[f"{layer}.self_s"] = s
        layer_total += s
    m["trace.wall_s"] = wall
    m["trace_overhead"] = wall / untraced_wall - 1.0
    m["trace.accounted_share"] = _ratio(layer_total, wall)
    m["worst_headroom"] = worst_headroom
    return {k: m[k] for k in UNITS}
