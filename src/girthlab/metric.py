"""The Finsler metric a unit sphere inherits from an ambient Minkowski norm.

An :class:`EmbeddedSphere` couples the body whose unit surface is the base
manifold with the body supplying the ambient norm.  Cotangent vectors of
the base surface are always stored as canonical ambient covectors ``p``
with ``<p, q> = 0``, so no charts are ever needed: every operation is an
ambient-space formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bodies import (
    GaugeBody,
    _solve_gradient_inverse,
    dual_body,
    tangent_basis,
)
from .errors import NumericalFailureError, PreconditionError

Array = np.ndarray


@dataclass(eq=False)
class EmbeddedSphere:
    """Unit surface of ``body1`` embedded in the norm of ``body2``."""

    body1: GaugeBody
    body2: GaugeBody

    def __post_init__(self):
        if self.body1.dim != self.body2.dim:
            raise PreconditionError("both bodies must share the ambient dimension")

    @property
    def dim(self):
        return self.body1.dim

    @cached_property
    def dual2(self) -> GaugeBody:
        return dual_body(self.body2)

    def swapped(self) -> "EmbeddedSphere":
        """The dual-side sphere: base = dual of body2, ambient = dual norm of
        body1."""
        return EmbeddedSphere(self.dual2, dual_body(self.body1))


@dataclass
class CoSpherePoint:
    """A point (q, p) of the unit co-sphere bundle, p canonical."""

    q: Array
    p: Array


def project_to_surface(body: GaugeBody, x: Array) -> Array:
    """Radial projection x -> x / F(x)."""
    return np.asarray(x, dtype=float) / body.gauge(x)[..., None]


def radial_chart(body: GaugeBody, x: Array, *dx: Array) -> tuple:
    """(q, grad F, dq_1, ..., dq_k) from one order-1 jet at x: the radial
    projection q = x / F(x), grad F (0-homogeneous, the same at x and q) and
    the derivative dx / F - x ((grad F . dx) / F^2) of q along each ``dx``,
    tangent at q: grad F . dq = 0 by Euler's relation."""
    x = np.asarray(x, dtype=float)
    F, g, _ = body.jet(x, 1)
    dq = (
        d / F[..., None] - x * (np.einsum("...i,...i->...", g, d) / F**2)[..., None]
        for d in dx
    )
    return (x / F[..., None], g, *dq)


def conormal(sphere: EmbeddedSphere, q: Array) -> Array:
    """Covector spanning the annihilator of the tangent plane at q, scaled so
    that <n_q, q> = 1, from the one jet that also checks q is on the surface."""
    F, g, _ = sphere.body1.jet(q, 1)
    if not np.all(np.abs(F - 1.0) <= 1e-8):  # NaN points fail too
        raise PreconditionError("point is not on the unit surface")
    return g


def restrict_covector(sphere: EmbeddedSphere, P: Array, q: Array) -> Array:
    """Canonical representative of the restriction of an ambient covector P
    to the tangent plane at q: subtract the conormal component."""
    return _restrict(np.asarray(P, dtype=float), np.asarray(q, dtype=float), conormal(sphere, q))


def _restrict(P: Array, q: Array, n: Array) -> Array:
    """P - <P, q> n: the representative of P on the kernel of q that
    differs from P by a multiple of n, for <n, q> = 1."""
    return P - np.einsum("...i,...i->...", P, q)[..., None] * n


def _line_jet(dual: GaugeBody, xi: Array, n: Array, order: int):
    """Fdual at xi = p + t n and, up to ``order``, the first and second
    t-derivatives of 0.5 * Fdual(p + t n)^2 there (else None), from one jet."""
    F, g, H = dual.jet(xi, order)
    d1 = np.einsum("...i,...i->...", F[..., None] * g, n) if order else None
    d2 = np.einsum("...i,...ij,...j->...", n, H, n) if order == 2 else None
    return F, d1, d2


def _expand_bracket(f, p: Array, n: Array, end: Array, step: Array, sign: float):
    """Move each bracket end outward, ``end += sign * step`` with doubling
    steps, until ``f(p + end n, n)`` has the sign of ``sign``.  After the
    first pass only the ends still moving are evaluated.  ``end`` and
    ``step`` are updated in place."""
    idx = None  # every entry on the first pass, then the ones still moving
    for _ in range(80):
        e = end if idx is None else end[idx]
        bad = sign * f(p + e[:, None] * n, n) < 0.0
        if not np.any(bad):
            break
        idx = np.flatnonzero(bad) if idx is None else idx[bad]
        p, n = p[bad], n[bad]
        end[idx] += sign * step[idx]
        step[idx] *= 2.0


def _safeguarded_newton(f, p: Array, n: Array, t: Array, lo: Array, hi: Array, tol, scale):
    """Root in t of ``f(p + t n, n) -> (value, t-derivative)`` for each row,
    from t in a bracket [lo, hi] with value < 0 at lo and >= 0 at hi.  Each
    pass shrinks the bracket to the side of t the value's sign allows and
    takes a Newton step, or bisects when the step leaves the bracket (a step
    onto an end, such as an exact root, is kept).  A row converges when its
    step is at most ``tol * (1 + |t|) * max(scale, 1)``; only unconverged
    rows are evaluated, and the solver returns once every row has converged.
    ``t`` is updated in place."""
    if t.size == 0:
        return
    idx = np.arange(t.shape[0])
    ta = t
    for _ in range(100):
        v, dv = f(p + ta[:, None] * n, n)
        neg, step = v < 0.0, -v / dv
        del v, dv  # not held while the next evaluation of f runs
        lo1 = np.where(neg, np.maximum(lo, ta), lo)
        hi1 = np.where(~neg, np.minimum(hi, ta), hi)
        tn = ta + step
        out = (tn < lo1) | (tn > hi1)
        tn = np.where(out, 0.5 * (lo1 + hi1), tn)
        conv = np.abs(tn - ta) <= tol * (1.0 + np.abs(tn)) * np.maximum(scale, 1.0)
        del neg, step, out
        t[idx] = tn
        if conv.all():
            return
        keep = ~conv
        idx, p, n, ta, scale = idx[keep], p[keep], n[keep], tn[keep], scale[keep]
        lo, hi = lo1[keep], hi1[keep]
    raise NumericalFailureError(f"1-D line solve: {idx.size} rows did not converge")


def _line_minimum(dual: GaugeBody, p: Array, n: Array, order: int):
    """Batched minimizer of t -> Fdual(p + t n), with the dual's jet at the
    minimum xi* = p + t* n up to ``order`` (0 or 1).

    Returns (t*, Fdual(xi*), grad Fdual(xi*) or None), by one of three
    routes chosen from the dual's kind:

    - closed form: an ellipsoid dual xi'B xi has t* = -(Bn . p) / (Bn . n)
      with Bn = n'B, and the closing jet at xi* is the only evaluation;
    - primal section: a numeric dual of a primal F (kind "dual") is never
      evaluated.  min_t F*(p + t n) = max{<p, x> : F(x) <= 1, <n, x> = 0}
      (the dual of a norm restricted to a subspace is the quotient of the
      dual norm; Rockafellar, Convex Analysis, 1970, section 16), so one
      damped Newton solve of the gradient inverse on the section n'x = 0
      gives the maximizer x, and from it t*, F*(xi*) = F(x) and
      grad F*(xi*) = x / F(x) (:func:`_section_line_minimum`);
    - safeguarded Newton: every other dual (power mean, scaled) works on
      the strictly convex square of the dual gauge with a safeguarded
      Newton iteration (bisection fallback on a sign-change bracket) to a
      relative step of 1e-11, then takes the closing jet at xi*.

    Iterative routes evaluate only the entries that have not yet
    converged.  Entries with p = 0 short-circuit to t = 0 and value 0, with
    a NaN gradient.  Every route is row-independent, so the result does not
    depend on the batch an entry shares.

    ``p`` and ``n`` share one shape (..., dim).  This is the one place that
    flattens points to (m, dim) rows: t* and F* come back in the leading
    shape (...) and grad F* in (..., dim), so one (dim,) vector gives t*
    and F* as numpy scalars and grad F* as a vector.
    """
    p = np.asarray(p, dtype=float)
    shape = p.shape[:-1]
    p = p.reshape(-1, p.shape[-1])
    n = np.asarray(n, dtype=float).reshape(p.shape)
    live = np.add.reduce(p * p, axis=-1) != 0.0  # NaN rows are live
    if live.size and live.all():
        out = _live_line_minimum(dual, p, n, order)
    else:
        # gather only when some entry is zero: copies of the whole batch
        # would sit beside the Newton loop's compacted arrays
        m = p.shape[0]
        out = np.zeros(m), np.zeros(m), np.full(p.shape, np.nan) if order else None
        if live.any():
            t, val, grad = out
            t[live], val[live], g = _live_line_minimum(dual, p[live], n[live], order)
            if order:
                grad[live] = g
    t, val, grad = out
    grad = None if grad is None else grad.reshape(shape + p.shape[-1:])
    return t.reshape(shape)[()], val.reshape(shape)[()], grad


def _live_line_minimum(dual: GaugeBody, p: Array, n: Array, order: int):
    """:func:`_line_minimum` on rows with p != 0."""
    if dual.kind == "dual" and "primal" in dual.params:
        return _section_line_minimum(dual.params["primal"], p, n, order)
    if dual.kind == "ellipsoid":
        Bn = n @ dual.params["A"]
        t = -np.add.reduce(Bn * p, axis=-1) / np.add.reduce(Bn * n, axis=-1)
    else:
        def slope(xi, n):
            return _line_jet(dual, xi, n, 1)[1]

        scale = np.linalg.norm(p, axis=-1) / np.linalg.norm(n, axis=-1)
        # initial Newton step from t = 0, then a sign-change bracket of the
        # slope around it by expansion
        t = -np.divide(*_line_jet(dual, p, n, 2)[1:])
        step = np.maximum(np.abs(t), scale)
        lo, hi = t - step, t + step
        _expand_bracket(slope, p, n, lo, step.copy(), -1.0)
        _expand_bracket(slope, p, n, hi, step, 1.0)
        _safeguarded_newton(
            lambda xi, n: _line_jet(dual, xi, n, 2)[1:], p, n, t, lo, hi, 1e-11, scale
        )
    F, g, _ = dual.jet(p + t[:, None] * n, order)
    return t, F, g


def _section_line_minimum(primal: GaugeBody, p: Array, n: Array, order: int):
    """The primal-section route of :func:`_line_minimum` on the numeric
    dual of ``primal``: the section solve gives x with grad(0.5 F^2)(x) =
    p + t* n, so t* = <grad(0.5 F^2)(x) - p, n> / |n|^2."""
    x = _solve_gradient_inverse(primal, p, tangent_basis(n))
    F, g, _ = primal.jet(x, 1)
    t = np.einsum("...i,...i->...", F[:, None] * g - p, n) / np.einsum("...i,...i->...", n, n)
    return t, F, x / F[:, None] if order else None


def minimize_along_conormal(dual: GaugeBody, p: Array, n: Array):
    """Batched minimizer of t -> Fdual(p + t n): returns (t_star, value),
    each in the leading shape (...) of ``p`` and ``n`` of shape (..., dim).

    See :func:`_line_minimum`; entries with p = 0 give t = 0 and value 0.
    """
    return _line_minimum(dual, p, n, 0)[:2]


def line_exit_root(dual: GaugeBody, p: Array, n: Array, t0: Array) -> Array:
    """Batched root t > t0 of Fdual(p + t n) = 1, for rows (p, n) of shape
    (m, dim) with Fdual(p + t0 n) < 1 and t0 the line minimum: the point
    where each line leaves the dual unit surface in the direction n."""
    step = np.maximum(1.0, np.abs(t0))
    hi = t0 + step
    _expand_bracket(lambda xi, _: dual.gauge(xi) - 1.0, p, n, hi, step, 1.0)
    t = 0.5 * (t0 + hi)

    def level(xi, n):
        F, d1, _ = _line_jet(dual, xi, n, 1)
        return F - 1.0, d1 / F

    _safeguarded_newton(level, p, n, t, t0, hi, 1e-13, np.ones(t.shape[0]))
    return t


def induced_hamiltonian(sphere: EmbeddedSphere, q: Array, p: Array):
    """Gauge of the fiber shadow: G(q, p) = min_t Fdual2(p + t n_q).

    Positively 1-homogeneous in p; G <= 1 exactly on the co-disc fiber.
    (q, p) of shape (..., dim) give G of shape (...), a scalar for one point.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = conormal(sphere, q)
    dot = np.einsum("...i,...i->...", p, q)
    if not np.all(np.abs(dot) <= 1e-8 * (1.0 + np.linalg.norm(p, axis=-1))):
        raise PreconditionError("covector must be canonical: <p, q> = 0")
    _, val = minimize_along_conormal(sphere.dual2, p, n)
    return val


def induced_length(sphere: EmbeddedSphere, points: Array, closed: bool) -> float:
    """Chord-gauge length of an ordered point list on the base surface."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise PreconditionError("expected a 2-D array of points")
    if closed and pts.shape[0] < 3:
        raise PreconditionError("closed curves need at least 3 points")
    conormal(sphere, pts)  # raises off the base surface
    chords = np.diff(pts, axis=0)
    total = float(np.sum(sphere.body2.gauge(chords)))
    if closed:
        total += float(sphere.body2.gauge(pts[0] - pts[-1]))
    return total


def cosphere_lift(sphere: EmbeddedSphere, q: Array, v: Array) -> Array:
    """Canonical covector of a unit-speed tangent velocity: the restriction
    of the ambient supporting covector of v to the tangent plane."""
    xi = sphere.body2.gradient(v)
    return restrict_covector(sphere, xi, q)


def sample_cosphere(sphere: EmbeddedSphere, m: int, rng) -> tuple[Array, Array]:
    """Deterministic batch of m points on the unit co-sphere bundle."""
    q = rng.standard_normal((m, sphere.dim))
    q = project_to_surface(sphere.body1, q)
    n = conormal(sphere, q)
    p = _restrict(rng.standard_normal((m, sphere.dim)), q, n)
    _, G = minimize_along_conormal(sphere.dual2, p, n)
    return q, p / G[:, None]
