"""The Finsler metric a unit sphere inherits from an ambient Minkowski norm.

An :class:`EmbeddedSphere` couples the body whose unit surface is the base
manifold with the body supplying the ambient norm.  Cotangent vectors of
the base surface are always stored as canonical ambient covectors ``p``
with ``<p, q> = 0``, so no charts are ever needed: every operation is an
ambient-space formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .bodies import GaugeBody, dual_body, half_sq_jet
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
        return EmbeddedSphere(dual_body(self.body2), dual_body(self.body1))


@dataclass
class CoSpherePoint:
    """A point (q, p) of the unit co-sphere bundle, p canonical."""

    q: Array
    p: Array


def project_to_surface(body: GaugeBody, x: Array) -> Array:
    """Radial projection x -> x / F(x)."""
    return np.asarray(x, dtype=float) / body.gauge(x)[..., None]


def as_rows(a: Array, b: Array):
    """Two float arrays as row batches, and whether ``a`` was one vector:
    a single vector is treated as a batch of one."""
    a = np.asarray(a, dtype=float)
    return np.atleast_2d(a), np.atleast_2d(np.asarray(b, dtype=float)), a.ndim == 1


def _require_on_surface(body: GaugeBody, q: Array):
    if np.any(np.abs(body.gauge(q) - 1.0) > 1e-8):
        raise PreconditionError("point is not on the unit surface")


def conormal(sphere: EmbeddedSphere, q: Array) -> Array:
    """Covector spanning the annihilator of the tangent plane at q, scaled so
    that <n_q, q> = 1."""
    _require_on_surface(sphere.body1, q)
    return sphere.body1.gradient(q)


def restrict_covector(sphere: EmbeddedSphere, P: Array, q: Array) -> Array:
    """Canonical representative of the restriction of an ambient covector P
    to the tangent plane at q: subtract the conormal component."""
    P = np.asarray(P, dtype=float)
    n = conormal(sphere, q)
    coeff = np.einsum("...i,...i->...", P, np.asarray(q, dtype=float))
    return P - coeff[..., None] * n


def _slope(dual: GaugeBody, xi: Array, n: Array) -> Array:
    """t-derivative of 0.5 * Fdual(p + t n)^2 at xi = p + t n."""
    _, g, _ = half_sq_jet(dual, xi, hessian=False)
    return np.einsum("...i,...i->...", g, n)


def _phi_derivatives(dual: GaugeBody, xi: Array, n: Array):
    """First and second t-derivatives of 0.5 * Fdual(p + t n)^2 at xi = p + t n."""
    _, g, H = half_sq_jet(dual, xi)
    d1 = np.einsum("...i,...i->...", g, n)
    d2 = np.einsum("...i,...ij,...j->...", n, H, n)
    return d1, d2


def _level_and_rate(dual: GaugeBody, xi: Array, n: Array):
    """Fdual(p + t n) - 1 and its t-derivative at xi = p + t n."""
    F, g, _ = half_sq_jet(dual, xi, hessian=False)
    return F - 1.0, np.einsum("...i,...i->...", g, n) / F


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


def _safeguarded_newton(
    f, p: Array, n: Array, t: Array, lo: Array, hi: Array, tol, scale, widen=None
):
    """Root in t of ``f(p + t n, n) -> (value, t-derivative)`` for each row,
    from t in a bracket [lo, hi] with value < 0 at lo and >= 0 at hi.  Each
    pass shrinks the bracket to the side of t the value's sign allows and
    takes a Newton step, or bisects when the step leaves the bracket (a step
    onto an end, such as an exact root, is kept).  A row converges when its
    step is at most ``tol * (1 + |t|) * max(scale, 1)``; only unconverged
    rows are evaluated, and the solver returns once every row has converged.
    ``t`` is updated in place.  With ``widen``, [lo, hi] is a first guess:
    unless every first step converges inside it, ``widen(lo, hi)`` makes it
    a bracket in place and the pass is redone."""
    if t.size == 0:
        return
    idx = np.arange(t.shape[0])
    ta = t
    for _ in range(100):
        v, dv = f(p + ta[:, None] * n, n)
        neg, step = v < 0.0, -v / dv
        del v, dv  # not held while the next evaluation of f runs
        while True:
            lo1 = np.where(neg, np.maximum(lo, ta), lo)
            hi1 = np.where(~neg, np.minimum(hi, ta), hi)
            tn = ta + step
            out = (tn < lo1) | (tn > hi1)
            tn = np.where(out, 0.5 * (lo1 + hi1), tn)
            conv = np.abs(tn - ta) <= tol * (1.0 + np.abs(tn)) * np.maximum(scale, 1.0)
            if widen is None or np.all(conv & ~out):
                break
            del lo1, hi1, tn, out, conv
            widen(lo, hi)
            widen = None
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

    Returns (t*, Fdual(xi*), grad Fdual(xi*) or None).  Works on the
    strictly convex square of the dual gauge with a safeguarded Newton
    iteration (bisection fallback on a sign-change bracket) to a relative
    step of 1e-11.  Entries with p = 0 short-circuit to t = 0 and value 0,
    with a NaN gradient.  Every pass evaluates only the entries that have
    not yet converged; evaluators are row-independent, so the result does
    not depend on the batch an entry shares.
    """
    pb, nb, single = as_rows(p, n)
    m = pb.shape[0]
    t = np.zeros(m)
    val = np.zeros(m)

    pnorm = np.linalg.norm(pb, axis=-1)
    live = ~(pnorm < 1e-300)
    # a nonempty batch without zero rows takes the closing jet's gradient as it is
    grad = np.full(pb.shape, np.nan) if order and (m == 0 or not live.all()) else None
    if np.any(live):
        # gather only when some entry is zero: copies of the whole batch
        # would sit beside the Newton loop's compacted arrays
        pl, nl, pn = (pb, nb, pnorm) if live.all() else (pb[live], nb[live], pnorm[live])
        scale = pn / np.linalg.norm(nl, axis=-1)

        # initial Newton step from t = 0
        tl = -np.divide(*_phi_derivatives(dual, pl, nl))
        step = np.maximum(np.abs(tl), scale)

        def widen(lo, hi):  # sign-change bracket of the slope by expansion
            slope = partial(_slope, dual)
            _expand_bracket(slope, pl, nl, lo, step, -1.0)
            _expand_bracket(slope, pl, nl, hi, np.maximum(np.abs(tl), scale), 1.0)

        derivs = partial(_phi_derivatives, dual)
        _safeguarded_newton(derivs, pl, nl, tl, tl - step, tl + step, 1e-11, scale, widen)
        t[live] = tl
        val[live], g, _ = dual.jet(pl + tl[:, None] * nl, order)
        if grad is None:
            grad = g
        else:
            grad[live] = g
    return tuple(a[0] if single and a is not None else a for a in (t, val, grad))


def minimize_along_conormal(dual: GaugeBody, p: Array, n: Array):
    """Batched minimizer of t -> Fdual(p + t n): returns (t_star, value).

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
    ones = np.ones(t.shape[0])
    _safeguarded_newton(partial(_level_and_rate, dual), p, n, t, t0, hi, 1e-13, ones)
    return t


def induced_hamiltonian(sphere: EmbeddedSphere, q: Array, p: Array):
    """Gauge of the fiber shadow: G(q, p) = min_t Fdual2(p + t n_q).

    Positively 1-homogeneous in p; G <= 1 exactly on the co-disc fiber.
    Accepts batched (q, p) with matching leading shape.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    _require_on_surface(sphere.body1, q)
    dot = np.einsum("...i,...i->...", p, q)
    if np.any(np.abs(dot) > 1e-8 * (1.0 + np.linalg.norm(p, axis=-1))):
        raise PreconditionError("covector must be canonical: <p, q> = 0")
    n = sphere.body1.gradient(q)
    _, val = minimize_along_conormal(sphere.dual2, p, n)
    return val


def induced_length(sphere: EmbeddedSphere, points: Array, closed: bool) -> float:
    """Chord-gauge length of an ordered point list on the base surface."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise PreconditionError("expected a 2-D array of points")
    if closed and pts.shape[0] < 3:
        raise PreconditionError("closed curves need at least 3 points")
    _require_on_surface(sphere.body1, pts)
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
    P = rng.standard_normal((m, sphere.dim))
    p = restrict_covector(sphere, P, q)
    G = induced_hamiltonian(sphere, q, p)
    return q, p / G[:, None]
