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
    def dual1(self) -> GaugeBody:
        return dual_body(self.body1)

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
    level: float = 1.0


def project_to_surface(body: GaugeBody, x: Array) -> Array:
    """Radial projection x -> x / F(x)."""
    return np.asarray(x, dtype=float) / body.gauge(x)[..., None]


def _require_on_surface(body: GaugeBody, q: Array, tol: float = 1e-8):
    if np.any(np.abs(body.gauge(q) - 1.0) > tol):
        raise PreconditionError("point is not on the unit surface")


def conormal(sphere: EmbeddedSphere, q: Array) -> Array:
    """Covector spanning the annihilator of the tangent plane at q, scaled so
    that <n_q, q> = 1."""
    _require_on_surface(sphere.body1, q, tol=1e-8)
    return sphere.body1.gradient(q)


def restrict_covector(sphere: EmbeddedSphere, P: Array, q: Array) -> Array:
    """Canonical representative of the restriction of an ambient covector P
    to the tangent plane at q: subtract the conormal component."""
    P = np.asarray(P, dtype=float)
    n = conormal(sphere, q)
    coeff = np.einsum("...i,...i->...", P, np.asarray(q, dtype=float))
    return P - coeff[..., None] * n


def _phi_derivatives(dual: GaugeBody, xi: Array, n: Array):
    """First and second t-derivatives of 0.5 * Fdual(p + t n)^2 at xi = p + t n."""
    g, H = half_sq_jet(dual, xi)
    d1 = np.einsum("...i,...i->...", g, n)
    d2 = np.einsum("...i,...ij,...j->...", n, H, n)
    return d1, d2


def _expand_bracket(dual: GaugeBody, p: Array, n: Array, end: Array, step: Array, sign: float):
    """Move each bracket end outward, ``end += sign * step`` with doubling
    steps, until the slope at it has the sign of ``sign``.  After the first
    pass only the ends still moving are evaluated.  ``end`` and ``step`` are
    updated in place."""
    idx = None  # every entry on the first pass, then the ones still moving
    for _ in range(80):
        e = end if idx is None else end[idx]
        d1, _ = _phi_derivatives(dual, p + e[:, None] * n, n)
        bad = sign * d1 < 0.0
        if not np.any(bad):
            break
        idx = np.flatnonzero(bad) if idx is None else idx[bad]
        p, n = p[bad], n[bad]
        end[idx] += sign * step[idx]
        step[idx] *= 2.0


def _safeguarded_step(dual: GaugeBody, p: Array, n: Array, t: Array, lo: Array, hi: Array):
    """One Newton step on the slope of 0.5 * Fdual(p + t n)^2.  The bracket
    [lo, hi] first shrinks to the side of t the slope's sign allows; a step
    that leaves it bisects it instead.  Returns (t_new, lo, hi)."""
    d1, d2 = _phi_derivatives(dual, p + t[:, None] * n, n)
    neg = d1 < 0.0
    lo = np.where(neg, np.maximum(lo, t), lo)
    hi = np.where(~neg, np.minimum(hi, t), hi)
    dt = -d1 / d2
    tn = t + dt
    outside = (tn <= lo) | (tn >= hi)
    return np.where(outside, 0.5 * (lo + hi), tn), lo, hi


def minimize_along_conormal(dual: GaugeBody, p: Array, n: Array, tol: float = 1e-11):
    """Batched minimizer of t -> Fdual(p + t n).

    Returns (t_star, value).  Works on the strictly convex square of the
    dual gauge with a safeguarded Newton iteration (bisection fallback on a
    sign-change bracket).  Entries with p = 0 short-circuit to t = 0.
    Every pass evaluates only the entries that have not yet converged;
    evaluators are row-independent, so the result does not depend on the
    batch an entry shares.
    """
    p = np.asarray(p, dtype=float)
    n = np.asarray(n, dtype=float)
    single = p.ndim == 1
    pb = np.atleast_2d(p)
    nb = np.atleast_2d(n)
    m = pb.shape[0]
    t = np.zeros(m)
    val = np.zeros(m)

    pnorm = np.linalg.norm(pb, axis=-1)
    live = ~(pnorm < 1e-300)
    if not np.any(live):
        return (t[0], val[0]) if single else (t, val)

    # gather only when some entry is zero: copies of the whole batch would
    # sit beside the Newton loop's compacted arrays
    pl, nl, pn = (pb, nb, pnorm) if live.all() else (pb[live], nb[live], pnorm[live])
    scale = pn / np.linalg.norm(nl, axis=-1)

    # initial Newton step from t = 0
    d1, d2 = _phi_derivatives(dual, pl, nl)
    tl = -d1 / d2

    # sign-change bracket by expansion
    step = np.maximum(np.abs(tl), scale)
    lo = tl - step
    hi = tl + step
    _expand_bracket(dual, pl, nl, lo, step, -1.0)
    _expand_bracket(dual, pl, nl, hi, np.maximum(np.abs(tl), scale), 1.0)

    # safeguarded Newton on the unconverged entries, compacted together
    idx = np.arange(tl.shape[0])
    pa, na, ta, sa = pl, nl, tl, scale
    for _ in range(100):
        if idx.size == 0:
            break
        tn, lo, hi = _safeguarded_step(dual, pa, na, ta, lo, hi)
        conv = np.abs(tn - ta) <= tol * (1.0 + np.abs(tn)) * np.maximum(sa, 1.0)
        tl[idx] = tn
        keep = ~conv
        idx, pa, na, ta, sa = idx[keep], pa[keep], na[keep], tn[keep], sa[keep]
        lo, hi = lo[keep], hi[keep]
    if idx.size and np.any((hi - lo) > 1e-6 * np.maximum(sa, 1.0)):
        raise NumericalFailureError("1-D conormal line minimization failed")

    t[live] = tl
    val[live] = dual.gauge(pl + tl[:, None] * nl)
    return (t[0], val[0]) if single else (t, val)


def induced_hamiltonian(sphere: EmbeddedSphere, q: Array, p: Array):
    """Gauge of the fiber shadow: G(q, p) = min_t Fdual2(p + t n_q).

    Positively 1-homogeneous in p; G <= 1 exactly on the co-disc fiber.
    Accepts batched (q, p) with matching leading shape.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    _require_on_surface(sphere.body1, q, tol=1e-8)
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
    _require_on_surface(sphere.body1, pts, tol=1e-8)
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
