"""Smooth convex bodies represented by their Minkowski gauges.

A body is described by a positively 1-homogeneous gauge ``F`` whose unit
level set is the boundary surface.  Its one evaluator is the jet
``body.jet(x, order)``: F, grad F and Hess(0.5 F^2) up to ``order`` from one
pass over the points, so a caller that needs several of them at one point
evaluates it once.  Everything downstream (duality maps, geodesic solvers,
volume quadratures) consumes bodies only through this interface, and every
evaluation is batched: an array of shape ``(..., n)`` of points yields
gauge values of shape ``(...,)``.

Two analytic families are provided, ellipsoids and even-exponent power
means of ellipsoid quadratics, plus a numerically inverted dual body that
works for any quadratically convex gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericalFailureError, PreconditionError, RejectedInputError

Array = np.ndarray


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported when first called, so importing
    girthlab does not load scipy.  No girthlab code calls it; it stays as the
    name perfbench's tracer wraps."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(eq=False)
class GaugeBody:
    """A quadratically convex body given by its gauge and derivatives.

    ``jet(x, order)`` is the one evaluator: it returns ``(F, grad F,
    Hess(0.5 F^2))`` at a batch of points up to ``order`` in {0, 1, 2}, with
    None for the orders not asked for.  F is positively 1-homogeneous and
    its gradient is taken in Euclidean coordinates.  ``gauge``, ``gradient``
    and ``hessian_half_sq`` are the jet's three components, one at a time.
    ``symmetric`` flags gauges with F(-x) = F(x).
    """

    dim: int
    jet: Callable[[Array, int], tuple]
    symmetric: bool
    label: str
    kind: str = "generic"
    params: dict = field(default_factory=dict)
    gauge: Callable[[Array], Array] = field(init=False)
    gradient: Callable[[Array], Array] = field(init=False)
    hessian_half_sq: Callable[[Array], Array] = field(init=False)

    def __post_init__(self):
        jet = self.jet
        self.gauge = lambda x: jet(x, 0)[0]
        self.gradient = lambda x: jet(x, 1)[1]
        self.hessian_half_sq = lambda x: jet(x, 2)[2]

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"GaugeBody({self.label!r}, dim={self.dim}, kind={self.kind})"


def _normalized(x: Array):
    """Split points into Euclidean norm and unit direction (for stable
    evaluation of homogeneous functions far from the unit scale).  The norm
    is ``np.linalg.norm``'s own sum of squares, without its dispatch."""
    r = np.sqrt(np.add.reduce(x * x, axis=-1))
    if not r.all():  # some r == 0; NaN rows pass
        raise PreconditionError("gauge evaluators are undefined at the origin")
    return r, x / r[..., None]


def _require_spd(A: Array, what: str):
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise RejectedInputError(f"{what} must be symmetric")
    if np.linalg.eigvalsh(A).min() <= 1e-12:
        raise RejectedInputError(f"{what} must be positive definite")


def make_ellipsoid(A: Array, label: Optional[str] = None) -> GaugeBody:
    """Body with gauge F(x) = sqrt(x^T A x) for symmetric positive definite A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise RejectedInputError("ellipsoid matrix must be square")
    _require_spd(A, "ellipsoid matrix")
    n = A.shape[0]
    AT = np.ascontiguousarray(A.T)  # a row's product has the bits of its batch's

    def jet(x, order):
        x = np.asarray(x, dtype=float)
        Ax = x @ AT  # rows A x: F and grad F from one product
        F = np.sqrt(np.add.reduce(x * Ax, axis=-1))
        g = Ax / F[..., None] if order else None
        H = np.tile(A, x.shape[:-1] + (1, 1)) if order == 2 else None
        return F, g, H

    return GaugeBody(
        dim=n,
        jet=jet,
        symmetric=True,
        label=label or "ellipsoid",
        kind="ellipsoid",
        params={"A": A},
    )


def make_power_mean(mats, p: int, label: Optional[str] = None) -> GaugeBody:
    """Body with gauge F(x) = ( sum_i (x^T A_i x)^{p/2} )^{1/p}, p even >= 2.

    This is the workhorse smooth non-ellipsoidal family: each term is an
    ellipsoid quadratic, so the gauge stays smooth away from the origin,
    while for p > 2 the unit sphere is genuinely non-quadric.  Quadratic
    convexity is not assumed here; certify it with
    :func:`check_quadratic_convexity` per instance.
    """
    mats = [np.asarray(A, dtype=float) for A in mats]
    if len(mats) < 1:
        raise RejectedInputError("need at least one quadratic term")
    if not (isinstance(p, (int, np.integer)) and p >= 2 and p % 2 == 0):
        raise RejectedInputError("exponent p must be an even integer >= 2")
    n = mats[0].shape[0]
    for A in mats:
        if A.shape != (n, n):
            raise RejectedInputError("all matrices must share one dimension")
        _require_spd(A, "matrices")
    stack = np.stack(mats)  # (k, n, n)
    half = p // 2

    def jet(x, order):
        x = np.asarray(x, dtype=float)
        lead = x.shape[:-1]
        # rows, so a single point takes the array power of a batch of one
        # (numpy's power on a 0-d S may differ in the last bit)
        r, xhat = _normalized(x.reshape(-1, n))
        # s_i = x^T A_i x for unit-scale points
        Ax = np.einsum("kij,...j->...ki", stack, xhat)
        s = np.einsum("...ki,...i->...k", Ax, xhat)
        S = np.add.reduce(s**half, axis=-1)
        F = (r * S ** (1.0 / p)).reshape(lead)
        if order == 0:
            return F, None, None
        # the gradient and the Hessian of 0.5 F^2 = 0.5 S^{2/p} are
        # 0-homogeneous: evaluate them on unit directions
        w = s ** (half - 1)  # s^{p/2 - 1}
        u = np.einsum("...k,...ki->...i", w, Ax)
        g = (S[..., None] ** (1.0 / p - 1.0) * u).reshape(x.shape)
        if order == 1:
            return F, g, None
        c = 2.0 / p - 1.0
        # d u / d x = sum_k [ w_k A_k + (p - 2) s_k^{p/2-2} (A_k x)(A_k x)^T ]
        du = np.einsum("...k,kij->...ij", w, stack)
        if p > 2:
            w2 = s ** (half - 2)
            du = du + (p - 2.0) * np.einsum("...k,...ki,...kj->...ij", w2, Ax, Ax)
        Sc = S**c
        H = Sc[..., None, None] * du
        H = H + (c * p) * (S ** (c - 1.0))[..., None, None] * np.einsum(
            "...i,...j->...ij", u, u
        )
        return F, g, H.reshape(lead + (n, n))

    return GaugeBody(
        dim=n,
        jet=jet,
        symmetric=True,
        label=label or f"power_mean(p={p},k={len(mats)})",
        kind="power_mean",
        params={"mats": stack, "p": p},
    )


def scale_body(body: GaugeBody, lam: float) -> GaugeBody:
    """Body whose gauge is ``lam * F``; its unit ball is the original one
    shrunk by ``lam``."""
    if lam <= 0:
        raise RejectedInputError("scale factor must be positive")

    def jet(x, order):
        F, g, H = body.jet(x, order)
        return lam * F, None if g is None else lam * g, None if H is None else lam**2 * H

    return GaugeBody(
        dim=body.dim,
        jet=jet,
        symmetric=body.symmetric,
        label=f"{lam}*{body.label}",
        kind="scaled",
        params={"base": body, "lam": lam},
    )


# ---------------------------------------------------------------------------
# tangent frames


def tangent_basis(g: Array) -> Array:
    """Orthonormal basis of the hyperplane Euclidean-orthogonal to each
    vector in ``g``; returns shape ``(..., n, n-1)`` (columns are the basis).

    Uses the Householder reflection sending e_1 to the direction of g, whose
    remaining columns are automatically an orthonormal complement.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    ghat = g / np.linalg.norm(g, axis=-1, keepdims=True)
    sign = np.where(ghat[..., 0] >= 0.0, 1.0, -1.0)
    w = ghat.copy()
    w[..., 0] += sign
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    # H = I - 2 w w^T; columns 2..n are orthonormal and orthogonal to ghat
    H = np.broadcast_to(np.eye(n), g.shape[:-1] + (n, n)).copy()
    H -= 2.0 * np.einsum("...i,...j->...ij", w, w)
    return H[..., :, 1:]


# ---------------------------------------------------------------------------
# dual gauges via gradient inversion

_DUAL_TOL = 1e-13
_DUAL_MAXIT = 80


def _solve_gradient_inverse(
    body: GaugeBody, xi: Array, basis: Optional[Array] = None, start: Optional[Array] = None
) -> Array:
    """Solve grad(0.5 F^2)(x) = xi for each covector in the batch.

    The map is the gradient of a strongly convex 2-homogeneous function, so
    a damped Newton iteration with residual backtracking converges from the
    quadratic-model start ``H(xi)^{-1} xi``.  Each trial point takes one
    order-2 jet of the primal, which gives its residual for the backtracking
    test and the Newton step from it; an accepted trial carries that step
    into the next pass, and only the rows still pending take the next
    halving.  A row whose residual is still above 1e-9 after
    ``_DUAL_MAXIT`` passes raises :class:`NumericalFailureError` with the
    largest support value reached.

    ``start``, shaped like ``xi``, warm-starts the rows where it is finite:
    the solution is 1-homogeneous in xi, so such a row begins the same
    iteration at ``start / |xi|``, say the solution for a nearby covector.
    NaN rows take the quadratic-model start.  A warm start that does not
    converge raises like a cold one and is not retried.

    With an orthonormal ``basis`` T of shape (m, n, k), one per row of a
    (m, n) batch, the same iteration runs on the section x = T z from the
    start T'H(xi)T z = T'xi (or T'start / |xi|): it solves
    T'(grad(0.5 F^2)(T z) - xi) = 0 and returns x = T z, the minimizer of
    0.5 F(x)^2 - <xi, x> over the section, so F(x) is the largest
    <xi, y> / F(y) there.
    """
    xi = np.asarray(xi, dtype=float)
    xib = xi.reshape(-1, xi.shape[-1])
    nrm, xin = _normalized(xib)

    def lift(z, T):
        return z if T is None else np.einsum("...ia,...a->...i", T, z)

    def project(v, T):
        return v if T is None else np.einsum("...ia,...i->...a", T, v)

    def solve(H, r, T):
        if T is not None:
            H = np.swapaxes(T, -1, -2) @ H @ T
        return np.linalg.solve(H, r[..., None])[..., 0]

    def model(x, T):
        """The quadratic-model start at the covectors x."""
        return solve(body.jet(x, 2)[2], project(x, T), T)

    def newton(target, z, T):
        """Residual norm and Newton step at the points T z, from one jet."""
        F, g, H = body.jet(lift(z, T), 2)
        r = project(target - F[..., None] * g, T)
        return np.linalg.norm(r, axis=-1), solve(H, r, T)

    if start is None:
        z = model(xin, basis)
    else:
        start = np.asarray(start, dtype=float).reshape(xib.shape)
        z = project(start / nrm[:, None], basis)
        cold = np.isnan(z).any(axis=-1)
        if cold.any():
            z[cold] = model(xin[cold], None if basis is None else basis[cold])
    res, d = newton(xin, z, basis)
    active = res > _DUAL_TOL
    for _ in range(_DUAL_MAXIT):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        Ta = None if basis is None else basis[idx]
        target, za, da, res0 = xin[idx], z[idx], d[idx], res[idx]
        lam = np.ones(idx.size)
        for _bt in range(30):
            trial = za + lam[:, None] * da
            tres, td = newton(target, trial, Ta)
            ok = tres < (1.0 - 1e-4 * lam) * res0
            z[idx[ok]], res[idx[ok]], d[idx[ok]] = trial[ok], tres[ok], td[ok]
            if ok.all():
                break
            # halve the step of the rows still pending, and evaluate only them
            keep = ~ok
            idx, target, za, da, res0 = idx[keep], target[keep], za[keep], da[keep], res0[keep]
            lam = 0.5 * lam[keep]
            Ta = None if Ta is None else Ta[keep]
        active = ~(res <= _DUAL_TOL)
    x = lift(z, basis)
    if not np.all(res <= 1e-9):  # NaN rows fail too
        support = np.einsum("...i,...i->...", xib, x / body.gauge(x)[..., None])
        raise NumericalFailureError(
            "dual gauge solver did not converge",
            best_bound=float(np.max(support)),
        )
    x = x * nrm[..., None]
    return x.reshape(xi.shape)


def dual_gauge(body: GaugeBody, xi: Array) -> Array:
    """Dual gauge F*(xi) = max{ <xi, x> : F(x) = 1 }.

    Computed through the gradient inverse of 0.5 F^2: at the solution x of
    grad(0.5 F^2)(x) = xi one has F(x) = F*(xi).
    """
    return numeric_dual(body).gauge(xi)


def legendre(body: GaugeBody, q: Array) -> Array:
    """Supporting covector xi with <xi, q> = 1 at a point q on the unit surface."""
    Fq, g, _ = body.jet(np.asarray(q, dtype=float), 1)
    if not np.all(np.abs(Fq - 1.0) <= 1e-9):  # NaN points fail too
        raise PreconditionError("legendre requires points on the unit surface")
    return g


def legendre_inverse(body: GaugeBody, xi: Array) -> Array:
    """Point q on the unit surface maximizing <xi, .>, for xi with F*(xi) = 1."""
    xi = np.asarray(xi, dtype=float)
    if not np.isfinite(xi).all():  # before the dual solve, which fails on them
        raise PreconditionError("legendre_inverse requires finite covectors")
    Fs, q, _ = numeric_dual(body).jet(xi, 1)
    if not np.all(np.abs(Fs - 1.0) <= 1e-8):
        raise PreconditionError("legendre_inverse requires F*(xi) = 1")
    return q


def numeric_dual_jet(primal: GaugeBody, xi: Array, order: int, start: Optional[Array] = None):
    """The numeric dual's jet ``(F*, grad F*, Hess(0.5 F*^2))`` at xi up to
    ``order``, and the gradient-inverse solution y of the primal behind it.

    One solve of grad(0.5 F^2)(y) = xi, warm-started from ``start`` as in
    :func:`_solve_gradient_inverse`, and the primal's jet at y:
    F*(xi) = F(y), grad F*(xi) = y / F(y) and
    Hess(0.5 F*^2)(xi) = Hess(0.5 F^2)(y)^{-1}.  A caller that evaluates
    nearby covectors again passes y back as the next start.
    """
    y = _solve_gradient_inverse(primal, xi, start=start)
    Fy, _, Hy = primal.jet(y, 2 if order == 2 else 0)
    g = y / Fy[..., None] if order else None
    return Fy, g, None if Hy is None else np.linalg.inv(Hy), y


def numeric_dual(body: GaugeBody) -> GaugeBody:
    """Dual body with F*, grad F* and Hess(0.5 F*^2) obtained from the primal
    by gradient inversion (no closed form assumed).

    The jet is :func:`numeric_dual_jet` from the quadratic-model start: one
    gradient-inverse solve y of the primal and the primal's jet there.  The
    polygon energies of ``geodesics`` call :func:`numeric_dual_jet` on the
    primal ``params["primal"]`` instead, warm-started from each polygon's
    previous solutions.  The conormal line minimum min_t F*(p + t n) does
    not call this jet: ``metric._line_minimum`` recognizes the kind "dual"
    and solves the gradient inverse once on the primal's section n'x = 0
    instead, with the ``basis`` argument of the same Newton solver.
    """

    def jet(xi, order):
        return numeric_dual_jet(body, xi, order)[:3]

    return GaugeBody(
        dim=body.dim,
        jet=jet,
        symmetric=body.symmetric,
        label=f"dual({body.label})",
        kind="dual",
        params={"primal": body},
    )


def dual_body(body: GaugeBody) -> GaugeBody:
    """Dual body, using the closed form for ellipsoids and the numeric
    inverse otherwise."""
    if body.kind == "ellipsoid":
        Ainv = np.linalg.inv(body.params["A"])
        Ainv = 0.5 * (Ainv + Ainv.T)
        return make_ellipsoid(Ainv, label=f"dual({body.label})")
    if body.kind == "dual" and "primal" in body.params:
        return body.params["primal"]
    return numeric_dual(body)


# ---------------------------------------------------------------------------
# convexity certification


def check_quadratic_convexity(body: GaugeBody, n_samples: int, seed: int) -> float:
    """Smallest tangential eigenvalue of Hess(0.5 F^2) over a seeded sample
    of unit directions.  A positive value certifies quadratic convexity at
    the sampled resolution; the caller decides what to do with it.
    """
    if n_samples < 1:
        raise RejectedInputError("need at least one sample")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, body.dim))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    _, g, H = body.jet(x, 2)
    T = tangent_basis(g)
    B = np.einsum("...ia,...ij,...jb->...ab", T, H, T)
    B = 0.5 * (B + np.swapaxes(B, -1, -2))
    eigs = np.linalg.eigvalsh(B)
    return float(eigs[..., 0].min())
