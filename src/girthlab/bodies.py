"""Smooth convex bodies represented by their Minkowski gauges.

A body is described by a positively 1-homogeneous gauge ``F`` whose unit
level set is the boundary surface, together with analytic first and second
derivatives.  Everything downstream (duality maps, geodesic solvers,
volume quadratures) consumes bodies only through this interface, and all
evaluators are batched: an array of shape ``(..., n)`` of points yields
gauge values of shape ``(...,)``.

Two analytic families are provided, ellipsoids and even-exponent power
means of ellipsoid quadratics, plus a numerically inverted dual body that
works for any quadratically convex gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize

from .errors import NumericalFailureError, PreconditionError, RejectedInputError

Array = np.ndarray


@dataclass(eq=False)
class GaugeBody:
    """A quadratically convex body given by its gauge and derivatives.

    ``gauge`` is positively 1-homogeneous, ``gradient`` is its (Euclidean
    coordinate) gradient and ``hessian_half_sq`` is the Hessian of
    ``0.5 * gauge**2``.  ``symmetric`` flags gauges with F(-x) = F(x).
    """

    dim: int
    gauge: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    hessian_half_sq: Callable[[Array], Array]
    symmetric: bool
    label: str
    kind: str = "generic"
    params: dict = field(default_factory=dict)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"GaugeBody({self.label!r}, dim={self.dim}, kind={self.kind})"


def _as_batch(x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :]
    return x


def _normalized(x: Array):
    """Split points into Euclidean norm and unit direction (for stable
    evaluation of homogeneous functions far from the unit scale)."""
    r = np.linalg.norm(x, axis=-1)
    if np.any(r == 0.0):
        raise PreconditionError("gauge evaluators are undefined at the origin")
    return r, x / r[..., None]


def make_ellipsoid(A: Array, label: Optional[str] = None) -> GaugeBody:
    """Body with gauge F(x) = sqrt(x^T A x) for symmetric positive definite A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise RejectedInputError("ellipsoid matrix must be square")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise RejectedInputError("ellipsoid matrix must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    if eigs.min() <= 1e-12:
        raise RejectedInputError("ellipsoid matrix must be positive definite")
    n = A.shape[0]

    def gauge(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.einsum("...i,ij,...j->...", x, A, x))

    def gradient(x):
        x = np.asarray(x, dtype=float)
        Ax = np.einsum("ij,...j->...i", A, x)
        return Ax / gauge(x)[..., None]

    def hessian_half_sq(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(A, x.shape[:-1] + (n, n)).copy()

    return GaugeBody(
        dim=n,
        gauge=gauge,
        gradient=gradient,
        hessian_half_sq=hessian_half_sq,
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
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise RejectedInputError("matrices must be symmetric")
        if np.linalg.eigvalsh(A).min() <= 1e-12:
            raise RejectedInputError("matrices must be positive definite")
    stack = np.stack(mats)  # (k, n, n)
    half = p // 2

    def _core(xhat):
        # s_i = x^T A_i x for unit-scale points
        Ax = np.einsum("kij,...j->...ki", stack, xhat)
        s = np.einsum("...ki,...i->...k", Ax, xhat)
        S = np.sum(s**half, axis=-1)
        return Ax, s, S

    def gauge(x):
        r, xhat = _normalized(np.asarray(x, dtype=float))
        _, _, S = _core(xhat)
        return r * S ** (1.0 / p)

    def gradient(x):
        # 0-homogeneous: evaluate on unit directions
        _, xhat = _normalized(np.asarray(x, dtype=float))
        Ax, s, S = _core(xhat)
        w = s ** (half - 1)  # s^{p/2 - 1}
        u = np.einsum("...k,...ki->...i", w, Ax)
        return S[..., None] ** (1.0 / p - 1.0) * u

    def hessian_half_sq(x):
        # Hessian of 0.5 F^2 = 0.5 S^{2/p}; also 0-homogeneous.
        _, xhat = _normalized(np.asarray(x, dtype=float))
        Ax, s, S = _core(xhat)
        w = s ** (half - 1)
        u = np.einsum("...k,...ki->...i", w, Ax)
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
        return H

    return GaugeBody(
        dim=n,
        gauge=gauge,
        gradient=gradient,
        hessian_half_sq=hessian_half_sq,
        symmetric=True,
        label=label or f"power_mean(p={p},k={len(mats)})",
        kind="power_mean",
        params={"mats": stack, "p": p},
    )


def scale_body(body: GaugeBody, lam: float, label: Optional[str] = None) -> GaugeBody:
    """Body whose gauge is ``lam * F``; its unit ball is the original one
    shrunk by ``lam``."""
    if lam <= 0:
        raise RejectedInputError("scale factor must be positive")
    return GaugeBody(
        dim=body.dim,
        gauge=lambda x: lam * body.gauge(x),
        gradient=lambda x: lam * body.gradient(x),
        hessian_half_sq=lambda x: lam**2 * body.hessian_half_sq(x),
        symmetric=body.symmetric,
        label=label or f"{lam}*{body.label}",
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


def _solve_gradient_inverse(body: GaugeBody, xi: Array) -> Array:
    """Solve grad(0.5 F^2)(x) = xi for each covector in the batch.

    The map is the gradient of a strongly convex 2-homogeneous function, so
    a damped Newton iteration with residual backtracking converges from the
    quadratic-model start ``H(xi)^{-1} xi``; stubborn entries fall back to a
    BFGS minimization of 0.5 F(x)^2 - <xi, x>.
    """
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    xib = _as_batch(xi)
    nrm, xin = _normalized(xib)

    def g(x):
        return body.gauge(x)[..., None] * body.gradient(x)

    x = np.linalg.solve(body.hessian_half_sq(xin), xin[..., None])[..., 0]
    r = xin - g(x)
    res = np.linalg.norm(r, axis=-1)
    active = res > _DUAL_TOL
    for _ in range(_DUAL_MAXIT):
        if not np.any(active):
            break
        xa = x[active]
        ra = r[active]
        d = np.linalg.solve(body.hessian_half_sq(xa), ra[..., None])[..., 0]
        lam = np.ones(xa.shape[0])
        best = xa.copy()
        bestr = ra.copy()
        bestres = np.linalg.norm(ra, axis=-1)
        pending = np.ones(xa.shape[0], dtype=bool)
        for _bt in range(30):
            trial = xa + lam[:, None] * d
            tr = xin[active] - g(trial)
            tres = np.linalg.norm(tr, axis=-1)
            ok = pending & (tres < (1.0 - 1e-4 * lam) * bestres)
            best[ok] = trial[ok]
            bestr[ok] = tr[ok]
            bestres[ok] = tres[ok]
            pending &= ~ok
            if not np.any(pending):
                break
            lam[pending] *= 0.5
        x[active] = best
        r[active] = bestr
        res[active] = bestres
        active = ~(res <= _DUAL_TOL)
    if np.any(active):
        idx = np.nonzero(active)[0]
        for i in idx:
            target = xin[i]
            sol = minimize(
                lambda z: 0.5 * float(body.gauge(z) ** 2) - float(target @ z),
                x[i],
                jac=lambda z: np.asarray(
                    body.gauge(z) * body.gradient(z) - target
                ),
                method="BFGS",
                options={"gtol": 1e-12, "maxiter": 500},
            )
            x[i] = sol.x
            res[i] = np.linalg.norm(target - body.gauge(x[i]) * body.gradient(x[i]))
        if np.any(res > 1e-9):
            support = np.einsum("...i,...i->...", xib, x / body.gauge(x)[..., None])
            raise NumericalFailureError(
                "dual gauge solver did not converge",
                best_bound=float(np.max(support)),
            )
    x = x * nrm[..., None]
    return x[0] if single else x


def dual_gauge(body: GaugeBody, xi: Array) -> Array:
    """Dual gauge F*(xi) = max{ <xi, x> : F(x) = 1 }.

    Computed through the gradient inverse of 0.5 F^2: at the solution x of
    grad(0.5 F^2)(x) = xi one has F(x) = F*(xi).
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(np.linalg.norm(np.atleast_2d(xi), axis=-1) == 0.0):
        raise PreconditionError("dual gauge undefined at the zero covector")
    x = _solve_gradient_inverse(body, xi)
    return body.gauge(x)


def legendre(body: GaugeBody, q: Array) -> Array:
    """Supporting covector xi with <xi, q> = 1 at a point q on the unit surface."""
    q = np.asarray(q, dtype=float)
    Fq = body.gauge(q)
    if np.any(np.abs(Fq - 1.0) > 1e-9):
        raise PreconditionError("legendre requires points on the unit surface")
    return body.gradient(q)


def legendre_inverse(body: GaugeBody, xi: Array) -> Array:
    """Point q on the unit surface maximizing <xi, .>, for xi with F*(xi) = 1."""
    xi = np.asarray(xi, dtype=float)
    x = _solve_gradient_inverse(body, xi)
    Fs = body.gauge(x)
    if np.any(np.abs(Fs - 1.0) > 1e-8):
        raise PreconditionError("legendre_inverse requires F*(xi) = 1")
    return x / Fs[..., None]


def numeric_dual(body: GaugeBody, label: Optional[str] = None) -> GaugeBody:
    """Dual body with F*, grad F* and Hess(0.5 F*^2) obtained from the primal
    by gradient inversion (no closed form assumed)."""

    def gauge(xi):
        return dual_gauge(body, xi)

    def gradient(xi):
        x = _solve_gradient_inverse(body, xi)
        return x / body.gauge(x)[..., None]

    def hessian_half_sq(xi):
        xi = np.asarray(xi, dtype=float)
        _, xin = _normalized(xi)
        x = _solve_gradient_inverse(body, xin)
        return np.linalg.inv(body.hessian_half_sq(x))

    return GaugeBody(
        dim=body.dim,
        gauge=gauge,
        gradient=gradient,
        hessian_half_sq=hessian_half_sq,
        symmetric=body.symmetric,
        label=label or f"dual({body.label})",
        kind="dual",
        params={"primal": body},
    )


def half_sq_jet(body: GaugeBody, x: Array):
    """Gradient and Hessian of 0.5 F^2 at a batch of points.

    For a numeric dual both come from one gradient-inverse solve y of the
    primal: grad(0.5 F*^2)(x) = F(y) * (y / F(y)), the product the dual's
    ``gauge * gradient`` forms, and Hess(0.5 F*^2)(x) = Hess(0.5 F^2)(y)^{-1}.
    Any other body calls its three evaluators.
    """
    primal = body.params.get("primal") if body.kind == "dual" else None
    if primal is None:
        return body.gauge(x)[..., None] * body.gradient(x), body.hessian_half_sq(x)
    y = _solve_gradient_inverse(primal, x)
    Fy = primal.gauge(y)[..., None]
    return Fy * (y / Fy), np.linalg.inv(primal.hessian_half_sq(y))


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
    H = body.hessian_half_sq(x)
    T = tangent_basis(body.gradient(x))
    B = np.einsum("...ia,...ij,...jb->...ab", T, H, T)
    B = 0.5 * (B + np.swapaxes(B, -1, -2))
    eigs = np.linalg.eigvalsh(B)
    return float(eigs[..., 0].min())
