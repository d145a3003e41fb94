"""Pointwise duality maps between the two co-sphere / co-disc bundles.

All maps act fiberwise: intersect the conormal line {p + t n_q} with the
dual ambient surface, then read off the transposed restriction.  Nothing
global is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedInputError,
    NoIntersectionError,
    PreconditionError,
    UnsupportedInputError,
)
from .metric import (
    EmbeddedSphere,
    _line_minimum,
    _restrict,
    conormal,
    line_exit_root,
    minimize_along_conormal,
)

Array = np.ndarray

_BOUNDARY_BAND = 1e-8


@dataclass
class LineSphereSolution:
    """Roots t_minus <= t_plus of each conormal line, their points, and
    whether the line is tangent (both roots at the line minimum).  For
    (q, p) of shape (..., dim) the roots and ``tangent`` have shape (...)
    and the points (..., dim): scalars and vectors for a single (q, p)."""

    t_minus: Array
    t_plus: Array
    tangent: Array
    P_minus: Array
    P_plus: Array


def solve_line_sphere(sphere: EmbeddedSphere, q: Array, p: Array) -> LineSphereSolution:
    """Both intersections of each conormal line {p + t n_q} with the dual
    ambient unit surface.  Batched: (q, p) of shape (..., dim).

    Both roots of every line that cuts the surface come from one exit-root
    solve on rows, the row with n giving t_plus and the row with -n giving
    -t_minus.  Raises :class:`NoIntersectionError` when a line misses the
    surface.
    """
    p = np.asarray(p, dtype=float)
    n = conormal(sphere, q)
    t_star, G = minimize_along_conormal(sphere.dual2, p, n)
    if np.any(G > 1.0 + _BOUNDARY_BAND):
        raise NoIntersectionError(f"conormal line misses the dual surface (G={np.max(G)})")
    tangent = G >= 1.0 - _BOUNDARY_BAND
    t_minus, t_plus = np.array(t_star), np.array(t_star)
    cut = ~tangent  # lines that cut the surface twice; tangent ones keep t_star
    pc, nc, tc = p[cut], n[cut], t_star[cut]
    s = line_exit_root(
        sphere.dual2,
        np.concatenate([pc, pc]),
        np.concatenate([nc, -nc]),
        np.concatenate([tc, -tc]),
    )
    t_plus[cut], t_minus[cut] = s[: tc.size], -s[tc.size :]
    return LineSphereSolution(
        t_minus[()], t_plus[()], tangent, p + t_minus[..., None] * n, p + t_plus[..., None] * n
    )


def phi(sphere: EmbeddedSphere, q: Array, p: Array):
    """Boundary map: tangency point of the conormal line and the transposed
    restriction.  Requires (q, p) on the co-sphere.  Batched: (q, p) of
    shape (..., dim) give (P, Q) of the same shape."""
    n = conormal(sphere, q)
    t_star, G, m = _line_minimum(sphere.dual2, p, n, 1)
    if not np.all(np.abs(G - 1.0) <= _BOUNDARY_BAND):  # NaN points fail too
        raise PreconditionError("phi requires co-sphere points (G = 1)")
    P = p + t_star[..., None] * n
    Q = _restrict(q, P, m)  # q on the tangent plane of the dual ambient at P
    return P, Q


def Phi(sphere: EmbeddedSphere, q: Array, p: Array):
    """Interior map: the intersection point selected by the orientation rule
    (the root where the dual gauge increases along the line), with the
    transposed restriction.  Requires (q, p) strictly inside the co-disc.
    Batched: (q, p) of shape (..., dim) give (P, Q) of the same shape."""
    sol = solve_line_sphere(sphere, q, p)
    if np.any(sol.tangent):
        raise IllConditionedInputError(
            "input lies in the boundary band; use phi for co-sphere points"
        )
    P = sol.P_plus  # exit root: d/dt Fdual > 0 there
    return P, _restrict(q, P, sphere.dual2.gradient(P))


def _require_symmetric(sphere: EmbeddedSphere):
    if not (sphere.body1.symmetric and sphere.body2.symmetric):
        raise UnsupportedInputError("symmetrized maps require symmetric bodies")


def psi(sphere: EmbeddedSphere, q: Array, p: Array):
    """Symmetrized boundary map (q, p) -> phi(q, -p); antipodally equivariant."""
    _require_symmetric(sphere)
    return phi(sphere, np.asarray(q, float), -np.asarray(p, float))


def Psi(sphere: EmbeddedSphere, q: Array, p: Array):
    """Symmetrized interior map (q, p) -> Phi(q, -p)."""
    _require_symmetric(sphere)
    return Phi(sphere, np.asarray(q, float), -np.asarray(p, float))
