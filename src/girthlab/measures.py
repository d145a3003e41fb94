"""Action integrals, Holmes-Thompson volumes and the oriented-line measure.

Volumes are computed for 3-dimensional ambient spaces only: base surfaces
are 2-D, cotangent fibers are 2-D and the line space is 4-D.  The fiber
of the unit co-disc bundle is the polar, inside the tangent plane, of the
ambient-ball *section* by that plane; its area comes from the order-2 jet
of the ambient gauge along the section (:func:`_polar_area`).  The tests
check that area against the ellipse closed form, against the conormal
line minimum of ``induced_hamiltonian`` (the section's support function)
and against a dense scan of the section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bodies import GaugeBody, dual_body, tangent_basis
from .errors import NumericalFailureError, PreconditionError, UnsupportedInputError
from .metric import EmbeddedSphere, minimize_along_conormal, radial_chart

Array = np.ndarray


@dataclass
class VolumeReport:
    value: float
    method: str
    samples: int
    seed: int
    error_estimate: float
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# action


def action(qs: Array, ps: Array, closed: bool = False) -> float:
    """Midpoint-rule integral of the canonical 1-form along a discrete
    cotangent curve: sum of <(p_i + p_{i+1})/2, q_{i+1} - q_i>."""
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if qs.shape != ps.shape or qs.ndim != 2:
        raise PreconditionError("need matching 2-D sample arrays")
    mid = 0.5 * (ps[:-1] + ps[1:])
    dq = np.diff(qs, axis=0)
    total = float(np.einsum("ij,ij->", mid, dq))
    if closed:
        total += float((0.5 * (ps[-1] + ps[0])) @ (qs[0] - qs[-1]))
    return total


def trajectory_action(traj) -> float:
    return action(traj.qs, traj.ps, closed=False)


# ---------------------------------------------------------------------------
# Holmes-Thompson volume

# coarse grid: Gauss-Legendre nodes in cos(theta), azimuths, section
# directions of the fiber area; the fine grid doubles each
_N_MU, _N_PHI, _N_BETA = 24, 48, 64


def _area(e1: Array, e2: Array, a: Array, b: Array) -> Array:
    """|det| of the components of a and b in the orthonormal pair (e1, e2):
    the area of the parallelogram on a and b projected onto that plane."""
    a1, a2, b1, b2 = (np.einsum("ij,ij->i", e, v) for v in (a, b) for e in (e1, e2))
    return np.abs(a1 * b2 - a2 * b1)


def _polar_area(body2: GaugeBody, e1: Array, e2: Array, n_beta: int) -> Array:
    """Area of the polar, inside the plane E of orthonormal (e1, e2), of
    each section B2 & E of the ambient ball: the HT fiber area.  Its
    boundary is w(s) = P_E grad F2(d), d = cos(s) e1 + sin(s) e2 (grad F2 is
    0-homogeneous), and its area 0.5 * integral of det(w, w') ds, summed by
    the trapezoid rule on n_beta angles.  w' = P_E Hess(F2)(d) d' with
    Hess(F2) = (Hess(0.5 F2^2) - grad F2 grad F2') / F2; the rank-one part
    is parallel to w, so it drops out of det(w, w'), which is positive on
    the convex polar.  Returns shape (rows,)."""
    total = np.zeros(e1.shape[0])
    for s in 2.0 * np.pi * np.arange(n_beta) / n_beta:
        c, sn = np.cos(s), np.sin(s)
        F, g, H = body2.jet(c * e1 + sn * e2, 2)
        total += _area(e1, e2, g, np.einsum("kij,kj->ki", H, c * e2 - sn * e1)) / F
    return total * (np.pi / n_beta)


def _sphere_chart(mu: Array, phi: Array):
    """Points and chart partials of the round unit sphere in (mu, phi) =
    (cos theta, azimuth) coordinates; dA = dmu dphi."""
    s = np.sqrt(1.0 - mu**2)
    u = np.stack([s * np.cos(phi), s * np.sin(phi), mu], axis=-1)
    du_dmu = np.stack(
        [-(mu / s) * np.cos(phi), -(mu / s) * np.sin(phi), np.ones_like(mu)], axis=-1
    )
    du_dphi = np.stack([-s * np.sin(phi), s * np.cos(phi), np.zeros_like(mu)], axis=-1)
    return u, du_dmu, du_dphi


def _ht_volume_once(sphere: EmbeddedSphere, k: int) -> float:
    """The volume quadrature on the coarse grid refined k times."""
    n_mu, n_phi = k * _N_MU, k * _N_PHI
    body1, body2 = sphere.body1, sphere.body2
    nodes, wts = np.polynomial.legendre.leggauss(n_mu)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    MU, PHI = np.meshgrid(nodes, phi, indexing="ij")
    W = np.broadcast_to(wts[:, None], MU.shape) * (2.0 * np.pi / n_phi)
    mu = MU.ravel()
    ph = PHI.ravel()
    wq = W.ravel()

    u, du_dmu, du_dphi = _sphere_chart(mu, ph)
    _, g1, q_mu, q_phi = radial_chart(body1, u, du_dmu, du_dphi)
    e1, e2 = tangent_basis(g1).transpose(2, 0, 1)
    J = _area(e1, e2, q_mu, q_phi)
    areas = _polar_area(body2, e1, e2, k * _N_BETA)
    return float(np.sum(wq * J * areas) / np.pi)


def ht_volume(sphere: EmbeddedSphere, seed: int = 0) -> VolumeReport:
    """Holmes-Thompson volume of the induced metric: symplectic volume of
    the unit co-disc bundle divided by the area of the Euclidean unit disc.
    Quadrature error is estimated by grid doubling."""
    if sphere.dim != 3:
        raise UnsupportedInputError("volumes are implemented for dimension 3")
    coarse = _ht_volume_once(sphere, 1)
    fine = _ht_volume_once(sphere, 2)
    return VolumeReport(
        value=fine,
        method="quadrature",
        samples=4 * _N_MU * _N_PHI,
        seed=seed,
        error_estimate=abs(fine - coarse),
        details={"coarse": coarse, "n_mu": _N_MU, "n_phi": _N_PHI, "n_beta": _N_BETA},
    )


# ---------------------------------------------------------------------------
# the Crofton measure of oriented lines

_BATCH = 200_000  # lines drawn per batch
# relative shrink of the gauge floor before the cull: far above the
# rounding of eigvalsh and of the line distances
_FLOOR_MARGIN = 1e-9


def _euclid_radius(body: GaugeBody) -> float:
    rng = np.random.default_rng(12345)
    d = rng.standard_normal((2048, body.dim))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return float((1.0 / body.gauge(d)).max())


def _gauge_floor(body: GaugeBody) -> float:
    """The largest m with F(x) >= m |x| that the body's kind gives in
    closed form: sqrt(lambda_min(A)) for an ellipsoid (attained at the
    eigenvector), (sum_i lambda_min(A_i)^{p/2})^{1/p} for a power mean
    (each x'A_i x >= lambda_min(A_i) |x|^2), lam times the base's floor for
    a scaled body, and 0 for any other kind."""
    if body.kind == "ellipsoid":
        return float(np.sqrt(np.linalg.eigvalsh(body.params["A"])[0]))
    if body.kind == "power_mean":
        p = body.params["p"]
        lam = np.linalg.eigvalsh(body.params["mats"])[:, 0]
        return float(np.sum(lam ** (p // 2)) ** (1.0 / p))
    if body.kind == "scaled":
        return body.params["lam"] * _gauge_floor(body.params["base"])
    return 0.0


def crofton_line_measure(
    ambient: GaugeBody,
    M: GaugeBody,
    n_samples: int,
    seed: int,
) -> VolumeReport:
    """Monte Carlo measure of the oriented lines meeting the interior of M,
    with the symplectic density of the line space evaluated per sample from
    the chart pullback.

    Lines are drawn by sampling the direction datum P over the dual unit
    surface and the moment Q uniformly in a disc of canonical-coordinate
    radius large enough to contain every line meeting M; hits near the disc
    edge trigger an enlarged-region retry.

    Only lines that can meet M go to the line solve.  Take the gauge floor
    F_M(x) >= m |x| of :func:`_gauge_floor`, shrunk by ``_FLOOR_MARGIN``.
    Every point of the line Q + t gs is at least d = |Q - (<Q, gs> /
    |gs|^2) gs| from the origin in the Euclidean norm, so min_t F_M >= m d.
    A line with m d >= 1 therefore has a line minimum of at least 1 and is
    one the hit test val < 1 - 1e-10 rejects anyway: dropping it changes
    no hit, and as the line minimum of a row does not depend on its batch,
    the result is bit-identical to solving every line.  Kinds
    without a closed-form floor (a numeric dual, a generic body) get m = 0,
    and then every line is solved.

    ``details["hit_fraction"]`` is the mean of J * hit over the samples, the
    density-weighted mean the estimate is ``4 pi^2 R_Q^2`` times; it is not
    the share of lines that hit M, which it matches only as far as the
    density J averages 1.
    """
    if ambient.dim != 3:
        raise UnsupportedInputError("line measures are implemented for dimension 3")
    if M.dim != ambient.dim:
        raise PreconditionError("both bodies must share the ambient dimension")
    if n_samples < 1:
        raise PreconditionError("n_samples must be >= 1")
    dual = dual_body(ambient)
    r_M = _euclid_radius(M) * 1.05
    r_P = _euclid_radius(dual) * 1.05  # max Euclidean norm over the dual surface
    r_L = _euclid_radius(ambient) * 1.05  # supporting points lie on the unit surface
    R_Q = r_M * (1.0 + r_P * r_L) * 1.1
    m_M = _gauge_floor(M) * (1.0 - _FLOOR_MARGIN)

    for _attempt in range(4):
        rng = np.random.default_rng(seed)
        total = 0.0
        total_sq = 0.0
        for start in range(0, n_samples, _BATCH):
            k = min(_BATCH, n_samples - start)
            u = rng.standard_normal((k, 3))
            u /= np.linalg.norm(u, axis=-1, keepdims=True)
            t1, t2 = tangent_basis(u).transpose(2, 0, 1)
            # gs: grad of the dual gauge, the supporting point of P
            P, gs, DP1, DP2 = radial_chart(dual, u, t1, t2)
            c1, c2 = tangent_basis(P).transpose(2, 0, 1)
            J = _area(c1, c2, DP1, DP2)

            rad = R_Q * np.sqrt(rng.random(k))
            ang = 2.0 * np.pi * rng.random(k)
            Q = rad[:, None] * (
                np.cos(ang)[:, None] * c1 + np.sin(ang)[:, None] * c2
            )
            del u, P, t1, t2, DP1, DP2, c1, c2  # freed before the line solves
            # Euclidean distance of each line Q + t gs from the origin
            s = np.einsum("ij,ij->i", Q, gs) / np.einsum("ij,ij->i", gs, gs)
            d = np.linalg.norm(Q - s[:, None] * gs, axis=-1)
            cand = np.flatnonzero(m_M * d < 1.0)  # lines that may meet M
            hit = np.zeros(k, dtype=bool)
            _, val = minimize_along_conormal(M, Q[cand], gs[cand])
            hit[cand] = val < 1.0 - 1e-10
            if np.any(hit & (rad > 0.97 * R_Q)):
                R_Q *= 1.5  # a hit near the disc edge: retry on a larger disc
                break
            X = J * hit
            total += float(X.sum())
            total_sq += float((X**2).sum())
        else:
            norm = 4.0 * np.pi * np.pi * R_Q**2
            mean = total / n_samples
            var = max(total_sq / n_samples - mean**2, 0.0)
            return VolumeReport(
                value=norm * mean,
                method="monte_carlo",
                samples=n_samples,
                seed=seed,
                error_estimate=norm * np.sqrt(var / n_samples),
                details={"R_Q": R_Q, "hit_fraction": mean},
            )
    raise NumericalFailureError("bounding region kept overflowing")
