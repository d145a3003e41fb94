"""Action integrals, Holmes-Thompson volumes and the oriented-line measure.

Volumes are computed for 3-dimensional ambient spaces only: base surfaces
are 2-D, cotangent fibers are 2-D and the line space is 4-D.  The fiber
body of the induced metric is handled through the support function of the
ambient-ball *section* by the tangent plane, which needs only primal gauge
evaluations; the equivalence with the conormal-line minimization used by
``induced_hamiltonian`` is covered by tests.
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
# directions of the fiber area, section scan points; the fine grid doubles
# each
_N_MU, _N_PHI, _N_BETA, _N_SCAN = 24, 48, 64, 256


def _settle(cosmat: Array, R: Array, j: Array):
    """Move each index j (rows, B) to a local maximum of f(i) = cosmat[b, i] *
    R[row, i], ties to the lower index as in np.argmax; f at j, j + 1, j - 1."""
    n = R.shape[1]
    b, row = np.arange(cosmat.shape[0]), np.arange(R.shape[0])[:, None]
    for _ in range(n):
        jp, jm = (j + 1) % n, (j - 1) % n
        f0, fp, fm = (cosmat[b, i] * R[row, i] for i in (j, jp, jm))
        up = (fp > f0) | ((fp == f0) & (jp < j))
        down = (fm > f0) | ((fm == f0) & (jm < j))
        if not (up.any() or down.any()):
            return f0, fp, fm
        up &= ~down | (fp > fm) | ((fp == fm) & (jp < jm))
        j = np.where(up, jp, np.where(down, jm, j))
    raise NumericalFailureError("section support: the scan maximum did not settle")


def _section_support(body2: GaugeBody, e1: Array, e2: Array, beta: Array, n_scan: int):
    """Support function h(beta) of each section of the ambient ball by the
    plane of orthonormal (e1, e2), in the direction cos(beta) e1 +
    sin(beta) e2: the largest cos(beta - s) / F2(cos(s) e1 + sin(s) e2)
    over n_scan section directions s, refined by a parabola through the
    best scan point and its neighbours.  Returns shape (rows, len(beta)).
    The scan points bound a convex polygon, so the best is the vertex whose
    edge normals bracket beta (rotating calipers), as np.argmax picks it."""
    svals = 2.0 * np.pi * np.arange(n_scan) / n_scan
    cosmat = np.cos(beta[:, None] - svals[None, :])  # (B, S)
    K = e1.shape[0]
    h = np.empty((K, beta.size))
    chunk = max(1, 2**17 // n_scan)
    cs, sn = np.cos(svals), np.sin(svals)
    for lo in range(0, K, chunk):
        hi = min(K, lo + chunk)
        w = (
            cs[None, :, None] * e1[lo:hi, None, :]
            + sn[None, :, None] * e2[lo:hi, None, :]
        )  # (k, S, 3)
        R = 1.0 / body2.gauge(w)  # (k, S)
        # outward normal angles of the edges s -> s + 1, in [a0, a0 + 2 pi)
        # along a row; rows 4 pi apart make one sorted array
        x, y = R * cs, R * sn
        ang = np.unwrap(np.arctan2(x - np.roll(x, -1, 1), np.roll(y, -1, 1) - y))
        a0, row = ang[:, :1], np.arange(hi - lo)[:, None]
        b = a0 + np.mod(beta - a0, 2.0 * np.pi) + 4.0 * np.pi * row
        j = np.searchsorted((ang + 4.0 * np.pi * row).ravel(), b.ravel())
        j = (j.reshape(b.shape) - n_scan * row) % n_scan  # (k, B)
        f0, fp, fm = _settle(cosmat, R, j)
        denom = 2.0 * f0 - fp - fm
        safe = np.where(denom > 0.0, denom, 1.0)
        h[lo:hi] = np.where(denom > 0.0, f0 + (fp - fm) ** 2 / (8.0 * safe), f0)
    return h


def _area(e1: Array, e2: Array, a: Array, b: Array) -> Array:
    """|det| of the components of a and b in the orthonormal pair (e1, e2):
    the area of the parallelogram on a and b projected onto that plane."""
    a1, a2, b1, b2 = (np.einsum("ij,ij->i", e, v) for v in (a, b) for e in (e1, e2))
    return np.abs(a1 * b2 - a2 * b1)


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
    n_mu, n_phi, n_beta, n_scan = k * _N_MU, k * _N_PHI, k * _N_BETA, k * _N_SCAN
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

    # fiber areas from the support function of the ambient-ball section by
    # the tangent plane
    beta = 2.0 * np.pi * np.arange(n_beta) / n_beta
    h = _section_support(body2, e1, e2, beta, n_scan)
    areas = 0.5 * np.sum(h**-2.0, axis=-1) * (2.0 * np.pi / n_beta)

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
        count = 0
        overflow = False
        remaining = n_samples
        while remaining > 0:
            k = min(_BATCH, remaining)
            remaining -= k
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
                overflow = True
                break
            X = J * hit
            total += float(X.sum())
            total_sq += float((X**2).sum())
            count += k
        if overflow:
            R_Q *= 1.5
            continue
        norm = 4.0 * np.pi * np.pi * R_Q**2
        mean = total / count
        var = max(total_sq / count - mean**2, 0.0)
        stderr = norm * np.sqrt(var / count)
        return VolumeReport(
            value=norm * mean,
            method="monte_carlo",
            samples=count,
            seed=seed,
            error_estimate=stderr,
            details={"R_Q": R_Q, "hit_fraction": mean},
        )
    raise NumericalFailureError("bounding region kept overflowing")
