"""Independent oracles used by the test suite.

Everything here avoids the library's own code paths: perimeter by 1-D
quadrature, derivatives by central differences, support values by brute
mesh maximization, polygon minimization by scipy's L-BFGS-B.  The one
exception is the unculled Crofton loop, which is the library's line
measure with the conormal line minimum run on every sampled line.
"""

from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

from girthlab.bodies import dual_body, tangent_basis
from girthlab.measures import _BATCH, VolumeReport, _area, _euclid_radius
from girthlab.metric import minimize_along_conormal, radial_chart


def ellipse_perimeter(a: float, b: float) -> float:
    """Perimeter of the axis-aligned ellipse with semi-axes a, b."""
    val, _ = quad(
        lambda t: np.hypot(a * np.sin(t), b * np.cos(t)),
        0.0,
        np.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return 4.0 * val


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_hessian(grad, x, h=1e-6):
    """Central-difference Jacobian of a vector function (Hessian when the
    function is a gradient)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[i] = (grad(x + e) - grad(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


def brute_support(gauge, xi, n_dirs=200_000, seed=7, dim=3):
    """Support value max{<xi, x> : gauge(x) = 1} by mesh maximization.

    Accurate to roughly (spread/n_dirs)^2 relative; good enough to pin the
    dual gauge to a few times 1e-3.
    """
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n_dirs, dim))
    x = d / gauge(d)[:, None]
    return float((x @ np.asarray(xi, dtype=float)).max())


def polygon_length(gauge2, pts, closed=True):
    """Chord-gauge length of a polygon, written independently."""
    pts = np.asarray(pts, dtype=float)
    seq = np.concatenate([pts, pts[:1]], axis=0) if closed else pts
    return float(sum(gauge2(seq[i + 1] - seq[i]) for i in range(len(seq) - 1)))


def dense_section_support(body2, e1, e2, beta, n_scan):
    """Support function of ambient-ball sections by brute mesh maximization:
    the largest cos(beta - s) / F2(cos(s) e1 + sin(s) e2) over every scan
    direction s, refined by a parabola through the best scan point and its
    neighbours.  Returns shape (rows, len(beta)).  The oracle for the
    volume's fiber area, 0.5 * integral of h^-2, and for the fiber gauge of
    ``fiber_support_gauge`` in the measure tests."""
    svals = 2.0 * np.pi * np.arange(n_scan) / n_scan
    cosmat = np.cos(beta[:, None] - svals[None, :])  # (B, S)
    K = e1.shape[0]
    h = np.empty((K, beta.size))
    chunk = max(1, int(2**22 // (beta.size * n_scan)))
    cs = np.cos(svals)
    sn = np.sin(svals)
    for lo in range(0, K, chunk):
        hi = min(K, lo + chunk)
        w = (
            cs[None, :, None] * e1[lo:hi, None, :]
            + sn[None, :, None] * e2[lo:hi, None, :]
        )  # (k, S, 3)
        R = 1.0 / body2.gauge(w)  # (k, S)
        vals = cosmat[None, :, :] * R[:, None, :]  # (k, B, S)
        j = np.argmax(vals, axis=-1)  # (k, B)
        take = np.take_along_axis
        f0 = take(vals, j[..., None], axis=-1)[..., 0]
        fp = take(vals, ((j + 1) % n_scan)[..., None], axis=-1)[..., 0]
        fm = take(vals, ((j - 1) % n_scan)[..., None], axis=-1)[..., 0]
        denom = 2.0 * f0 - fp - fm
        safe = np.where(denom > 0.0, denom, 1.0)
        h[lo:hi] = np.where(denom > 0.0, f0 + (fp - fm) ** 2 / (8.0 * safe), f0)
    return h


def draw_lines(dual, R_Q, k, rng):
    """One batch of k oriented lines as the Crofton measure draws them:
    the supporting point gs of a direction datum P on the dual unit
    surface, a moment Q uniform in the disc of radius R_Q orthogonal to P,
    the chart density J and the moment's radius.  Returns (Q, gs, J, rad)."""
    u = rng.standard_normal((k, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    t1, t2 = tangent_basis(u).transpose(2, 0, 1)
    P, gs, DP1, DP2 = radial_chart(dual, u, t1, t2)
    c1, c2 = tangent_basis(P).transpose(2, 0, 1)
    J = _area(c1, c2, DP1, DP2)
    rad = R_Q * np.sqrt(rng.random(k))
    ang = 2.0 * np.pi * rng.random(k)
    Q = rad[:, None] * (np.cos(ang)[:, None] * c1 + np.sin(ang)[:, None] * c2)
    return Q, gs, J, rad


def crofton_radius(ambient, M):
    """The moment-disc radius R_Q that the Crofton measure starts from."""
    r_M = _euclid_radius(M) * 1.05
    r_P = _euclid_radius(dual_body(ambient)) * 1.05
    r_L = _euclid_radius(ambient) * 1.05
    return r_M * (1.0 + r_P * r_L) * 1.1


def unculled_crofton(ambient, M, n_samples, seed):
    """The Crofton line measure with the conormal line minimum run on every
    sampled line, no line dropped beforehand: same draws, radius, retry
    and sums as ``crofton_line_measure``."""
    dual = dual_body(ambient)
    R_Q = crofton_radius(ambient, M)
    for _attempt in range(4):
        rng = np.random.default_rng(seed)
        total = total_sq = 0.0
        count = 0
        overflow = False
        remaining = n_samples
        while remaining > 0:
            k = min(_BATCH, remaining)
            remaining -= k
            Q, gs, J, rad = draw_lines(dual, R_Q, k, rng)
            _, val = minimize_along_conormal(M, Q, gs)
            hit = val < 1.0 - 1e-10
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
        return VolumeReport(
            value=norm * mean,
            method="monte_carlo",
            samples=count,
            seed=seed,
            error_estimate=norm * np.sqrt(var / count),
            details={"R_Q": R_Q, "hit_fraction": mean},
        )
    raise RuntimeError("bounding region kept overflowing")


def lbfgsb(fun, x0, gtol, maxiter):
    """scipy's L-BFGS-B on each problem of a stack alone (memory 20,
    relative decrease 1e-16): a drop-in for ``geodesics.minimize``, with
    nit and nfev summed over the problems."""
    shape = x0.shape[1:]
    runs = []
    for i in range(len(x0)):

        def f(z, rows=np.array([i])):
            E, g = fun(z.reshape((1,) + shape), rows)
            return E[0], g.ravel()

        runs.append(
            minimize(
                f,
                x0[i].ravel(),
                jac=True,
                method="L-BFGS-B",
                options={"ftol": 1e-16, "gtol": gtol, "maxiter": maxiter, "maxcor": 20},
            )
        )
    return SimpleNamespace(
        x=np.stack([r.x.reshape(shape) for r in runs]),
        jac=np.stack([r.jac.reshape(shape) for r in runs]),
        nit=sum(r.nit for r in runs),
        nfev=sum(r.nfev for r in runs),
    )
