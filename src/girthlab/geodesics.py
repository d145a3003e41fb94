"""Girth and geodesics on an embedded unit sphere.

Girth and the length spectrum minimize one discrete polygon energy with one
continuation driver, over centrally symmetric closed polygons of which half
the vertices are stored.  One chord operator D, whose last row closes the
polygon at the antipode of its first vertex, gives the chords D x, the
energy gradient through D^T and the midpoint upsampling between levels.
Minimization happens on free ambient vectors that are radially rescaled
onto the surface, so the constraint is exact, and is preconditioned by the
inverse square root of the shifted chain Laplacian D^T D, so its
conditioning does not degrade as the vertex count grows.  Discrete curve
*energy* (segment count times the sum of squared chord gauges) is the
optimization objective: its minimizers are constant-speed discrete
geodesics, whereas raw chord length admits spurious collapsed
configurations.  Reported lengths are always plain chord-gauge sums.  The
characteristic flow runs one batched RK4 stepper by parareal: coarse steps
over windows of 64 or more steps, one start at a time, and fine sweeps of
all windows at once, until the windows' seams agree to 1e-14; a flow of at
most 127 steps is one sweep, the sequential stepper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bodies import numeric_dual_jet
from .errors import NumericalFailureError, PreconditionError, UnsupportedInputError
from .metric import (
    CoSpherePoint,
    EmbeddedSphere,
    _line_minimum,
    induced_hamiltonian,
    project_to_surface,
)

Array = np.ndarray


@dataclass
class DiscreteSymmetricCurve:
    """Centrally symmetric closed polygon; only half the vertices stored."""

    half_points: Array

    def __post_init__(self):
        self.half_points = np.asarray(self.half_points, dtype=float)
        if self.half_points.ndim != 2 or self.half_points.shape[0] < 3:
            raise PreconditionError("need at least 3 half points")

    @property
    def full_points(self) -> Array:
        return np.concatenate([self.half_points, -self.half_points], axis=0)


@dataclass
class CharacteristicTrajectory:
    qs: Array
    ps: Array
    times: Array
    closure_residual: float
    g_drift: float
    sweeps: int
    seam_residual: float


@dataclass
class GirthOptions:
    N: int = 16
    starts: int = 6
    seed: int = 0
    tol: float = 1e-10
    levels: int = 3


@dataclass
class GirthResult:
    girth: float
    curve: DiscreteSymmetricCurve
    certificate: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# discrete energies
#
# A polygon is its n free vertices, the first half of a centrally symmetric
# closed polygon, which counts as two halves; its chords are D x, with the
# antipodal closure in the last row of D.  Polygons come in stacks
# (B, n, dim) of one vertex count.


def _chords(n: int) -> Array:
    """The chord operator D (n, n): row i of D x is the chord x_{i+1} - x_i,
    and the last chord runs to x_n = -x_0, the antipodal closure."""
    D = np.eye(n, k=1) - np.eye(n)
    D[-1, 0] = -1.0
    return D


def _length(sphere: EmbeddedSphere, x: Array) -> Array:
    return 2.0 * np.sum(sphere.body2.gauge(_chords(x.shape[1]) @ x), axis=-1)


def _jet(body, x, order, warm, rows):
    """``body.jet(x, order)``, or with a ``warm`` array the numeric dual
    ``body``'s jet, its gradient-inverse solve started from ``warm[rows]``
    (NaN rows from the quadratic model) and its solutions written back."""
    if warm is None:
        return body.jet(x, order)
    F, g, H, warm[rows] = numeric_dual_jet(body.params["primal"], x, order, warm[rows])
    return F, g, H


def _energy_and_grad(sphere: EmbeddedSphere, y: Array, warm=(None, None), rows=None):
    """Energies of the radially projected polygons and their gradients with
    respect to the free vertices y.  For a numeric-dual base and ambient,
    ``warm`` holds the gradient-inverse solutions at the vertices and at
    the chords of every problem (None for any other body), and ``rows``
    says which problems y holds: their solves start from these solutions
    and replace them."""
    n = y.shape[1]
    D = _chords(n)
    F1, grad1, _ = _jet(sphere.body1, y, 1, warm[0], rows)
    x = y / F1[..., None]
    Fc, gc, _ = _jet(sphere.body2, D @ x, 1, warm[1], rows)
    E = 2 * n * np.sum(Fc**2, axis=-1)
    # D^T applied to the chords' gradients of 0.5 F^2
    g = D.T @ ((4.0 * n) * (Fc[..., None] * gc))
    # chain rule through the radial projection
    xg = np.einsum("bij,bij->bi", x, g)
    gy = (g - xg[..., None] * grad1) / F1[..., None]
    return E, gy


# ---------------------------------------------------------------------------
# batched limited-memory BFGS

_MEMORY = 20  # (s, y) pairs kept per problem
_FTOL = 1e-16  # relative decrease of f at or below which a problem stops
_ARMIJO = 1e-3  # sufficient-decrease constant of the line search
_BACKTRACKS = 20  # trial steps before a line search fails


@dataclass
class BatchMinimum:
    """Final points and gradients of :func:`minimize`, one row per problem,
    and the passes the batch took: iterations and energy evaluations."""

    x: Array
    jac: Array
    nit: int
    nfev: int


def _inverse_hessian_times(S: Array, Y: Array, D: Array, Rinv: Array, gamma: Array, g: Array):
    """H g for each problem's limited-memory inverse Hessian, in the compact
    form of Byrd, Nocedal and Schnabel (1994, eq. 3.1) with H0 = gamma I:
    rows of S and Y hold the pairs oldest first, D is the diagonal of S^T Y
    and Rinv the inverse of its upper triangle.  An empty row is zero, with
    a unit row and column in Rinv, and contributes nothing."""
    v = (Rinv @ (S @ g[..., None]))[..., 0]
    Yv = (v[:, None, :] @ Y)[:, 0]
    w = D * v + gamma[:, None] * (Y @ (Yv - g)[..., None])[..., 0]
    top = (w[:, None, :] @ Rinv)[:, 0]
    return gamma[:, None] * (g - Yv) + (top[:, None, :] @ S)[:, 0]


def minimize(fun, x0: Array, gtol: float, maxiter: int) -> BatchMinimum:
    """Minimize a stack of independent smooth problems by limited-memory BFGS.

    ``fun(x, rows)`` returns the values (b,) and gradients (shaped like x)
    of the problems ``rows``, indices into the stack x0 (B, ...), at x.
    Each problem keeps its own memory of 20 (s, y) pairs, stored when
    s.y > eps (-g.s), and its own backtracking line search: from the step
    1, or 1 / |d| while its memory is empty, halve until f falls by the
    Armijo margin and strictly.  A trial that leaves f unchanged ends the
    search: it is taken if its gradient norm is smaller, else the search
    fails, as it does after 20 trials.  A problem stops, as in scipy's
    L-BFGS-B, when the inf-norm of its gradient is at most ``gtol``, when
    an iteration lowers f by at most 1e-16 relative to max(|f|, 1), or after
    ``maxiter`` iterations; and when a search from steepest descent fails.
    A failed search from a quasi-Newton direction clears the memory
    instead.  Stopped problems are no longer evaluated.
    """
    shape = x0.shape

    def evaluate(z, rows):
        f, g = fun(z.reshape((len(rows),) + shape[1:]), rows)
        return f, g.reshape(len(rows), -1)

    rows = np.arange(shape[0])
    x = np.array(x0, dtype=float).reshape(shape[0], -1)
    f, g = evaluate(x, rows)
    x_out, g_out = x.copy(), g.copy()
    S = np.zeros((len(rows), _MEMORY, x.shape[1]))
    Y = np.zeros_like(S)
    D = np.zeros((len(rows), _MEMORY))
    eye = np.eye(_MEMORY)
    Rinv = np.tile(eye, (len(rows), 1, 1))
    iters = np.zeros(len(rows), dtype=int)
    gamma = np.ones(len(rows))
    nit, nfev = 0, 1
    stop = np.abs(g).max(axis=1) <= gtol
    while True:
        if stop.any():
            x_out[rows[stop]], g_out[rows[stop]] = x[stop], g[stop]
            live = ~stop
            rows, x, f, g, S, Y = rows[live], x[live], f[live], g[live], S[live], Y[live]
            D, Rinv, iters, gamma = D[live], Rinv[live], iters[live], gamma[live]
        if not rows.size:
            return BatchMinimum(x_out.reshape(shape), g_out.reshape(shape), nit, nfev)
        nit += 1
        d = -_inverse_hessian_times(S, Y, D, Rinv, gamma, g)
        slope = np.einsum("bi,bi->b", g, d)
        fresh = D[:, -1] == 0.0
        step = np.where(fresh, np.minimum(1.0, 1.0 / np.linalg.norm(d, axis=1)), 1.0)
        xn, fn, gn = x.copy(), f.copy(), g.copy()
        pending = slope < 0.0
        moved = np.zeros(len(rows), dtype=bool)
        for _ in range(_BACKTRACKS):
            i = np.flatnonzero(pending)
            if not i.size:
                break
            xt = x[i] + step[i, None] * d[i]
            ft, gt = evaluate(xt, rows[i])
            nfev += 1
            ok = (ft < f[i]) & (ft <= f[i] + _ARMIJO * step[i] * slope[i])
            # a trial that leaves f unchanged is at f's rounding: it is taken
            # if its gradient is smaller, and the search ends either way
            tie = ft == f[i]
            if tie.any():
                ok |= tie & (np.linalg.norm(gt, axis=1) < np.linalg.norm(g[i], axis=1))
            j = i[ok]
            xn[j], fn[j], gn[j] = xt[ok], ft[ok], gt[ok]
            moved[j] = True
            pending[i[ok | tie]] = False
            step[pending] *= 0.5
        s, y = xn - x, gn - g
        sy = np.einsum("bi,bi->b", s, y)
        keep = moved & (sy > np.finfo(float).eps * -(step * slope))
        if keep.any():
            # drop the oldest pair and append the new one; the inverse of an
            # upper triangle keeps its trailing block and gains a column
            k = slice(None) if keep.all() else np.flatnonzero(keep)
            S[k, :-1], Y[k, :-1], D[k, :-1] = S[k, 1:], Y[k, 1:], D[k, 1:]
            S[k, -1], Y[k, -1], D[k, -1] = s[k], y[k], sy[k]
            Rinv[k, :-1, :-1] = Rinv[k, 1:, 1:]
            Rinv[k, -1] = 0.0
            c = (S[k, :-1] @ y[k][..., None]) / sy[k][:, None, None]
            Rinv[k, :-1, -1:] = -(Rinv[k, :-1, :-1] @ c)
            Rinv[k, -1, -1] = 1.0 / sy[k]
            gamma[k] = sy[k] / np.einsum("bi,bi->b", y[k], y[k])
        iters[moved] += 1
        # a failed line search clears the memory, or stops a problem that had none
        clear = ~moved & ~fresh
        if clear.any():
            S[clear], Y[clear], D[clear], Rinv[clear], gamma[clear] = 0.0, 0.0, 0.0, eye, 1.0
        scale = np.maximum(np.maximum(np.abs(f), np.abs(fn)), 1.0)
        settled = (f - fn <= _FTOL * scale) | (np.abs(gn).max(axis=1) <= gtol)
        stop = (moved & (settled | (iters >= maxiter))) | (~moved & fresh)
        x, f, g = xn, fn, gn


# ---------------------------------------------------------------------------
# starts and continuation


def _great_circle(u: Array, v: Array, n: int) -> Array:
    """n points of the half great circle from u towards v."""
    theta = np.pi * np.arange(n) / n
    return np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v


def _random_circle(rng, dim: int, n: int) -> Array:
    """A random half great circle of n points, perturbed by noise 0.1."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    pts = _great_circle(basis[:, 0], basis[:, 1], n)
    return pts + 0.1 * rng.standard_normal(pts.shape)


def _symmetric_starts(sphere: EmbeddedSphere, N: int, count: int, seed) -> Array:
    """The first ``count`` of: half great circles in the coordinate planes,
    then perturbed random ones seeded by ``seed``, each of N half points,
    projected to the base surface; symmetric bodies and dim >= 3 only."""
    if not (sphere.body1.symmetric and sphere.body2.symmetric):
        raise UnsupportedInputError("symmetric closed curves need symmetric bodies")
    if sphere.dim < 3:
        raise UnsupportedInputError("symmetric closed curves need ambient dimension >= 3")
    if count < 1:
        raise PreconditionError(f"starts must be >= 1, got {count}")
    if N < 3:
        raise PreconditionError(f"N must be >= 3, got {N}")
    rng = np.random.default_rng(seed)
    eye = np.eye(sphere.dim)
    starts = [_great_circle(eye[i], eye[j], N) for i, j in [(0, 1), (0, 2), (1, 2)]]
    while len(starts) < count:
        starts.append(_random_circle(rng, sphere.dim, N))
    return project_to_surface(sphere.body1, np.stack(starts[:count]))


def _upsample(x: Array) -> Array:
    """P x: each free vertex followed by the midpoint of its chord, where P
    (2n, n) interleaves the rows of I with those of I + D / 2."""
    n = x.shape[1]
    P = np.empty((2 * n, n))
    P[0::2] = np.eye(n)
    P[1::2] = np.eye(n) + 0.5 * _chords(n)
    return P @ x


def _richardson(L: Array):
    """Extrapolated value and error estimate from lengths L (..., levels) at
    halving mesh sizes, whose error is O(h^2).  Each pair of successive
    levels gives a Richardson value (4 L_k - L_{k-1}) / 3; the estimate is
    the change between the last two of them, the O(h^4) term, or |L_2 -
    L_1| / 3 with one Richardson value, and NaN with one level."""
    if L.shape[-1] == 1:
        return L[..., -1], np.full(L.shape[:-1], np.nan)
    R = (4.0 * L[..., 1:] - L[..., :-1]) / 3.0
    if R.shape[-1] == 1:
        return R[..., -1], np.abs(L[..., -1] - L[..., -2]) / 3.0
    return R[..., -1], np.abs(R[..., -1] - R[..., -2])


_SHIFT = 0.1  # sigma of the preconditioner, the Laplacian's shift


def _preconditioner(n: int):
    """C = (L + sigma I)^(-1/2) and its inverse for n free vertices, both
    symmetric, from one eigendecomposition.  L = D^T D is the chain
    Laplacian of the chord operator D of :func:`_chords`, positive definite;
    the shift bounds the condition number of C by sqrt(4.1 / 0.1), about
    6.4, at any n."""
    D = _chords(n)
    w, V = np.linalg.eigh(D.T @ D + _SHIFT * np.eye(n))
    root = np.sqrt(w)
    C, Cinv = (V / root) @ V.T, (V * root) @ V.T
    return 0.5 * (C + C.T), 0.5 * (Cinv + Cinv.T)


_MAXITER = 4000  # L-BFGS iterations per problem and level


def _continuation(sphere, x, tol, levels):
    """Minimize the energies of the surface polygons x (B, n, dim) together,
    doubling the vertex count at each further level.  Returns per polygon
    the extrapolated value and its error, the lengths (B, levels), the final
    vertices and the norm of the final gradient with respect to the free
    vertices.

    The energy is a discrete Dirichlet energy, whose Hessian is close to a
    multiple of the chain Laplacian L = D^T D, with condition number growing
    like n^2.  So each level minimizes in the variables z = C^-1 y, where C =
    (L + sigma I)^(-1/2) comes from :func:`_preconditioner`: the objective
    is z -> E(C z) with gradient C grad E(C z), the start is C^-1 x and the
    minimizer's result is mapped back by C before the radial projection.
    This is the H^1 (Sobolev) gradient of Neuberger (1997); ``tol`` bounds
    the inf-norm of the z-gradient, and the reported gradient norm is that
    of C^-1 times it, the gradient in the free vertices y.

    Per level, each numeric-dual body (the base at the vertices, the
    ambient at the chords) keeps one NaN-filled array of gradient-inverse
    solutions, indexed by problem: every energy evaluation of a problem
    warm-starts from the solutions of its previous one, and its first from
    the quadratic model, so a problem runs alike alone and in a batch."""
    if levels < 1:
        raise PreconditionError("levels must be >= 1")

    def fun(z, rows):
        E, g = _energy_and_grad(sphere, C @ z, warm, rows)
        return E, C @ g

    lengths = []
    for lvl in range(levels):
        if lvl > 0:
            x = project_to_surface(sphere.body1, _upsample(x))
        warm = [
            np.full(x.shape, np.nan) if body.kind == "dual" else None
            for body in (sphere.body1, sphere.body2)
        ]
        C, Cinv = _preconditioner(x.shape[1])
        res = minimize(fun, Cinv @ x, tol, _MAXITER)
        x = project_to_surface(sphere.body1, C @ res.x)
        lengths.append(_length(sphere, x))
    lengths = np.stack(lengths, axis=-1)
    resid = np.linalg.norm((Cinv @ res.jac).reshape(len(x), -1), axis=1)
    return (*_richardson(lengths), lengths, x, resid)


_TIE = 1e-9  # relative gap below which two start values are one geodesic


def girth(sphere: EmbeddedSphere, opts: Optional[GirthOptions] = None) -> GirthResult:
    """Length of the shortest centrally symmetric closed geodesic found by
    multi-start discrete minimization with mesh continuation.

    The reported girth and certificate are those of the first start whose
    extrapolated value is within a relative 1e-9 of the least.  The
    certificate's ``first_order_residual`` is the norm of the energy's
    gradient with respect to the free vertices the minimizer returns, before
    their radial projection.  ``opts.tol`` bounds the inf-norm of the
    gradient in the preconditioned variables z of :func:`_continuation`
    instead, C times the former, whose condition number is at most 6.4."""
    opts = opts or GirthOptions()
    x0 = _symmetric_starts(sphere, opts.N, opts.starts, opts.seed)
    value, err, lengths, x, resid = _continuation(sphere, x0, opts.tol, opts.levels)
    # starts that reach one geodesic tie to rounding, which must not pick
    # the certificate
    idx = int(np.argmax(value <= value.min() * (1.0 + _TIE)))
    cert = {
        "first_order_residual": float(resid[idx]),
        "continuation_lengths": lengths[idx].tolist(),
        "richardson_error": float(err[idx]),
        "start_index": idx,
        "start_lengths": value.tolist(),
        "n_half_final": x.shape[1],
    }
    return GirthResult(
        girth=float(value[idx]), curve=DiscreteSymmetricCurve(x[idx]), certificate=cert
    )


def dual_girth(sphere: EmbeddedSphere, opts: Optional[GirthOptions] = None) -> GirthResult:
    """Girth of the dual-side sphere (base = dual of the ambient body,
    ambient = dual norm of the base body), computed by the same variational
    solver and nothing else."""
    return girth(sphere.swapped(), opts)


# ---------------------------------------------------------------------------
# spectrum probe


def length_spectrum_probe(sphere: EmbeddedSphere, opts: Optional[GirthOptions] = None):
    """Sorted distinct lengths of centrally symmetric closed geodesics found
    by multi-start refinement.  A probe: it reports what it found, never
    completeness.

    The solve is that of :func:`girth` with the same options: ``opts.starts``
    symmetric starts of ``opts.N`` half points (coordinate great circles,
    then random ones) are refined in the symmetric class, the class of the
    girth; a refined polygon counts when its final gradient norm is at most
    1e-5, and lengths within 1e-4 of a smaller one are dropped.  Free closed
    loops are not searched: on a sphere every one is contractible and
    shrinks to a point under energy descent.
    """
    opts = opts or GirthOptions()
    x0 = _symmetric_starts(sphere, opts.N, opts.starts, opts.seed)
    value, _, _, _, resid = _continuation(sphere, x0, opts.tol, opts.levels)
    found = sorted(value[resid <= 1e-5].tolist())
    clustered = []
    for v in found:
        if not clustered or v - clustered[-1] > 1e-4:
            clustered.append(v)
    return clustered


# ---------------------------------------------------------------------------
# characteristic flow


def _field(F1, H1, t, m):
    """The flat state derivatives (q', p') of rows from the base's F1 and
    H1 = Hess(0.5 F1^2) at q and the line minimum (t, m = grad F2*):
    q' = m and p' = -(t / F1) H1 m.  The full field's n (n . m) term,
    n = grad F1, is left out: m is orthogonal to n at the line minimum, the
    first-order condition of min_t F2*(p + t n)."""
    return np.concatenate((m, -(t / F1)[:, None] * np.matmul(H1, m[..., None])[..., 0]), axis=1)


def _stage(sphere: EmbeddedSphere, y: Array) -> Array:
    """The field at rows y (B, 2 dim) of flat states (q, p): one order-2 jet
    of the base and one line minimum of the dual ambient on all rows."""
    F1, n, H1 = sphere.body1.jet(y[:, : sphere.dim], 2)
    t, _, m = _line_minimum(sphere.dual2, y[:, sphere.dim :], n, 1)
    return _field(F1, H1, t, m)


def _project(sphere: EmbeddedSphere, y: Array):
    """Rows y of flat states on the unit co-sphere (q radially projected, p
    re-canonicalized and rescaled by G), the field there and G, from one jet:
    grad F1 and Hess(0.5 F1^2) are 0-homogeneous and F1 = 1 at the projected
    q, and F2* is 1-homogeneous, so the line minimum through p / G is t / G."""
    dim = sphere.dim
    F1, n, H1 = sphere.body1.jet(y[:, :dim], 2)
    q = y[:, :dim] / F1[:, None]
    p = y[:, dim:] - (y[:, None, dim:] @ q[:, :, None])[:, 0] * n
    t, G, m = _line_minimum(sphere.dual2, p, n, 1)
    return np.concatenate((q, p / G[:, None]), axis=1), _field(1.0, H1, t / G, m), G


def _rk4_step(sphere: EmbeddedSphere, y: Array, k1: Array, h: float):
    """One classical RK4 step of size h from rows y with first stages k1,
    then :func:`_project`: 4 base jets and 4 line minima on all rows."""
    k2 = _stage(sphere, y + 0.5 * h * k1)
    k3 = _stage(sphere, y + 0.5 * h * k2)
    k4 = _stage(sphere, y + h * k3)
    return _project(sphere, y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


_WINDOW = 64  # least number of flow steps in a parareal window
_SEAM_TOL = 1e-14  # largest seam |F(U_j) - U_{j+1}|_inf at which the windows join


def characteristic_flow(
    sphere: EmbeddedSphere, start: CoSpherePoint, T: float, dt: float
) -> CharacteristicTrajectory:
    """Integrate the unit-level Hamiltonian flow of the induced co-sphere
    bundle with a classical 4th-order stepper (:func:`_rk4_step`); after
    each step the point is radially re-projected, the covector
    re-canonicalized and rescaled back to the unit level.  The flow
    parameter is ambient-norm arclength of the base curve.

    The n = ceil(T / dt) steps of size h form W = max(1, n // 64) windows,
    the first n mod W one step longer, solved by parareal (Lions, Maday and
    Turinici, 2001).  Each round corrects the window starts in turn, U_{j+1}
    = F(U_j) + G(U_j) - G_old(U_j) then projected, where the coarse G is one
    step of the window's length from one start (F = G_old = 0 in the first
    round: a coarse pass), then runs the fine sweep F, every window's steps
    of size h from all starts as one batch.  It stops when every seam
    |F(U_j) - U_{j+1}|_inf is at most 1e-14 and raises
    :class:`NumericalFailureError` if the seams have not settled in W + 1
    sweeps.  The trajectory is the last sweep's steps; with W = 1 (n <= 127)
    that is one sweep of the sequential stepper.  ``sweeps`` counts the fine
    sweeps and ``seam_residual`` is the largest last seam."""
    if not (np.isfinite(T) and np.isfinite(dt) and T > 0 and dt > 0):
        raise PreconditionError(f"T and dt must be finite and positive, got {T!r}, {dt!r}")
    q = np.asarray(start.q, dtype=float)
    p = np.asarray(start.p, dtype=float)
    G0 = float(induced_hamiltonian(sphere, q, p))
    if not abs(G0 - 1.0) <= 1e-8:  # a NaN start fails too
        raise PreconditionError("start must lie on the unit co-sphere")
    n_steps = int(np.ceil(T / dt))
    h = T / n_steps
    dim = q.shape[-1]
    W = max(1, n_steps // _WINDOW)
    m, r = divmod(n_steps, W)
    steps = m + (np.arange(W) < r)
    first = np.concatenate(([0], np.cumsum(steps)[:-1]))  # each start's trajectory row
    qs, ps = np.empty((n_steps + 1, dim)), np.empty((n_steps + 1, dim))
    qs[0], ps[0] = q, p
    U = np.tile(np.concatenate((q, p)), (W, 1))  # the window starts and their k1
    K = np.tile(_stage(sphere, U[:1]), (W, 1))
    F, G_old = np.zeros((W - 1, 2 * dim)), np.zeros((W - 1, 2 * dim))
    for sweeps in range(1, W + 2):
        for j in range(W - 1):
            g = _rk4_step(sphere, U[j, None], K[j, None], steps[j] * h)[0]
            U[j + 1], K[j + 1], _ = _project(sphere, F[j] + g - G_old[j])
            G_old[j] = g[0]
        y, k1, drift = U.copy(), K.copy(), 0.0
        for i in range(1, steps[0] + 1):
            live = slice(None) if i <= m else slice(r)  # the longer windows' last step
            y[live], k1[live], G = _rk4_step(sphere, y[live], k1[live], h)
            qs[first[live] + i], ps[first[live] + i] = y[live, :dim], y[live, dim:]
            drift = max(drift, float(np.abs(G - 1.0).max()))
        F = y[:-1]
        seam = float(np.abs(F - U[1:]).max(initial=0.0))
        if seam <= _SEAM_TOL:
            break
    else:
        raise NumericalFailureError(f"flow seams at {seam:.3g} after {W + 1} sweeps", seam)
    residual = float(np.linalg.norm(qs[-1] - qs[0]) + np.linalg.norm(ps[-1] - ps[0]))
    times = np.concatenate(([0.0], np.cumsum(np.full(n_steps, h))))
    return CharacteristicTrajectory(qs, ps, times, residual, drift, sweeps, seam)
