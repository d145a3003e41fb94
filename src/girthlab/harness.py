"""Experiment orchestration: configs, deterministic seeding, reports.

A single JSON config document describes the space, the experiment and the
solver knobs; ``run`` certifies the bodies, dispatches to the library and
returns a structured report whose canonical serialization is byte-stable
for a fixed (config, seed, version).  Wall time is recorded but excluded
from the canonical bytes.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .bodies import (
    GaugeBody,
    check_quadratic_convexity,
    make_ellipsoid,
    make_power_mean,
)
from .errors import ConfigError, RejectedInputError
from .geodesics import (
    GirthOptions,
    diameter_probe,
    dual_girth,
    girth,
    length_spectrum_probe,
)
from .maps import Phi, phi, psi
from .measures import action, crofton_line_measure, ht_volume
from .metric import (
    EmbeddedSphere,
    induced_hamiltonian,
    restrict_covector,
    project_to_surface,
    sample_cosphere,
)

EXPERIMENTS = (
    "girth",
    "dual-check",
    "spectrum",
    "volume",
    "crofton",
    "maps-verify",
    "diameter",
)

DEFAULT_TOLERANCES = {
    "dual_gap_rel": 5e-3,
    "spectrum_match": 5e-4,
    "volume_rel": 1e-2,
    "crofton_rel": 1e-2,
    "map_residual": 1e-10,
    "psi_equivariance": 1e-9,
    "action_preservation": 1e-6,
    "phi_roundtrip": 1e-7,
    "girth_residual": 1e-6,
}


def subseed(seed: int, *key: int) -> int:
    """Deterministic sub-seed for a task, independent of scheduling."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


def _bounded_int(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    out = int(value)
    if out < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {out}")
    return out


def _finite_float(name: str, value, positive: bool = False) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or (positive and value <= 0)
    ):
        kind = "a finite positive number" if positive else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return float(value)


@dataclass
class SolverOptions:
    N: int = 16
    starts: int = 6
    tol: float = 1e-10
    samples: int = 100_000
    levels: int = 3


@dataclass
class ExperimentConfig:
    dim: int
    norm1: dict
    norm2: Optional[dict]
    experiment: str
    solver: SolverOptions
    seed: int = 0
    output: Optional[str] = None
    tolerances: dict = field(default_factory=dict)
    jobs: int = 1

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        version = d.get("version", 1)
        if version != 1:
            raise ConfigError(f"unsupported config version {version}")
        space = d.get("space")
        if not isinstance(space, dict) or "norm1" not in space:
            raise ConfigError("config requires space.norm1")
        dim = _bounded_int("space.dim", space.get("dim", 3), 2)
        experiment = d.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
        if experiment in ("girth", "dual-check", "spectrum", "volume", "crofton") and dim < 3:
            raise ConfigError(f"{experiment} requires dim >= 3")
        solver_d = d.get("solver", {})
        if not isinstance(solver_d, dict):
            raise ConfigError("solver must be an object")
        defaults = asdict(SolverOptions())
        bad = set(solver_d) - set(defaults)
        if bad:
            raise ConfigError(f"unknown solver options: {sorted(bad)}")
        opts = {k: solver_d.get(k, v) for k, v in defaults.items()}
        solver = SolverOptions(
            tol=_finite_float("solver.tol", opts.pop("tol"), positive=True),
            **{k: _bounded_int(f"solver.{k}", v, 1) for k, v in opts.items()},
        )
        tols_d = d.get("tolerances", {})
        if not isinstance(tols_d, dict):
            raise ConfigError("tolerances must be an object")
        bad = set(tols_d) - set(DEFAULT_TOLERANCES)
        if bad:
            raise ConfigError(f"unknown tolerances: {sorted(bad)}")
        tols = dict(DEFAULT_TOLERANCES)
        tols.update((k, _finite_float(f"tolerances.{k}", v)) for k, v in tols_d.items())
        return cls(
            dim=dim,
            norm1=space["norm1"],
            norm2=space.get("norm2"),
            experiment=experiment,
            solver=solver,
            seed=_bounded_int("seed", d.get("seed", 0), 0),
            output=d.get("output"),
            tolerances=tols,
            jobs=_bounded_int("jobs", d.get("jobs", 1), 1),
        )

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        """Read a JSON config; keyword overrides that are not None replace
        top-level keys before validation."""
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON config: {exc}") from exc
        if isinstance(d, dict):
            d.update((k, v) for k, v in overrides.items() if v is not None)
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "space": {"dim": self.dim, "norm1": self.norm1, "norm2": self.norm2},
            "experiment": self.experiment,
            "solver": asdict(self.solver),
            "seed": self.seed,
            "tolerances": self.tolerances,
        }


def _matrix(name: str, value, dim: int) -> np.ndarray:
    try:
        A = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a {dim}x{dim} matrix of numbers") from None
    if A.size != dim * dim:
        raise ConfigError(f"{name} must have {dim}x{dim} entries, got {A.size}")
    if not np.all(np.isfinite(A)):
        raise ConfigError(f"{name} has a non-finite entry")
    return A.reshape(dim, dim)


def body_from_spec(spec: dict, dim: int) -> GaugeBody:
    """Build a body from its config description (matrices row-major)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("norm spec must be an object with a 'type' tag")
    kind = spec["type"]
    try:
        if kind == "ellipsoid":
            A = _matrix("ellipsoid matrix", spec.get("matrix"), dim)
            return make_ellipsoid(A, label=spec.get("label"))
        if kind == "power_mean":
            terms = spec.get("terms", [])
            if not isinstance(terms, list):
                raise ConfigError("power_mean terms must be a list of matrices")
            mats = [_matrix("power_mean term", t, dim) for t in terms]
            p = spec.get("p")
            if p is None:
                raise ConfigError("power_mean spec requires an exponent p")
            return make_power_mean(
                mats, _bounded_int("power_mean p", p, 2), label=spec.get("label")
            )
    except RejectedInputError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown norm type {kind!r}")


@dataclass
class ExperimentReport:
    config: dict
    results: dict
    certificates: dict
    checks: list
    passed: bool
    version: str
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "results": self.results,
            "certificates": self.certificates,
            "checks": self.checks,
            "passed": self.passed,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
        }

    def canonical_bytes(self) -> bytes:
        """Serialization that is identical for identical
        (config, seed, version); volatile timing is excluded."""
        d = self.to_dict()
        d.pop("wall_time_s")
        return (json.dumps(d, sort_keys=True, indent=2) + "\n").encode()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _check(name, value, tol):
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tol),
        "passed": bool(value <= tol),
    }


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# maps battery


def _closed_cosphere_loop(sphere: EmbeddedSphere, n_pts: int, seed: int):
    """Smooth closed curve on the unit co-sphere bundle: a projected great
    circle with the supporting covector of its exact tangent."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((sphere.dim, 2)))
    u, v = basis[:, 0], basis[:, 1]
    theta = 2.0 * np.pi * np.arange(n_pts) / n_pts
    c = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v
    dc = -np.sin(theta)[:, None] * u + np.cos(theta)[:, None] * v
    F1 = sphere.body1.gauge(c)
    g1 = sphere.body1.gradient(c)
    q = c / F1[:, None]
    dq = dc / F1[:, None] - c * (np.einsum("ij,ij->i", g1, dc) / F1**2)[:, None]
    p = restrict_covector(sphere, sphere.body2.gradient(dq), q)
    return q, p


def run_maps_battery(
    sphere: EmbeddedSphere, n_samples: int, seed: int, n_loop: int = 32768
) -> dict:
    """Residual battery for the duality maps; returns named residuals."""
    rng = np.random.default_rng(subseed(seed, 1))
    q, p = sample_cosphere(sphere, n_samples, rng)
    swapped = sphere.swapped()

    out = {}
    P, Q = psi(sphere, q, p)
    out["dual_surface_residual"] = float(
        np.abs(sphere.dual2.gauge(P) - 1.0).max()
    )
    out["restriction_residual"] = float(
        np.abs(restrict_covector(sphere, P, q) + p).max()
    )
    Pm, Qm = psi(sphere, -q, -p)
    out["psi_equivariance"] = float(
        max(np.abs(Pm + P).max(), np.abs(Qm + Q).max())
    )
    out["dual_cosphere_residual"] = float(
        np.abs(induced_hamiltonian(swapped, P, Q) - 1.0).max()
    )
    # involution-type boundary round trip
    Pb, Qb = phi(sphere, q, p)
    qb2, pb2 = phi(swapped, Pb, Qb)
    out["phi_roundtrip"] = float(
        max(np.abs(qb2 - q).max(), np.abs(pb2 - p).max())
    )

    # interior bijectivity
    scale = rng.uniform(0.2, 0.8, size=n_samples)
    p_int = p * scale[:, None]
    max_rt = 0.0
    for i in range(n_samples):
        Pi, Qi = Phi(sphere, q[i], p_int[i])
        qi, pi = Phi(swapped, Pi, Qi)
        max_rt = max(
            max_rt,
            float(np.abs(qi - q[i]).max()),
            float(np.abs(pi - p_int[i]).max()),
        )
    out["Phi_roundtrip"] = max_rt

    # action preservation on a closed co-sphere loop
    lq, lp = _closed_cosphere_loop(sphere, n_loop, subseed(seed, 2))
    a0 = action(lq, lp, closed=True)
    LP, LQ = psi(sphere, lq, lp)
    a1 = action(LP, LQ, closed=True)
    out["action_preservation_psi"] = float(abs(a1 - a0))
    BP, BQ = phi(sphere, lq, lp)
    a2 = action(BP[::-1], BQ[::-1], closed=True)
    out["action_preservation_phi_reversed"] = float(abs(a2 - a0))
    out["loop_action"] = float(a0)
    return out


# ---------------------------------------------------------------------------
# experiment dispatch


def _girth_opts(config: ExperimentConfig) -> GirthOptions:
    s = config.solver
    return GirthOptions(
        N=s.N, starts=s.starts, seed=subseed(config.seed, 10), tol=s.tol, levels=s.levels
    )


def _parallel_pair(fn_a, fn_b, jobs: int):
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=2) as ex:
            fa = ex.submit(fn_a)
            fb = ex.submit(fn_b)
            return fa.result(), fb.result()
    return fn_a(), fn_b()


def run(config: ExperimentConfig) -> ExperimentReport:
    """Certify bodies, dispatch the experiment, assemble the report."""
    t0 = time.perf_counter()
    tols = config.tolerances
    body1 = body_from_spec(config.norm1, config.dim)
    body2 = (
        body_from_spec(config.norm2, config.dim) if config.norm2 else body1
    )
    certificates = {}
    checks = []
    for tag, body in (("norm1", body1), ("norm2", body2)):
        n_cert = 2000
        cert_seed = subseed(config.seed, 100)
        min_eig = check_quadratic_convexity(body, n_cert, cert_seed)
        certificates[tag] = {
            "label": body.label,
            "min_tangential_eigenvalue": float(min_eig),
            "samples": n_cert,
            "seed": cert_seed,
        }
        checks.append(
            {
                "name": f"quadratic_convexity_{tag}",
                "value": float(min_eig),
                "tolerance": 0.0,
                "passed": bool(min_eig > 0.0),
            }
        )

    sphere = EmbeddedSphere(body1, body2)
    results = {}
    exp = config.experiment

    if exp == "girth":
        res = girth(sphere, _girth_opts(config))
        results["girth"] = res.girth
        results["certificate"] = res.certificate
        checks.append(
            _check(
                "girth_first_order_residual",
                res.certificate["first_order_residual"],
                tols["girth_residual"],
            )
        )
    elif exp == "dual-check":
        opts = _girth_opts(config)
        res, dres = _parallel_pair(
            lambda: girth(sphere, opts), lambda: dual_girth(sphere, opts), config.jobs
        )
        gap = abs(res.girth - dres.girth) / res.girth
        results["girth"] = res.girth
        results["dual_girth"] = dres.girth
        results["relative_gap"] = gap
        results["certificate"] = res.certificate
        results["dual_certificate"] = dres.certificate
        checks.append(_check("girth_duality_gap", gap, tols["dual_gap_rel"]))
    elif exp == "spectrum":
        k = config.solver.starts
        sp, sd = _parallel_pair(
            lambda: length_spectrum_probe(
                sphere, k, subseed(config.seed, 20), N=config.solver.N,
                levels=config.solver.levels,
            ),
            lambda: length_spectrum_probe(
                sphere.swapped(), k, subseed(config.seed, 21), N=config.solver.N,
                levels=config.solver.levels,
            ),
            config.jobs,
        )
        results["primal_lengths"] = sp
        results["dual_lengths"] = sd
        mismatch = 0.0
        for v in sp:
            mismatch = max(mismatch, min(abs(v - w) for w in sd) if sd else np.inf)
        for w in sd:
            mismatch = max(mismatch, min(abs(w - v) for v in sp) if sp else np.inf)
        results["max_mismatch"] = mismatch
        checks.append(_check("spectrum_match", mismatch, tols["spectrum_match"]))
    elif exp == "volume":
        v1, v2 = _parallel_pair(
            lambda: ht_volume(sphere, seed=config.seed),
            lambda: ht_volume(sphere.swapped(), seed=config.seed),
            config.jobs,
        )
        rel = abs(v1.value - v2.value) / v1.value
        results["volume_primal"] = asdict(v1)
        results["volume_dual"] = asdict(v2)
        results["relative_gap"] = rel
        combined = (v1.error_estimate + v2.error_estimate) / v1.value
        checks.append(
            _check("volume_equality", rel, max(tols["volume_rel"], 3.0 * combined))
        )
    elif exp == "crofton":
        # norm1 is the hypersurface M, norm2 (or norm1) the ambient norm
        rep = crofton_line_measure(
            body2, body1, config.solver.samples, subseed(config.seed, 30)
        )
        vol = ht_volume(sphere, seed=config.seed)
        ratio = rep.value / (vol.value * np.pi)
        results["line_measure"] = asdict(rep)
        results["ht_volume"] = asdict(vol)
        results["ratio"] = ratio
        checks.append(_check("crofton_identity", abs(ratio - 1.0), tols["crofton_rel"]))
    elif exp == "maps-verify":
        n = min(config.solver.samples, 1000)
        battery = run_maps_battery(sphere, n, config.seed)
        results["battery"] = battery
        checks.append(
            _check("map_residual", battery["dual_surface_residual"], tols["map_residual"])
        )
        checks.append(
            _check(
                "restriction_residual",
                battery["restriction_residual"],
                tols["map_residual"],
            )
        )
        checks.append(
            _check("psi_equivariance", battery["psi_equivariance"], tols["psi_equivariance"])
        )
        checks.append(
            _check(
                "action_preservation",
                max(
                    battery["action_preservation_psi"],
                    battery["action_preservation_phi_reversed"],
                ),
                tols["action_preservation"],
            )
        )
        checks.append(_check("Phi_roundtrip", battery["Phi_roundtrip"], tols["phi_roundtrip"]))
    elif exp == "diameter":
        m = max(4, config.solver.samples if config.solver.samples <= 200 else 40)
        dp, dd = _parallel_pair(
            lambda: diameter_probe(sphere, m, subseed(config.seed, 40)),
            lambda: diameter_probe(sphere.swapped(), m, subseed(config.seed, 41)),
            config.jobs,
        )
        results["diameter_lower_bound_primal"] = dp
        results["diameter_lower_bound_dual"] = dd
        checks.append(
            {"name": "diameter_probe_completed", "value": 0.0, "tolerance": 0.0, "passed": True}
        )
    else:  # pragma: no cover - guarded by config validation
        raise ConfigError(f"unknown experiment {exp}")

    passed = all(c["passed"] for c in checks)
    return ExperimentReport(
        config=_sanitize(config.to_dict()),
        results=_sanitize(results),
        certificates=_sanitize(certificates),
        checks=_sanitize(checks),
        passed=passed,
        version=__version__,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# plot tables


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, float) and not v.is_integer():
                    cells.append(repr(v))
                else:
                    cells.append(str(int(v)) if isinstance(v, (int, float)) else str(v))
            fh.write(",".join(cells) + "\n")


def emit_plot_data(report: ExperimentReport, path_stem: str) -> list:
    """Write column-oriented CSV tables for the report; returns paths."""
    written = []
    exp = report.config["experiment"]
    res = report.results
    if exp in ("girth", "dual-check"):
        cert = res["certificate"]
        lengths = cert["continuation_lengths"]
        n0 = cert["n_half_final"] // (2 ** (len(lengths) - 1))
        rows = []
        for i, L in enumerate(lengths):
            rich = (
                (4.0 * lengths[i] - lengths[i - 1]) / 3.0 if i > 0 else lengths[i]
            )
            rows.append((n0 * 2**i, L, rich))
        p = f"{path_stem}_continuation.csv"
        _write_csv(p, ["N", "length", "richardson_estimate"], rows)
        written.append(p)
    if exp == "spectrum":
        sp, sd = res["primal_lengths"], res["dual_lengths"]
        rows = []
        for v in sp:
            w = min(sd, key=lambda x: abs(x - v)) if sd else float("nan")
            rows.append((v, w))
        p = f"{path_stem}_spectrum.csv"
        _write_csv(p, ["primal", "dual"], rows)
        written.append(p)
    if exp == "crofton":
        rep = res["line_measure"]
        p = f"{path_stem}_crofton.csv"
        _write_csv(
            p,
            ["samples", "estimate", "stderr"],
            [(rep["samples"], rep["value"], rep["error_estimate"])],
        )
        written.append(p)
    return written
