"""girthlab benchmark: one workload in one process.

    python3 perfbench/run.py --workload maps --seed 0 --seconds 30 --trace 0

Run from the root of a girthlab source tree; girthlab is imported from its
``src/`` directory.  BLAS runs one thread: the workloads are single-process
and the host gives them two virtual CPUs, so a second BLAS thread only
measures the scheduler.

The untraced run (``--trace 0``) times whole iterations, starting another
only while it fits in ``--seconds`` (the first always runs), and reports
the end-to-end metrics, wall_s being the median iteration, corrected for
the host's speed while it ran (see ``hostspeed.py``).  setup_s is the
median time to import girthlab in a fresh interpreter plus the median time
to build and certify the workload's bodies.

The traced run (``--trace 1``) times one untraced iteration, then one
iteration with spans around every call into girthlab's layers, checks that
both report the same numbers bit for bit, reports the per-layer metrics
and writes the spans to ``.perfbench/``.  Every iteration's checks are
counted as operations; the last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_girthlab():
    if not (SRC / "girthlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no girthlab source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import girthlab

    if Path(girthlab.__file__).resolve().parent != SRC / "girthlab":
        sys.exit(f"perfbench: imported girthlab from {girthlab.__file__}, not {SRC}")
    return girthlab


def _load(workload: str):
    gl = import_girthlab()
    from workloads import WORKLOADS

    return gl, WORKLOADS[workload]


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import girthlab; "
    "print(time.perf_counter() - t0, girthlab.__file__)"
)


def time_import() -> float:
    """Seconds to import girthlab, numpy and scipy included, in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = out.stdout.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != SRC / "girthlab":
        sys.exit(f"perfbench: a fresh interpreter imported girthlab from {path.strip()}")
    return float(seconds)


def timed_setup(workload: str):
    """Import girthlab in SETUP_REPEATS fresh interpreters, and build and
    certify the workload's bodies SETUP_REPEATS times; the set-up time is
    the median import time plus the median build-and-certify time.  These
    are raw wall times: the host-speed probe does not track the file reads
    and unmarshalling an import spends its time on."""
    gl, wl = _load(workload)
    imports = [time_import() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bodies = wl.setup(gl)
        builds.append(time.perf_counter() - t0)
    return gl, wl, bodies, statistics.median(imports) + statistics.median(builds)


def setup(workload: str):
    """Import girthlab and build and certify the workload's bodies, untimed."""
    gl, wl = _load(workload)
    return gl, wl, wl.setup(gl)


class Tally:
    """Operations attempted and failed: every check, and every reported
    value held against the reference recorded for the default seed."""

    def __init__(self, wl, seed: int):
        refs = json.loads((HERE / "reference.json").read_text())[wl.name]
        self.ref_seed = refs["seed"]
        self.ref_checks = refs["checks"]
        self.ref_values = refs["values"]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.headroom = 0.0

    def add(self, outcome, label: str):
        names = [c[0] for c in outcome.checks]
        if names != self.ref_checks:
            print(f"{label}: checks {names} differ from {self.ref_checks}")
            self.attempted += len(self.ref_checks)
            self.failed += len(self.ref_checks)
        for name, value, tol, passed in outcome.checks:
            self.attempted += 1
            self.failed += not passed
            if tol > 0:
                self.headroom = max(self.headroom, value / tol)
            print(f"{label}: {'PASS' if passed else 'FAIL'} {name} {value:.3e} (tol {tol:.1e})")
        for name, value in outcome.values.items():
            ref = self.ref_values.get(name)
            if ref is None or not (ref["any_seed"] or self.seed == self.ref_seed):
                print(f"{label}: value {name} {value!r}")
                continue
            ok = abs(value - ref["value"]) <= ref["rel"] * abs(ref["value"])
            self.attempted += 1
            self.failed += not ok
            print(f"{label}: {'PASS' if ok else 'FAIL'} {name} {value!r} "
                  f"(reference {ref['value']!r}, rel {ref['rel']:.0e})")
        for name in self.ref_values.keys() - outcome.values.keys():
            self.verify(f"{label}: value {name} reported", False)

    def error(self, exc, label: str):
        print(f"{label}: FAIL {type(exc).__name__}: {exc}")
        n = len(self.ref_checks) + len(self.ref_values)
        self.attempted += n
        self.failed += n

    def verify(self, what: str, ok: bool):
        self.attempted += 1
        self.failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}")


def _attempt(gl, wl, bodies, seed):
    try:
        return wl.run(gl, bodies, seed), None
    except gl.GirthlabError as exc:
        return None, exc


def _record(tally, out, exc, label):
    if exc is not None:
        tally.error(exc, label)
    else:
        tally.add(out, label)
    return out


def iterate(gl, wl, bodies, seed, tally, label):
    """One timed iteration; returns (seconds, outcome or None)."""
    t0 = time.perf_counter()
    out, exc = _attempt(gl, wl, bodies, seed)
    wall = time.perf_counter() - t0
    return wall, _record(tally, out, exc, label)


def untraced(args):
    from hostspeed import HostSpeed, slowdown

    gl, wl, bodies, setup_s = timed_setup(args.workload)
    tally = Tally(wl, args.seed)
    with HostSpeed() as speed:
        raws, walls = [], []
        t_start = time.perf_counter()
        while True:
            (out, exc), raw, wall = speed.timed(_attempt, gl, wl, bodies, args.seed)
            label = f"iteration {len(walls)}"
            _record(tally, out, exc, label)
            print(f"{label}: {raw:.3f} s, {wall:.3f} s at nominal host speed")
            raws.append(raw)
            walls.append(wall)
            if time.perf_counter() - t_start + max(raws) > args.seconds:
                break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{wl.name}: {len(walls)} iterations, {len(speed.probes)} host probes "
          f"(slowdown {slowdown(speed.probes):.3f}), worst_headroom {tally.headroom!r}")
    return tally, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced(args):
    from layers import UNITS, summarize
    from spans import EVALUATORS, Tracer, bindings, unchanged
    from workloads import GIRTH_STARTS

    gl, wl, bodies = setup(args.workload)
    tally = Tally(wl, args.seed)
    plain_wall, plain = iterate(gl, wl, bodies, args.seed, tally, "untraced")
    before = bindings(gl)
    tracer = Tracer(gl)
    tracer.install()
    try:
        traced_bodies = tracer.call("bench.setup", wl.setup, gl)
        try:
            out = tracer.call("bench.iteration", wl.run, gl, traced_bodies, args.seed)
        except gl.GirthlabError as exc:
            tally.error(exc, "traced")
            out = None
    finally:
        tracer.uninstall()
    if out is not None:
        tally.add(out, "traced")
    tally.verify("traced and untraced results identical", same(plain, out))
    tally.verify(
        "no wrapper left installed",
        unchanged(before, bindings(gl)) and not any(
            hasattr(getattr(b, f), "__wrapped__")
            for b in traced_bodies.values() for f in EVALUATORS
        ),
    )
    if args.recheck:
        _, again = iterate(gl, wl, bodies, args.seed, tally, "after tracing")
        tally.verify("results after tracing identical", same(plain, again))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    values = summarize(
        tracer.arrays(), tracer.extra, untraced_wall=plain_wall,
        worst_headroom=tally.headroom, girth_starts=GIRTH_STARTS,
    )
    return tally, {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def same(a, b) -> bool:
    return a is not None and b is not None and a.fingerprint == b.fingerprint


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("maps", "crofton", "geodesics"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--recheck", action="store_true",
        help="with --trace 1, run one more untraced iteration after tracing",
    )
    args = ap.parse_args(argv)
    tally, metrics = (traced if args.trace else untraced)(args)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
