#!/usr/bin/env python3
"""Fingerprints of every number girthlab reports, one line per seed and run.

Usage: python scripts/fingerprints.py [--seeds 0 1 2 3 4] [--experiments girth ...]

Each line is ``seed name sha256``: the sha256 of ``Outcome.fingerprint`` of
one benchmark workload (all of ``perfbench/workloads.py`` run), or of
``harness.run(...).canonical_bytes()`` for one experiment on the space of
one ``configs/*.json``, with the config's seed replaced by the given one.
girthlab is imported from the ``src/`` next to this script, so two source
trees report the same numbers bit for bit exactly when the outputs of this
script in each of them are identical.  Each line's elapsed wall seconds go
to stderr as ``seed name seconds``, so stdout stays comparable while the
same run gives per-experiment wall times.  Diameter is left out by default: on
configs/maps_verify.json it runs 200 path pairs a side, about 30 s a seed on
a 2-vCPU host, and about 40 s a seed over all four configs.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import girthlab  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPERIMENTS = [e for e in girthlab.harness.EXPERIMENTS if e != "diameter"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument(
        "--experiments", nargs="*", default=EXPERIMENTS,
        choices=girthlab.harness.EXPERIMENTS,
    )
    args = ap.parse_args(argv)
    configs = sorted((ROOT / "configs").glob("*.json"))
    built = {name: w.setup(girthlab) for name, w in WORKLOADS.items()}
    for seed in args.seeds:
        for name, w in WORKLOADS.items():
            t0 = time.perf_counter()
            out = w.run(girthlab, built[name], seed)
            _emit(seed, name, out.fingerprint, t0)
        for path in configs:
            for exp in args.experiments:
                d = dict(json.loads(path.read_text()), experiment=exp, seed=seed)
                t0 = time.perf_counter()
                report = girthlab.run(girthlab.ExperimentConfig.from_dict(d))
                _emit(seed, f"{path.stem}:{exp}", report.canonical_bytes(), t0)


def _emit(seed, name, data, t0):
    """The fingerprint line on stdout and its elapsed seconds on stderr."""
    elapsed = time.perf_counter() - t0
    print(seed, name, hashlib.sha256(data).hexdigest(), flush=True)
    print(seed, name, f"{elapsed:.2f}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
