#!/usr/bin/env python3
"""Convergence sweep for the Monte Carlo line measure: ratio of the
measure of meeting lines to pi times the Holmes-Thompson volume, at
increasing sample counts.  Emits a CSV table to stdout, and each row's
line-measure wall seconds to stderr as ``samples seconds``, so stdout stays
comparable while the same run shows the speed at each sample count.

Usage: python scripts/crofton_sweep.py [--seed N] [--max-exp 6]
"""

import argparse
import sys
import time

import numpy as np

from girthlab import (
    EmbeddedSphere,
    crofton_line_measure,
    ht_volume,
    make_ellipsoid,
    make_power_mean,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-exp", type=int, default=6, help="largest 10^k sample count")
    args = ap.parse_args()

    ambient = make_ellipsoid(np.diag([1.0, 1.4, 0.7]), label="e-amb")
    M = make_power_mean([np.diag([1.0, 2.0, 0.5]), np.eye(3)], 4, label="pm4")
    vol = ht_volume(EmbeddedSphere(M, ambient)).value

    print("samples,ratio,stderr_rel")
    for k in range(3, args.max_exp + 1):
        n = 10**k
        t0 = time.perf_counter()
        rep = crofton_line_measure(ambient, M, n, seed=args.seed)
        elapsed = time.perf_counter() - t0
        ratio = rep.value / (np.pi * vol)
        print(f"{n},{float(ratio)!r},{float(rep.error_estimate / rep.value)!r}", flush=True)
        print(n, f"{elapsed:.3f}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
