#!/usr/bin/env python3
"""Fingerprints of every number girthlab reports, one line per seed and run.

Usage: python scripts/fingerprints.py [--seeds 0 1 2 3 4] [--experiments girth ...] [--values]
       python scripts/fingerprints.py --compare OLD.jsonl NEW.jsonl

Each line is ``seed name sha256``: the sha256 of ``Outcome.fingerprint`` of
one benchmark workload (all of ``perfbench/workloads.py`` run), or of
``harness.run(...).canonical_bytes()`` for one experiment on the space of
one ``configs/*.json``, with the config's seed replaced by the given one.
girthlab is imported from the ``src/`` next to this script, so two source
trees report the same numbers bit for bit exactly when the outputs of this
script in each of them are identical.  Each line's elapsed wall seconds go
to stderr as ``seed name seconds``, so stdout stays comparable while the
same run gives per-experiment wall times.

With ``--values`` each line is instead a JSON object ``{"seed", "name",
"values"}`` holding the run's reported numbers by path: a workload's check
values and ``Outcome.values``, or every number of a report's canonical
JSON.  ``--compare`` reads two such outputs, say of two source trees, and
prints each run's largest relative change |a - b| / max(|a|, |b|) with the
number it came from; then, for each reported quantity that changed, its
largest change over all runs and where it happened; then the largest over
all runs, and the largest over the numbers of magnitude max(|a|, |b|) above
1e-12, whose relative change is not a rounding residual's.  A quantity is a
number path of one experiment (workload, or experiment of any config and
seed), with a trailing list index dropped: every start length of girth is
one quantity, ``girth results.certificate.start_lengths[]``.
"""

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import girthlab  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument(
        "--experiments", nargs="*", default=list(girthlab.harness.EXPERIMENTS),
        choices=girthlab.harness.EXPERIMENTS,
    )
    ap.add_argument("--values", action="store_true", help="print reported numbers as JSON lines")
    ap.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --values outputs"
    )
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    emit = _emit_values if args.values else _emit
    configs = sorted((ROOT / "configs").glob("*.json"))
    built = {name: w.setup(girthlab) for name, w in WORKLOADS.items()}
    for seed in args.seeds:
        for name, w in WORKLOADS.items():
            t0 = time.perf_counter()
            out = w.run(girthlab, built[name], seed)
            numbers = {f"checks.{c[0]}": c[1] for c in out.checks}
            numbers.update((f"values.{k}", v) for k, v in out.values.items())
            emit(seed, name, out.fingerprint, numbers, t0)
        for path in configs:
            for exp in args.experiments:
                d = dict(json.loads(path.read_text()), experiment=exp, seed=seed)
                t0 = time.perf_counter()
                data = girthlab.run(girthlab.ExperimentConfig.from_dict(d)).canonical_bytes()
                numbers = dict(_numbers(json.loads(data)))
                emit(seed, f"{path.stem}:{exp}", data, numbers, t0)


def _emit(seed, name, data, numbers, t0):
    """The fingerprint line on stdout and its elapsed seconds on stderr."""
    elapsed = time.perf_counter() - t0
    print(seed, name, hashlib.sha256(data).hexdigest(), flush=True)
    print(seed, name, f"{elapsed:.2f}", file=sys.stderr, flush=True)


def _emit_values(seed, name, data, numbers, t0):
    """The reported numbers as one JSON line, and the elapsed seconds on stderr."""
    elapsed = time.perf_counter() - t0
    print(json.dumps({"seed": seed, "name": name, "values": numbers}), flush=True)
    print(seed, name, f"{elapsed:.2f}", file=sys.stderr, flush=True)


def _numbers(node, path=""):
    """(dotted path, value) of every int or float in a JSON tree."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _numbers(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _numbers(v, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


_LIST_INDEX = re.compile(r"\[\d+\]$")  # the index of a trailing list entry


def _rel_change(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))  # nan when one side is nan


def compare(old_path, new_path):
    """Print each run's largest relative change between two --values files;
    exit status 1 when the runs or their number paths differ."""
    def load(path):
        with open(path) as fh:
            return {(r["seed"], r["name"]): r["values"] for r in map(json.loads, fh)}

    old, new = load(old_path), load(new_path)
    mismatched = sorted(set(old) ^ set(new))
    worst, worst_above = (0.0, None), (0.0, None)
    by_quantity = {}
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        if set(a) != set(b):
            mismatched.append(key)
            continue
        changes = [(_rel_change(a[p], b[p]), p) for p in a]
        change, line = _largest(key, a, b, changes)
        print(key[0], key[1], line)
        worst = max(worst, (change, f"{key[0]} {key[1]} {line}"), key=_order)
        above = [c for c in changes if abs(a[c[1]]) > 1e-12 or abs(b[c[1]]) > 1e-12]
        change, line = _largest(key, a, b, above)
        worst_above = max(worst_above, (change, f"{key[0]} {key[1]} {line}"), key=_order)
        experiment = key[1].rsplit(":", 1)[-1]
        for c, p in changes:
            q = f"{experiment} {_LIST_INDEX.sub('[]', p)}"
            where = f"{c:.3g} at {key[0]} {key[1]} {p} {a[p]!r} -> {b[p]!r}"
            by_quantity[q] = max(by_quantity.get(q, (0.0, None)), (c, where), key=_order)
    for key in mismatched:
        print(key[0], key[1], "runs or number paths differ")
    for q, (c, where) in sorted(by_quantity.items()):
        if c:
            print("quantity", q, where)
    print("largest relative change", worst[1] if worst[1] else "0")
    print("largest relative change above 1e-12", worst_above[1] if worst_above[1] else "0")
    return 1 if mismatched else 0


def _order(c):
    """Sort key of (change, ...): NaN above every number."""
    return (math.isnan(c[0]), c[0])


def _largest(key, a, b, changes):
    """The largest of (change, path) pairs and its report line."""
    change, where = max(changes, key=_order, default=(0.0, None))
    return change, f"{change:.3g}" + (f" {where} {a[where]!r} -> {b[where]!r}" if change else "")


if __name__ == "__main__":
    sys.exit(main())
