#!/usr/bin/env python3
"""Compare a fresh bench --json run against a committed baseline.

The perf-regression gate: CI reruns a bench with --json (and
--host-perf) and diffs it against bench/baselines/<name>.json. Two
classes of metric:

  * Deterministic simulation results (ipc, missRate, cycles, traffic
    byte sums, energy per instruction): these are bit-reproducible,
    so any difference from the baseline fails. A difference means a
    behavioral change — refresh the baseline deliberately (rerun the
    bench and commit the new file) when the change is intended.
  * Host throughput (eventsPerSec, per-result and sweep-wide):
    compared only when both files carry it, against the looser
    --perf-tolerance (default 50% — shared CI runners are noisy);
    only slowdowns fail, speedups just print.

Labels present in the baseline but missing from the fresh run are
errors (a bench silently dropping an experiment is a regression);
extra fresh labels only warn, so adding experiments does not require
touching the gate.

Usage:
    bench_compare.py baseline.json fresh.json
    bench_compare.py baseline.json fresh.json --perf-tolerance 0.75
    bench_compare.py baseline.json fresh.json --no-host-perf

Stdlib only (CI runs it next to the bench binaries).
"""

import argparse
import json
import sys

# Deterministic per-result scalars, gated exactly. Traffic is gated
# as its per-device byte sums.
SCALARS = ["ipc", "missRate", "cycles", "energyPerInstrPJ"]


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: {path}: {e}")
    if "results" not in doc:
        sys.exit(f"error: {path}: no 'results' array")
    return doc


def traffic_sum(result, key):
    cats = result.get(key, {})
    return sum(cats.values()) if isinstance(cats, dict) else 0


def rel_drift(base, fresh):
    if base == 0:
        return 0.0 if fresh == 0 else float("inf")
    return (fresh - base) / base


class Gate:
    def __init__(self):
        self.failures = []
        self.checked = 0

    def report(self, label, metric, base, fresh, bad, noteworthy=False):
        self.checked += 1
        line = (f"  {label:40} {metric:20} {base!r:>14} -> "
                f"{fresh!r:>14}  {100 * rel_drift(base, fresh):+7.2f}%")
        if bad:
            self.failures.append(line)
            print(line + "  FAIL")
        elif noteworthy:
            print(line)  # worth eyeballing, not worth failing

    def exact(self, label, metric, base, fresh):
        """Deterministic results: any difference fails."""
        self.report(label, metric, base, fresh, base != fresh)

    def slowdown(self, label, metric, base, fresh, tol):
        """Host throughput: a slowdown beyond tol fails, a speedup
        just prints."""
        drift = rel_drift(base, fresh)
        self.report(label, metric, base, fresh, drift < -tol,
                    abs(drift) > tol / 2)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--perf-tolerance", type=float, default=0.50,
                    help="host events/sec slowdown gate (default 0.50)")
    ap.add_argument("--no-host-perf", action="store_true",
                    help="skip host-throughput comparison entirely")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    fresh_doc = load(args.fresh)
    if base_doc.get("bench") != fresh_doc.get("bench"):
        sys.exit(f"error: bench mismatch: {base_doc.get('bench')!r} vs "
                 f"{fresh_doc.get('bench')!r}")

    base_by = {r["label"]: r for r in base_doc["results"]}
    fresh_by = {r["label"]: r for r in fresh_doc["results"]}

    missing = sorted(set(base_by) - set(fresh_by))
    if missing:
        sys.exit(f"error: fresh run is missing baseline labels: "
                 f"{', '.join(missing)}")
    for label in sorted(set(fresh_by) - set(base_by)):
        print(f"warning: label {label!r} not in baseline (unchecked)")

    gate = Gate()
    for label, base in base_by.items():
        fresh = fresh_by[label]
        for metric in SCALARS:
            if metric in base and metric in fresh:
                gate.exact(label, metric, base[metric], fresh[metric])
        for key in ("inPkgBytes", "offPkgBytes"):
            gate.exact(label, key + ".sum", traffic_sum(base, key),
                       traffic_sum(fresh, key))
        if (not args.no_host_perf and "hostPerf" in base
                and "hostPerf" in fresh):
            gate.slowdown(label, "hostPerf.eventsPerSec",
                          base["hostPerf"].get("eventsPerSec", 0),
                          fresh["hostPerf"].get("eventsPerSec", 0),
                          args.perf_tolerance)

    if (not args.no_host_perf and "sweepHostPerf" in base_doc
            and "sweepHostPerf" in fresh_doc):
        gate.slowdown("<sweep>", "eventsPerSec",
                      base_doc["sweepHostPerf"].get("eventsPerSec", 0),
                      fresh_doc["sweepHostPerf"].get("eventsPerSec", 0),
                      args.perf_tolerance)

    if gate.failures:
        print(f"\n{len(gate.failures)} of {gate.checked} checks "
              f"failed:")
        for line in gate.failures:
            print(line)
        sys.exit(1)
    print(f"OK: {gate.checked} checks passed "
          f"({len(base_by)} labels)")


if __name__ == "__main__":
    main()
