#!/usr/bin/env python3
"""Repository benchmark: simulator speed plus the modelled design's
bandwidth figures, on serial single-System workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the simulator
and the harness from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Each experiment is one perfbench_sim process:
one System, constructed, run, and checked. Experiments repeat until
--seconds of measuring is used up, and the last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports BENCHMARK.json's end_to_end metrics from untraced
experiments (medians over at least three). --trace 1 alternates
untraced and traced experiments and reports the per_layer metrics;
the traced run must reproduce the untraced run's simulated results.

--seed held-out selects HELD_OUT_SEED, kept aside so that a claim
made on other seeds can be re-checked on inputs it was not tuned on.

perfbench/NOTES.md describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 4242
WORKLOADS = ("graph-banshee", "stream-unison", "consolidation-qos")
MIN_UNTRACED_REPS = 3
# Every process must be gone well inside the 180 s the caller allows.
DEADLINE_S = 170.0
# Traced runs may move DRAM energy by this much (telemetry's epoch
# sampling adds lazy power-integration points) and add the sampling
# clock's own events to the queue; nothing else may move.
ENERGY_REL_TOL = 1e-6
TRACE_ONLY_DIFFS = ("raw.events", "eq.events_per_kinstr")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True,
                   help="non-negative integer, or 'held-out'")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    args.seed = parse_seed(args.seed, p)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def parse_seed(text, parser):
    if text == "held-out":
        return HELD_OUT_SEED
    if not text.isdigit():
        parser.error(f"--seed needs a non-negative integer or 'held-out', "
                     f"got {text!r}")
    return int(text)


def build():
    """Configure (once) and build perfbench_sim; returns its path."""
    if not (ROOT / "src" / "sim" / "system.hh").is_file():
        log(f"no simulator sources under {ROOT / 'src'}")
        sys.exit(2)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"),
                      "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir),
                  "--target", "perfbench_sim", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return build_dir / "perfbench_sim"


def experiment(binary, workload, seed, traced, deadline):
    """One perfbench_sim process. Returns (record, error); record is the
    parsed JSON line, or None when the process aborted or timed out."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left before the deadline"
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = done.stdout.strip().splitlines()
    if not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return None, f"exit {done.returncode}, no result: {' | '.join(tail)}"
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"exit {done.returncode}, unparsable result"
    if done.returncode != 0 or record["failures"]:
        return record, (f"exit {done.returncode}: "
                        + "; ".join(record["failures"]))
    return record, None


def simulated(record):
    """Every simulated value of a run: the identity-checked fingerprint."""
    return {**record["sim"], **record["raw"]}


def identity_errors(reference, other):
    """How the simulated results of run `other` differ from those of the
    untraced run `reference`."""
    errors = []
    ref, got = simulated(reference), simulated(other)
    for name, want in ref.items():
        have = got.get(name)
        if have is None:
            errors.append(f"{name} missing")
        elif other["traced"] and name in TRACE_ONLY_DIFFS:
            continue
        elif other["traced"] and name.startswith(("energy", "power.")):
            if abs(have - want) > ENERGY_REL_TOL * abs(want):
                errors.append(f"{name}: {have!r} != {want!r}")
        elif have != want:
            errors.append(f"{name}: {have!r} != {want!r}")
    return errors


def run(args):
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    binary = build()
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()

    untraced, traced = [], []
    attempted = failed = 0

    def attempt(is_traced):
        nonlocal attempted, failed
        attempted += 1
        record, err = experiment(binary, args.workload, args.seed,
                                 is_traced, deadline)
        if err:
            failed += 1
            log(f"experiment failed ({'traced' if is_traced else 'untraced'}"
                f"): {err}")
        else:
            (traced if is_traced else untraced).append(record)

    # Repeat until the next experiment (or pair) would overrun --seconds.
    rounds = 0
    while True:
        rounds += 1
        attempt(False)
        if args.trace:
            attempt(True)
        if not (untraced or traced):
            break  # the program fails outright; repeating will not help
        now = time.monotonic()
        per_round = (now - start) / rounds
        enough = args.trace or rounds >= MIN_UNTRACED_REPS
        if enough and now - start + per_round > args.seconds:
            break
        if now + 2 * per_round > deadline:
            break

    # Every run at this seed, traced ones too, must reproduce the first
    # untraced one.
    for other in (untraced + traced)[1:] if untraced else []:
        diffs = identity_errors(untraced[0], other)
        if diffs:
            failed += 1
            log("runs at one seed diverged: " + "; ".join(diffs))

    section = "per_layer" if args.trace else "end_to_end"
    wanted = contract[section]
    if args.trace:
        metrics = layer_metrics(wanted, untraced, traced)
    else:
        metrics = e2e_metrics(wanted, untraced)

    result = {
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if metrics else 1


def unit_checked(entry, record):
    """BENCHMARK.json's unit for `entry`, after checking the harness
    produced the metric in that unit."""
    name, unit = entry["name"], record["units"].get(entry["name"])
    if name != "trace.overhead_frac" and unit != entry["unit"]:
        raise SystemExit(f"perfbench: harness gives {name} in {unit}, "
                         f"BENCHMARK.json says {entry['unit']}")
    return entry["unit"]


def e2e_metrics(wanted, untraced):
    if not untraced:
        return {}
    out = {}
    for entry in wanted:
        name, unit = entry["name"], unit_checked(entry, untraced[0])
        source = "host" if name in untraced[0]["host"] else "sim"
        values = [r[source][name] for r in untraced]
        out[name] = {"value": statistics.median(values), "unit": unit}
    log(f"{len(untraced)} untraced experiments; sim_mips samples "
        + ", ".join(f"{r['host']['sim_mips']:.4f}" for r in untraced))
    return out


def layer_metrics(wanted, untraced, traced):
    if not (untraced and traced):
        return {}
    overhead = (statistics.median(r["host"]["run_s"] for r in traced)
                / statistics.median(r["host"]["run_s"] for r in untraced)
                - 1.0)
    out = {}
    for entry in wanted:
        name, unit = entry["name"], unit_checked(entry, traced[0])
        if name == "trace.overhead_frac":
            value = overhead
        elif name in traced[0]["host_layers"]:
            value = statistics.median(r["host_layers"][name] for r in traced)
        else:  # simulated: identical across runs, taken untraced
            value = untraced[0]["sim"][name]
        out[name] = {"value": value, "unit": unit}
    log(f"{len(untraced)} untraced + {len(traced)} traced experiments")
    return out


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
