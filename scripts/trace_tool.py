#!/usr/bin/env python3
"""Check, summarize, tabulate or merge Banshee run traces.

A traced run (any bench with --trace[=N], or
SystemConfig::withTelemetry(path)) writes one Chrome trace-event JSON
file per experiment, loadable in Perfetto (ui.perfetto.dev) or
chrome://tracing; src/telemetry/span_trace.hh describes its tracks.

--check (the default) exits 1 unless every trace is well formed (see
check()). --timeline prints one table of per-epoch rates per run,

    epoch cycle missRate W activeSlices <tenant>.slices <tenant>.p95qlat

then its decisions (a transition still open at run end is listed as
<name>_truncated) and host-time profile. A percentile ending in "!"
landed in the histogram's open-ended top bucket: a lower bound, as
the "saturated" flag in the bench JSON. --summary gives queue vs
service per channel and tenant; --merge writes one Perfetto file.

Stdlib only (CI runs it next to the bench binaries).
"""

import argparse
import json
import signal
import sys
from collections import defaultdict

CONTROL_PID = 3
RUN_TID = 0
# Histogram::kBuckets: bucket 0 holds 0, bucket i >= 1 holds
# [2^(i-1), 2^i), and the last bucket is open-ended.
HIST_BUCKETS = 48
PHASES = ("B", "E", "X", "i", "b", "e", "M", "C")
# Run-track instants that are metadata, not decisions.
RUN_METADATA = ("run_info", "tenant", "measure_start", "profile",
                "epoch_hists")


def load(path):
    """The trace's event list; raises ValueError when unreadable.

    A run that aborts leaves the array without its closing "]" (the
    trace format allows that), and its last line may be cut short:
    such a file loads as the events of its whole lines."""
    try:
        with open(path) as f:
            text = f.read().rstrip()
    except OSError as e:
        raise ValueError(f"{path}: {e}") from e
    bodies = [text] if text.endswith("]") else [
        body.rstrip(",") + "\n]" for body in (text, text.rsplit("\n", 1)[0])]
    for body in bodies:
        try:
            events = json.loads(body)
            break
        except json.JSONDecodeError as e:
            err = e
    else:
        raise ValueError(f"{path}: {err}")
    if not isinstance(events, list):
        raise ValueError(f"{path}: top level is not a JSON array")
    return events


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check(path, events):
    """Validate one trace; returns a list of problem strings.

    The rules are what Perfetto's importer assumes and what the
    simulator promises: objects with name/ph/pid/tid; per (pid, tid)
    every B has a same-name E (after a stable sort by ts, as importers
    do); per (pid, cat, id) async b/e balance and no e precedes its b;
    X has dur >= 0, instants have scope "t", counters numeric args;
    one run_info; epoch counters in time order, each with one
    epoch_hists at its ts holding count/sum/max/buckets."""
    problems = []

    def bad(i, ev, why):
        problems.append(f"{path}: event {i} {ev.get('name')!r}: {why}")

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"{path}: event {i} is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                bad(i, ev, f"missing {key!r}")
        ph = ev.get("ph")
        if ph not in PHASES:
            bad(i, ev, f"unknown phase {ph!r}")
            continue
        if ph != "M" and "ts" not in ev:
            bad(i, ev, "missing 'ts'")
        if ph == "X" and ev.get("dur", -1) < 0:
            bad(i, ev, "complete event without dur >= 0")
        if ph == "i" and ev.get("s") != "t":
            bad(i, ev, "instant without thread scope")
        if ph in ("b", "e") and ("cat" not in ev or "id" not in ev):
            bad(i, ev, "async event without cat/id")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                bad(i, ev, "counter without args")
            else:
                for k, v in args.items():
                    if not is_number(v):
                        bad(i, ev, f"counter arg {k!r} is not a number")
        if ev.get("name") == "epoch_hists" and ph == "i":
            for name, h in ev.get("args", {}).items():
                if not isinstance(h, dict) or not all(
                        k in h for k in ("count", "sum", "max", "buckets")):
                    bad(i, ev, f"histogram {name!r} missing "
                               "count/sum/max/buckets")
                elif len(h["buckets"]) > HIST_BUCKETS:
                    bad(i, ev, f"histogram {name!r} has more than "
                               f"{HIST_BUCKETS} buckets")
    if problems:
        return problems

    infos = [ev for ev in events if ev["name"] == "run_info"]
    if len(infos) != 1:
        problems.append(f"{path}: {len(infos)} run_info events, want 1")
    counters = [ev["ts"] for ev in events
                if ev["ph"] == "C" and ev["name"] == "epoch"]
    hists = [ev["ts"] for ev in events if ev["name"] == "epoch_hists"]
    if counters != sorted(counters):
        problems.append(f"{path}: epoch counters not in time order")
    if hists != counters:
        problems.append(f"{path}: {len(hists)} epoch_hists for "
                        f"{len(counters)} epoch counters, or off their ts")

    # Duration nesting per (pid, tid). The writer emits events when
    # they complete, so sibling spans can appear out of time order;
    # stable-sort by ts (E before B at equal ts so zero-length spans
    # close before their successor opens) exactly as importers do.
    order = {"E": 0, "B": 1}
    tracks = defaultdict(list)
    for ev in events:
        if ev["ph"] in ("B", "E"):
            tracks[(ev["pid"], ev["tid"])].append(ev)
    for (pid, tid), track in tracks.items():
        track.sort(key=lambda ev: (ev["ts"], order[ev["ph"]]))
        stack = []
        where = f"{path}: track pid={pid} tid={tid}"
        for ev in track:
            if ev["ph"] == "B":
                stack.append(ev["name"])
            elif not stack:
                problems.append(f"{where}: E {ev['name']!r} at "
                                f"ts={ev['ts']} with empty stack")
            else:
                if stack[-1] != ev["name"]:
                    problems.append(f"{where}: E {ev['name']!r} at "
                                    f"ts={ev['ts']} crosses open B "
                                    f"{stack[-1]!r}")
                stack.pop()
        for name in stack:
            problems.append(f"{where}: B {name!r} never closed")

    # Async pairing per (pid, cat, id): overlap is legal, imbalance
    # and e-before-b are not.
    pairs = defaultdict(lambda: [0, 0])  # opened, closed
    for ev in events:
        if ev["ph"] not in ("b", "e"):
            continue
        key = (ev["pid"], ev["cat"], ev["id"])
        if ev["ph"] == "b":
            pairs[key][0] += 1
        else:
            pairs[key][1] += 1
            if pairs[key][1] > pairs[key][0]:
                problems.append(f"{path}: async {key}: 'e' before its 'b'")
    for key, (opened, closed) in pairs.items():
        if opened != closed:
            problems.append(
                f"{path}: async {key}: {opened} 'b' vs {closed} 'e'")
    return problems


def run_info(events):
    return next((ev.get("args", {}) for ev in events
                 if ev.get("name") == "run_info"), {})


def run_label(path, events):
    return run_info(events).get("label") or path


def tenant_names(events):
    """Tenant names by id, from the run track's "tenant" instants."""
    return {ev["args"]["id"]: ev["args"]["name"] for ev in events
            if ev.get("name") == "tenant" and ev.get("pid") == CONTROL_PID
            and ev.get("tid") == RUN_TID}


def track_names(events, pid):
    return {ev["tid"]: ev["args"]["name"] for ev in events
            if ev.get("ph") == "M" and ev.get("name") == "thread_name"
            and ev.get("pid") == pid}


def bucket_high(i):
    """Upper bound of log2 bucket i; bucket 0 holds the value 0,
    bucket i >= 1 holds [2^(i-1), 2^i)."""
    return 0 if i == 0 else (1 << i) - 1


def delta_percentile(prev, cur, q):
    """Percentile of the values recorded *between* two cumulative
    histogram snapshots (epoch-local distribution), rendered as a
    string. A trailing "!" marks a saturated read: the percentile
    landed in the histogram's open-ended top bucket, so the true
    value is only bounded below. Snapshots trim trailing empty
    buckets, so the last *listed* bucket is not the top one."""
    prev_b = (prev or {}).get("buckets", [])
    cur_b = cur.get("buckets", [])
    deltas = [c - (prev_b[i] if i < len(prev_b) else 0)
              for i, c in enumerate(cur_b)]
    total = sum(deltas)
    if total <= 0:
        return None
    target = max(1, int(q * total + 0.9999999))
    seen = 0
    for i, d in enumerate(deltas):
        seen += d
        if seen >= target:
            val = min(bucket_high(i), cur.get("max", bucket_high(i)))
            mark = "!" if i == HIST_BUCKETS - 1 else ""
            return f"{val}{mark}"
    return None


def summarize(path, events):
    """Queue-vs-service per channel and tenant, residency, fetches."""
    print(f"== {path} ==")
    info = run_info(events)
    if info:
        print("  run: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    tenants = tenant_names(events)

    # Channel tracks (pid 2): queue/service async pairs share one id
    # per request; only the queue 'b' carries the request args
    # (tenant, rw, cat), so remember the tenant per id.
    opens = {}
    req_tenant = {}
    chan = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for ev in events:
        if ev.get("pid") != 2 or ev["ph"] not in ("b", "e"):
            continue
        key = (ev["cat"], ev["id"], ev["name"])
        if ev["ph"] == "b":
            opens[key] = ev
            if ev["name"] == "queue":
                req_tenant[(ev["cat"], ev["id"])] = \
                    ev.get("args", {}).get("tenant", 255)
            continue
        b = opens.pop(key, None)
        if b is None:
            continue
        dur = ev["ts"] - b["ts"]
        tenant = req_tenant.get((ev["cat"], ev["id"]), 255)
        slot = chan[ev["cat"]][tenants.get(tenant, "-")]
        if ev["name"] == "queue":
            slot[0] += 1
            slot[1] += dur
        else:
            slot[2] += dur
            req_tenant.pop((ev["cat"], ev["id"]), None)
    if chan:
        print(f"  {'channel':24} {'tenant':12} {'reqs':>8} "
              f"{'avg queue us':>14} {'avg service us':>14}")
        for track in sorted(chan):
            for tname, (n, q, s) in sorted(chan[track].items()):
                if n:
                    print(f"  {track:24} {tname:12} {n:8} "
                          f"{q / n:14.3f} {s / n:14.3f}")

    # Pages (pid 1): "resident" B/E spans per page track and async
    # "fetch" pairs.
    opened = {}
    res_us, fetch_us, res_pages = [], [], set()
    causes = defaultdict(int)
    for ev in events:
        if ev.get("pid") != 1 or ev.get("name") not in ("resident", "fetch"):
            continue
        key = ((ev["tid"],) if ev["name"] == "resident"
               else (ev["cat"], ev["id"]))
        if ev["ph"] in ("B", "b"):
            opened[key] = ev["ts"]
        elif key in opened:
            dur = ev["ts"] - opened.pop(key)
            if ev["name"] == "fetch":
                fetch_us.append(dur)
                continue
            res_us.append(dur)
            res_pages.add(ev["tid"])
            causes[ev.get("args", {}).get("cause", "?")] += 1
    if res_us:
        print(f"  residency: {len(res_us)} spans over {len(res_pages)} "
              f"sampled pages, avg {sum(res_us) / len(res_us):.1f} us")
        print("  eviction causes: " + ", ".join(
            f"{k}={v}" for k, v in sorted(causes.items())))
    if fetch_us:
        print(f"  fetches: {len(fetch_us)} sampled, "
              f"avg {sum(fetch_us) / len(fetch_us):.3f} us")


def timeline(label, events, csv):
    """Per-epoch rate table, decision events and profile of one run."""
    info = run_info(events)
    freq_hz = info.get("coreFreqHz", 0.0)

    def cycle(ts):
        # ts is microseconds to 4 decimals (0.1 ns), finer than a
        # cycle at any core clock below 10 GHz: rounding is exact.
        return int(round(ts * freq_hz / 1e6))

    counters = [ev for ev in events
                if ev["ph"] == "C" and ev["name"] == "epoch"]
    hists = [ev.get("args", {}) for ev in events
             if ev["ph"] == "i" and ev["name"] == "epoch_hists"]
    if len(counters) < 2 or len(hists) != len(counters):
        print(f"== {label}: fewer than two epoch samples, no timeline")
        return

    tenants = [name for _, name in sorted(tenant_names(events).items())]
    cols = ["epoch", "cycle", "missRate", "W", "activeSlices"]
    for t in tenants:
        cols += [f"{t}.slices", f"{t}.p95qlat"]

    rows = []
    for n in range(1, len(counters)):
        pm, cm = counters[n - 1]["args"], counters[n]["args"]
        ph, ch = hists[n - 1], hists[n]

        def d(name):
            return cm.get(name, 0.0) - pm.get(name, 0.0)

        acc = d("dramAccesses")
        miss_rate = d("dramMisses") / acc if acc > 0 else 0.0
        cur_cycle = cycle(counters[n]["ts"])
        dcycles = cur_cycle - cycle(counters[n - 1]["ts"])
        watts = ""
        if freq_hz > 0 and dcycles > 0 and "inPkgEnergyPJ" in cm:
            ns = dcycles * 1e9 / freq_hz
            watts = f"{d('inPkgEnergyPJ') / ns * 1e-3:.3f}"
        row = [str(n), str(cur_cycle), f"{miss_rate:.4f}", watts,
               f"{cm['activeSlices']:.0f}" if "activeSlices" in cm
               else ""]
        for t in tenants:
            slices = cm.get(f"tenant.{t}.slices")
            row.append("" if slices is None else f"{slices:.0f}")
            p95 = delta_percentile(ph.get(f"tenant.{t}.queueLat"),
                                   ch.get(f"tenant.{t}.queueLat", {}),
                                   0.95)
            row.append("" if p95 is None else p95)
        rows.append(row)

    if csv:
        print(",".join(["run"] + cols))
        for row in rows:
            print(",".join([label] + row))
        return

    print(f"== {label}")
    widths = [max(len(c), max(len(r[i]) for r in rows))
              for i, c in enumerate(cols)]
    print("  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for row in rows:
        print("  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)))

    # Decisions: run- and resize-track instants and transitions.
    names = track_names(events, CONTROL_PID)
    decisions = []
    for ev in events:
        if ev.get("pid") != CONTROL_PID or ev["ph"] not in ("i", "B", "E"):
            continue
        if names.get(ev["tid"]) not in ("run", "resize"):
            continue
        if ev["name"] in RUN_METADATA:
            continue
        kind = {"i": "", "B": "_start", "E": "_commit"}[ev["ph"]]
        if ev["ph"] == "E" and ev.get("args", {}).get("truncated"):
            kind = "_truncated"  # closed at run end, never committed
        decisions.append((ev["ts"], ev["name"] + kind, ev.get("args", {})))
    if decisions:
        print("  events:")
        for ts, name, args in decisions:
            print(f"    cycle {cycle(ts):>12}  {name:<16} "
                  + " ".join(f"{k}={v}" for k, v in args.items()))
    profile = next((ev.get("args", {}) for ev in events
                    if ev.get("name") == "profile"), {})
    if profile:
        print("  host-time profile:")
        for name, t in sorted(profile.items()):
            print(f"    {name:<20} {t['ns'] / 1e6:>10.1f} ms  "
                  f"{t['calls']:>10} calls")
    print()


def merge(traces, out):
    """Concatenate traces side by side: trace k's pids shift by 10*k
    so each file's pages/channels/control land in their own process
    group, labelled with the source run."""
    merged = []
    for k, (path, events) in enumerate(traces):
        prefix = run_label(path, events)
        for ev in events:
            ev = dict(ev, pid=ev["pid"] + 10 * k)
            if ev.get("ph") == "M" and ev.get("name") == "process_name":
                ev["args"] = {"name": f"{prefix}: {ev['args']['name']}"}
            merged.append(ev)
    with open(out, "w") as f:
        json.dump(merged, f)
    print(f"merged {len(traces)} traces ({len(merged)} events) -> {out}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("traces", nargs="+", help="*.trace.json files")
    ap.add_argument("--check", action="store_true",
                    help="validate (the default; exit 1 on problems)")
    ap.add_argument("--summary", action="store_true",
                    help="per-channel / per-tenant span tables")
    ap.add_argument("--timeline", action="store_true",
                    help="per-epoch tables, decisions, host profile")
    ap.add_argument("--run", metavar="S",
                    help="only traces whose run label contains S")
    ap.add_argument("--csv", action="store_true",
                    help="emit the timelines as CSV")
    ap.add_argument("--merge", metavar="OUT",
                    help="write one merged Perfetto file")
    args = ap.parse_args(argv)
    do_check = args.check or not (args.summary or args.timeline
                                  or args.merge)

    traces = []
    bad = 0
    for path in args.traces:
        try:
            events = load(path)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            bad += 1
            continue
        if args.run and args.run not in run_label(path, events):
            continue
        if do_check:
            problems = check(path, events)
            for p in problems[:20]:
                print(p, file=sys.stderr)
            if len(problems) > 20:
                print(f"... {len(problems) - 20} more", file=sys.stderr)
            if problems:
                bad += 1
                continue
            print(f"{path}: OK ({len(events)} events)")
        traces.append((path, events))

    for path, events in traces:
        if args.summary:
            summarize(path, events)
        if args.timeline:
            timeline(run_label(path, events), events, args.csv)
    if args.merge:
        merge(traces, args.merge)
    return 1 if bad else 0


if __name__ == "__main__":
    # Die quietly when the output is piped into head/less and closed.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
