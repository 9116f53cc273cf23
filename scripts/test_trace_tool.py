#!/usr/bin/env python3
"""Unit tests for trace_tool.py: the --check rules on hand-made
traces, the saturation rule of the epoch percentiles, and the
timeline/merge output. Stdlib unittest; ctest runs it when a Python3
interpreter is found.

    python3 scripts/test_trace_tool.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_tool  # noqa: E402


def meta(pid, tid, kind, name):
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def instant(name, tid, ts, args=None):
    ev = {"name": name, "ph": "i", "pid": 3, "tid": tid, "ts": ts,
          "s": "t"}
    if args is not None:
        ev["args"] = args
    return ev


def epoch(ts, accesses, misses, queue_buckets):
    """One epoch sample: the counter event and its histogram states."""
    counter = {"name": "epoch", "ph": "C", "pid": 3, "tid": 0, "ts": ts,
               "args": {"dramAccesses": accesses, "dramMisses": misses,
                        "tenant.a.slices": 4.0}}
    hists = instant("epoch_hists", 0, ts, {
        "tenant.a.queueLat": {"count": sum(queue_buckets), "sum": 0,
                              "max": 1 << 20,
                              "buckets": queue_buckets}})
    return [counter, hists]


def good_trace():
    """A small well-formed trace: two epochs, a reassign, a resize
    cut off by the run end, a page."""
    events = [
        meta(1, 0, "process_name", "pages"),
        meta(2, 0, "process_name", "channels"),
        meta(3, 0, "process_name", "control"),
        meta(3, 0, "thread_name", "run"),
        instant("run_info", 0, 0.0, {"label": "mix/qos",
                                     "coreFreqHz": 2.7e9}),
        meta(3, 1, "thread_name", "resize"),
        instant("tenant", 0, 0.0, {"id": 0, "name": "a"}),
    ]
    events += epoch(0.0, 0.0, 0.0, [0, 1])
    events += epoch(1.0, 100.0, 25.0, [0, 1, 10, 30])
    events += [
        instant("qos_reassign", 1, 1.0, {"donor": 1, "receiver": 0}),
        {"name": "reassign", "ph": "B", "pid": 3, "tid": 1, "ts": 1.0},
        {"name": "reassign", "ph": "E", "pid": 3, "tid": 1, "ts": 1.5,
         "args": {"activeSlices": 8}},
        {"name": "fetch", "ph": "b", "pid": 1, "tid": 0, "ts": 0.5,
         "cat": "page 0x1", "id": "0"},
        {"name": "fetch", "ph": "e", "pid": 1, "tid": 0, "ts": 0.7,
         "cat": "page 0x1", "id": "0"},
        {"name": "drain_batch", "ph": "X", "pid": 3, "tid": 2,
         "ts": 1.1, "dur": 0.2},
        # A transition still open at run end, closed by the writer.
        {"name": "resize", "ph": "B", "pid": 3, "tid": 1, "ts": 1.8},
        {"name": "resize", "ph": "E", "pid": 3, "tid": 1, "ts": 2.0,
         "args": {"truncated": 1}},
        instant("run_end", 0, 2.0, {"ipc": 1.0}),
        instant("profile", 0, 2.0, {"host.eventQueue": {"ns": 5,
                                                        "calls": 1}}),
    ]
    return events


class Check(unittest.TestCase):
    def problems(self, events):
        return trace_tool.check("t.json", events)

    def test_good_trace_passes(self):
        self.assertEqual(self.problems(good_trace()), [])

    def test_unmatched_begin_fails(self):
        events = [ev for ev in good_trace()
                  if not (ev["name"] == "reassign" and ev["ph"] == "E")]
        self.assertTrue(any("never closed" in p
                            for p in self.problems(events)))

    def test_unmatched_end_fails(self):
        events = [ev for ev in good_trace()
                  if not (ev["name"] == "reassign" and ev["ph"] == "B")]
        self.assertTrue(any("empty stack" in p
                            for p in self.problems(events)))

    def test_async_end_before_begin_fails(self):
        events = good_trace()
        for ev in events:
            if ev["name"] == "fetch":
                ev["ph"] = "e" if ev["ph"] == "b" else "b"
        self.assertTrue(any("'e' before its 'b'" in p
                            for p in self.problems(events)))

    def test_non_numeric_counter_arg_fails(self):
        events = good_trace()
        counter = next(ev for ev in events if ev["ph"] == "C")
        counter["args"]["dramMisses"] = "25"
        self.assertTrue(any("'dramMisses' is not a number" in p
                            for p in self.problems(events)))

    def test_epoch_without_histograms_fails(self):
        events = good_trace()
        events.remove(next(ev for ev in events
                           if ev["name"] == "epoch_hists"))
        self.assertTrue(any("epoch_hists" in p
                            for p in self.problems(events)))

    def test_out_of_order_epoch_counters_fail(self):
        events = good_trace()
        first = events.index(next(ev for ev in events
                                  if ev["name"] == "epoch"))
        # Swap the two epoch samples (counter + histograms each).
        events[first:first + 4] = (events[first + 2:first + 4]
                                   + events[first:first + 2])
        self.assertTrue(any("not in time order" in p
                            for p in self.problems(events)))

    def test_epoch_hists_off_their_counter_fail(self):
        events = good_trace()
        next(ev for ev in events if ev["name"] == "epoch_hists")["ts"] = 0.5
        self.assertTrue(any("off their ts" in p
                            for p in self.problems(events)))


class Saturation(unittest.TestCase):
    def test_highest_occupied_bucket_is_not_saturated(self):
        # Snapshots trim trailing empty buckets: the last listed bucket
        # is merely the highest occupied one, not the open-ended top.
        self.assertEqual(
            trace_tool.delta_percentile(None, {"buckets": [0, 0, 0, 5],
                                               "max": 7}, 0.95), "7")

    def test_top_bucket_is_saturated(self):
        buckets = [0] * trace_tool.HIST_BUCKETS
        buckets[-1] = 3
        self.assertEqual(
            trace_tool.delta_percentile(None, {"buckets": buckets,
                                               "max": 1 << 50}, 0.95),
            f"{(1 << 47) - 1}!")

    def test_percentile_of_the_epoch_delta(self):
        prev = {"buckets": [0, 1]}
        cur = {"buckets": [0, 1, 10, 30], "max": 1 << 20}
        self.assertEqual(trace_tool.delta_percentile(prev, cur, 0.95), "7")
        self.assertIsNone(trace_tool.delta_percentile(cur, cur, 0.95))


class Cli(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.good = os.path.join(self.dir.name, "good.trace.json")
        with open(self.good, "w") as f:
            json.dump(good_trace(), f)

    def tearDown(self):
        self.dir.cleanup()

    def run_tool(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = trace_tool.main(list(args))
        return code, out.getvalue()

    def test_check_exit_codes(self):
        bad = os.path.join(self.dir.name, "bad.trace.json")
        with open(bad, "w") as f:
            f.write("[{\"name\": \"x\"}")
        self.assertEqual(self.run_tool(self.good)[0], 0)
        self.assertEqual(self.run_tool(self.good, bad, "--check")[0], 1)

    def test_timeline_rows_and_decisions(self):
        code, out = self.run_tool(self.good, "--timeline", "--run", "qos")
        self.assertEqual(code, 0)
        rows = [line.split() for line in out.splitlines()
                if line.startswith("  1 ")]
        # epoch 1 at cycle 2700 (1 us at 2.7 GHz), 25/100 misses,
        # tenant a owns 4 slices, its p95 sits in bucket 3 ([4, 8)).
        self.assertEqual(rows, [["1", "2700", "0.2500", "4", "7"]])
        self.assertIn("qos_reassign", out)
        self.assertIn("reassign_start", out)
        self.assertIn("reassign_commit", out)
        self.assertIn("resize_truncated", out)
        self.assertNotIn("resize_commit", out)
        self.assertIn("host.eventQueue", out)
        self.assertEqual(self.run_tool(self.good, "--timeline",
                                       "--run", "nope")[1].strip(), "")

    def test_trace_of_an_aborted_run_loads(self):
        # The writer puts one event per line and the closing "]" only
        # at run end; an abort can also cut the last line short.
        events = good_trace()
        body = "[\n" + ",\n".join(json.dumps(ev) for ev in events)
        path = os.path.join(self.dir.name, "aborted.trace.json")
        for tail in ("", ",\n{\"name\": \"epo"):
            with open(path, "w") as f:
                f.write(body + tail)
            self.assertEqual(trace_tool.load(path), events)
            self.assertEqual(self.run_tool(path, "--check")[0], 0)

    def test_merge_shifts_pids_and_labels_processes(self):
        out = os.path.join(self.dir.name, "merged.json")
        code, _ = self.run_tool(self.good, self.good, "--merge", out)
        self.assertEqual(code, 0)
        with open(out) as f:
            merged = json.load(f)
        self.assertEqual(len(merged), 2 * len(good_trace()))
        names = [ev["args"]["name"] for ev in merged
                 if ev["name"] == "process_name"]
        self.assertIn("mix/qos: control", names)
        self.assertEqual({ev["pid"] for ev in merged},
                         {1, 2, 3, 11, 12, 13})


if __name__ == "__main__":
    unittest.main()
