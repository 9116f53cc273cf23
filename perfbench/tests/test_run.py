"""Tests of run.py's aggregation, on hand-made experiment records.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


def record(traced=False, ipc=0.5, events=1000.0, energy=1e9, run_s=2.0):
    return {
        "traced": traced,
        "failures": [],
        "host": {"sim_mips": 3.0, "setup_s": 0.01, "peak_rss_mb": 20.0,
                 "run_s": run_s},
        "sim": {"ipc": ipc, "eq.events_per_kinstr": events / 10,
                "power.inpkg_avg_w": 1.5},
        "raw": {"raw.events": events, "energy.total_pj": energy},
        "host_layers": ({"trace.loop_s": run_s} if traced else {}),
        "units": {"sim_mips": "MIPS", "setup_s": "s", "peak_rss_mb": "MB",
                  "ipc": "instr/cycle", "eq.events_per_kinstr": "1/kinstr",
                  "trace.loop_s": "s"},
    }


class IdentityTest(unittest.TestCase):
    def test_identical_runs_agree(self):
        self.assertEqual(run.identity_errors(record(), record()), [])

    def test_untraced_runs_must_match_exactly(self):
        errors = run.identity_errors(record(), record(energy=1e9 + 1))
        self.assertEqual(len(errors), 1)
        self.assertIn("energy.total_pj", errors[0])

    def test_traced_run_may_add_events_and_move_energy_slightly(self):
        traced = record(traced=True, events=1005.0, energy=1e9 * (1 + 5e-7))
        self.assertEqual(run.identity_errors(record(), traced), [])

    def test_traced_run_may_not_move_energy_beyond_tolerance(self):
        traced = record(traced=True, energy=1e9 * (1 + 1e-5))
        self.assertEqual(len(run.identity_errors(record(), traced)), 1)

    def test_traced_run_may_not_move_ipc(self):
        traced = record(traced=True, ipc=0.5000001)
        self.assertEqual(len(run.identity_errors(record(), traced)), 1)


class AggregationTest(unittest.TestCase):
    def test_e2e_metrics_are_medians_with_contract_units(self):
        wanted = [{"name": "sim_mips", "unit": "MIPS"},
                  {"name": "ipc", "unit": "instr/cycle"}]
        runs = [record(), record(), record()]
        runs[0]["host"]["sim_mips"] = 1.0
        runs[2]["host"]["sim_mips"] = 9.0
        out = run.e2e_metrics(wanted, runs)
        self.assertEqual(out["sim_mips"], {"value": 3.0, "unit": "MIPS"})
        self.assertEqual(out["ipc"]["value"], 0.5)

    def test_layer_metrics_take_host_figures_from_traced_runs(self):
        wanted = [{"name": "trace.loop_s", "unit": "s"},
                  {"name": "trace.overhead_frac", "unit": "frac"},
                  {"name": "eq.events_per_kinstr", "unit": "1/kinstr"}]
        out = run.layer_metrics(wanted, [record(run_s=2.0)],
                                [record(traced=True, events=1005.0,
                                        run_s=2.5)])
        self.assertEqual(out["trace.loop_s"]["value"], 2.5)
        self.assertAlmostEqual(out["trace.overhead_frac"]["value"], 0.25)
        self.assertEqual(out["eq.events_per_kinstr"]["value"], 100.0)

    def test_unit_drift_is_fatal(self):
        with self.assertRaises(SystemExit):
            run.e2e_metrics([{"name": "ipc", "unit": "IPC"}], [record()])


class ContractTest(unittest.TestCase):
    def test_contract_is_well_formed(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            contract = json.load(f)
        names = [w["name"] for w in contract["workloads"]]
        self.assertEqual(tuple(names), run.WORKLOADS)
        e2e = {m["name"] for m in contract["end_to_end"]}
        self.assertIn("setup_s", e2e)
        for m in contract["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup_bound = next(m["bound"] for m in contract["end_to_end"]
                           if m["name"] == "setup_s")
        self.assertEqual(setup_bound,
                         max(m["bound"] for m in contract["end_to_end"]))

    def test_held_out_seed_alias(self):
        parser = run.argparse.ArgumentParser()
        self.assertEqual(run.parse_seed("held-out", parser),
                         run.HELD_OUT_SEED)
        self.assertEqual(run.parse_seed("17", parser), 17)
        with self.assertRaises(SystemExit):
            run.parse_seed("-3", parser)


if __name__ == "__main__":
    unittest.main()
