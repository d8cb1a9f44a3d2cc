#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, at a
tiny geometry (--smoke) for one second. Checks that the result line has
exactly the contract's keys, that no operation failed, that every metric
BENCHMARK.json names is present with its unit, that latency sample counts
and the run context are printed, and that each workload's traced run
measures the layers it calls.

Run from the root of the repository:

    python3 perfbench/tests/test_smoke.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics each workload's traced run must measure (non-zero).
MEASURED = {
    "asr_offline": [
        "speech.frontend.us_per_frame", "runtime.session.us_per_frame",
        "speech.ctc.us_per_frame", "runtime.layer.0.us_per_step",
        "runtime.layer.1.us_per_step", "runtime.classifier.us_per_step",
        "runtime.kernel.circulant_fft.us_per_call",
        "runtime.kernel.circulant_fft.gmacs",
        "runtime.kernel.circulant_fft.mac_per_byte", "trace.spans"],
    "asr_stream": [
        "speech.frontend.us_per_frame", "runtime.session.step_us",
        "runtime.artifact.load_ms", "runtime.layer.0.us_per_step",
        "runtime.kernel.fixed_point.us_per_call",
        "runtime.kernel.fixed_point.gmacs", "trace.spans"],
    "serve_bimodal": [
        "serve.queue_ms_p50", "serve.compute_ms_p50", "serve.batch_mean",
        "gen.late_ms_max", "gen.offered_rps", "gen.achieved_rps",
        "runtime.artifact.load_ms", "runtime.kernel.fixed_point.us_per_call",
        "trace.spans"],
    "train_circulant": [
        "nn.trainer.epoch_s", "nn.trainer.us_per_frame",
        "nn.evaluate.us_per_frame", "nn.linear.circulant.fwd_us",
        "nn.linear.circulant.bwd_us", "trace.spans"],
}

CONTEXT = ("simd_active", "ERNN_SIMD", "hardware_concurrency", "compiler",
           "build_type", "commit", "source_digest", "loadavg_start",
           "cpu_steal_pct")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_is_covered(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(MEASURED))

    def check(self, workload, trace):
        info, result = run(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

        for key in CONTEXT:
            self.assertIn(key, info["info"])
        self.assertEqual(info["info"]["build_type"], "Release")
        if trace:
            for name in MEASURED[workload]:
                self.assertNotEqual(metrics[name]["value"], 0, name)
        else:
            for m in declared:
                self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
            self.assertGreater(info["facts"]["lat.samples"], 0)
            self.assertIn("lat.beyond_p99", info["facts"])
        if workload == "serve_bimodal":
            for key in ("gen.late_ms_max", "gen.offered_rps",
                        "gen.achieved_rps"):
                self.assertIn(key, info["facts"])


def add_cases():
    for workload in MEASURED:
        for trace in (0, 1):
            def case(self, w=workload, t=trace):
                self.check(w, t)
            setattr(SmokeTest, f"test_{workload}_trace{trace}", case)


add_cases()

if __name__ == "__main__":
    unittest.main()
