#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds si_perfbench through perfbench/run.py, then checks that the same
seed gives byte-identical generated inputs, that every emitted metric is
declared in BENCHMARK.json with the same unit, and that a corrupted
reference makes the output check fail.  Takes about a minute.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def setUpModule():
    run.build()
    run.OUT_DIR.mkdir(exist_ok=True)


def bench(*args):
    return subprocess.run([str(run.BINARY), *args, "--repo", str(ROOT), "--out-dir", str(run.OUT_DIR)],
                          capture_output=True, text=True, timeout=170)


def short_run(workload, trace, *extra):
    """A short run of one workload; returns its result object."""
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
                 *extra)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for w in run.WORKLOADS:
            first = bench("--workload", w, "--seed", "7", "--dump-inputs")
            second = bench("--workload", w, "--seed", "7", "--dump-inputs")
            self.assertEqual(first.returncode, 0, first.stderr)
            self.assertTrue(first.stdout)
            self.assertEqual(first.stdout, second.stdout, w)

    def test_seed_changes_the_request_stream(self):
        a = bench("--workload", "serve_mixed", "--seed", "7", "--dump-inputs").stdout
        b = bench("--workload", "serve_mixed", "--seed", "8", "--dump-inputs").stdout
        self.assertNotEqual(a, b)


class MetricNames(unittest.TestCase):
    def test_emitted_metrics_are_declared(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in doc["per_layer"]}}
        for w in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    res = short_run(w, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                                     declared[trace])
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))


class CorruptedReference(unittest.TestCase):
    def corrupted_run(self, workload, corrupt):
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as d:
            shutil.copytree(BENCH / "reference", d, dirs_exist_ok=True)
            path = pathlib.Path(d) / f"{workload}.json"
            doc = json.loads(path.read_text())
            for variant in doc["variants"]:
                corrupt(variant)
            path.write_text(json.dumps(doc))
            return short_run(workload, 0, "--ref-dir", d)

    def test_waveform_reference(self):
        def corrupt(v):
            v["sine"]["out_p"][3] += 1e-3

        res = self.corrupted_run("tran_table2", corrupt)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_dynamic_range_and_mc_reference(self):
        def corrupt(v):
            v["dr_plain_db"] += 0.5
            v["mc"]["sigma"] *= 1.0 + 1e-12

        res = self.corrupted_run("sweep_yield", corrupt)
        self.assertFalse(res["correct"])
        # Two of the three checks per round fail: the plain DR and the MC statistics.
        self.assertGreaterEqual(res["failed"] * 3, res["attempted"] * 2)


if __name__ == "__main__":
    unittest.main()
