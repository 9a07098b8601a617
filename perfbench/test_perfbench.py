#!/usr/bin/env python3
"""The benchmark's own test: smoke runs and exact-counter repeatability.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py, then runs every workload at smoke
scale with tracing on, over seeds 1, 2, 1, 2 in that order, and checks that
- every run is correct with no failed cell (error_rate 0), and
- the exact counters (events, cache hit fraction and entry bytes, cell
  counts, attempted cells) repeat exactly for a seed.
It also checks that layer_map.json maps every per-layer metric, and that
the benchmark refuses to run, without printing a result, from a directory
holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

EXACT = ("sim.events", "cache.hit_frac", "cache.entry_bytes", "runner.cells")


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def smoke(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--scale", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_exact_counters_repeat_and_no_cell_fails(self):
        for workload in workloads():
            seen = {}
            for seed in (1, 2, 1, 2):
                result = smoke(workload, seed)
                self.assertTrue(result["correct"], (workload, seed, result))
                self.assertEqual(result["failed"], 0, (workload, seed))
                exact = {name: result["metrics"][name]["value"]
                         for name in EXACT}
                exact["attempted"] = result["attempted"]
                with self.subTest(workload=workload, seed=seed):
                    self.assertEqual(seen.setdefault(seed, exact), exact)


class LayerMap(unittest.TestCase):
    def test_maps_every_per_layer_metric_once(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = [m["name"] for m in json.load(f)["per_layer"]]
        with open(os.path.join(HERE, "layer_map.json")) as f:
            mapped = [m["metric"] for m in json.load(f)["layers"]]
        self.assertEqual(sorted(mapped), sorted(per_layer))


class IncompleteCheckout(unittest.TestCase):
    def test_refuses_without_repository_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 workloads()[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
