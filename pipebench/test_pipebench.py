#!/usr/bin/env python3
"""pipebench's own tests: a short smoke run of every workload, traced and
untraced, plus the output oracle's negative check. Run from the root of a
checkout (the first run builds the benchmark):

    python3 pipebench/test_pipebench.py
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

PKG = Path(__file__).resolve().parent
SPEC = json.loads(Path("BENCHMARK.json").read_text())
BUILD = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "pipebench"


def run(workload, trace, pins=None, seed=7):
    cmd = [sys.executable, str(PKG / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if pins is not None:
        cmd += ["--pins", str(pins)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}"
    lines = out.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


class SpecTest(unittest.TestCase):
    def test_benchmark_json(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         {"tables64", "explain1024", "serve_mix"})
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in SPEC["end_to_end"])},
                      SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        lines, result = run(workload, trace)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual({m["name"]: m["unit"] for m in want},
                         {k: v["unit"] for k, v in result["metrics"].items()})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(any(line.startswith("# provenance host_class=") for line in lines))
        # failed_frac is printed beside the attempted count.
        self.assertTrue(any("failed_frac" in line and "attempted" in line for line in lines))
        if trace:
            self.assertTrue(any(line.startswith("ledger ") for line in lines))
            self.assertTrue(any(line.strip().startswith("untracked") for line in lines))
        else:
            for m in want:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        return result

    def test_tables64(self):
        self.check("tables64", 0)
        r = self.check("tables64", 1)
        self.assertGreater(r["metrics"]["sim.run_ms"]["value"], 0)
        self.assertGreater(r["metrics"]["exec.sweep_ms"]["value"], 0)

    def test_explain1024(self):
        self.check("explain1024", 0)
        r = self.check("explain1024", 1)
        self.assertEqual(r["metrics"]["trace.dropped"]["value"], 0)
        self.assertEqual(r["metrics"]["analysis.critpath_exact_ratio"]["value"], 1)
        self.assertGreater(r["metrics"]["analysis.critpath_ms"]["value"], 0)

    def test_serve_mix(self):
        self.check("serve_mix", 0)
        r = self.check("serve_mix", 1)
        self.assertGreater(r["metrics"]["parser.calls"]["value"], 0)
        self.assertGreater(r["metrics"]["serve.cache_entries"]["value"], 0)


class OracleTest(unittest.TestCase):
    """A perturbed pin must be reported as a failure."""

    def perturbed(self, edit):
        pins = json.loads((PKG / "pins.json").read_text())
        edit(pins)
        path = BUILD / "test-pins.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(pins))
        return path

    def test_tables64_checksum(self):
        def edit(p):
            p["tables64"]["sp/cc/p64"]["checksum"] = "0x0000000000000001"
        _, r = run("tables64", 0, self.perturbed(edit))
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)

    def test_explain1024_dynamic_count(self):
        def edit(p):
            p["explain1024"]["swm/pl/p1024"]["dynamic"] += 1
        _, r = run("explain1024", 0, self.perturbed(edit))
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)

    def test_serve_mix_static_count(self):
        def edit(p):
            p["serve_mix"]["static"]["tomcatv"]["cc"] += 1
        _, r = run("serve_mix", 0, self.perturbed(edit))
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)


if __name__ == "__main__":
    unittest.main()
