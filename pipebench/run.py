#!/usr/bin/env python3
"""pipebench runner: builds the benchmark from source, runs one workload,
checks its output and prints it.

    python3 pipebench/run.py --workload tables64|explain1024|serve_mix \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures pipebench/CMakeLists.txt
(which builds ../src too) into $CARGO_TARGET_DIR/pipebench, or
.bench_build/pipebench when that variable is unset, then runs the binary.
serve_mix's offered rate is read from its entry in BENCHMARK.json ("open
loop at N req/s"). The traced run writes its spans next to the binary.

The last line of stdout is one JSON object:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). Any build, run or format failure exits
non-zero without printing that line.
"""

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

PKG = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"pipebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the pipebench target; returns the binary path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
            subprocess.run(
                ["cmake", "-S", str(PKG), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "pipebench", "-j", jobs],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "pipebench"


def serve_rate(spec):
    for w in spec["workloads"]:
        if w["name"] == "serve_mix":
            m = re.search(r"open loop at (\d+) req/s", w["why"])
            if m:
                return m.group(1)
    raise ValueError("BENCHMARK.json: no 'open loop at N req/s' in serve_mix's why")


def check(result, spec, trace):
    """The last line must be the result object with every named metric."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    want = spec["per_layer" if trace else "end_to_end"]
    for m in want:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            raise ValueError(f"metric {m['name']} missing or not in {m['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in want}
    if extra:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(extra)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["tables64", "explain1024", "serve_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short run with lowered sample minimums (the benchmark's own tests)")
    ap.add_argument("--pins", default=str(PKG / "pins.json"),
                    help="oracle pins (tests pass a perturbed copy)")
    args = ap.parse_args()

    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "pipebench"
        binary = build(build_dir)
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pins", args.pins]
        if args.workload == "serve_mix":
            cmd += ["--rate", serve_rate(spec)]
        if args.smoke:
            cmd.append("--smoke")
        if args.trace:
            cmd += ["--spans", str(build_dir / f"spans-{args.workload}-seed{args.seed}.json")]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        if run.returncode != 0:
            sys.stderr.write(run.stdout)
            log(f"{args.workload} exited with {run.returncode}")
            return run.returncode
        lines = run.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        check(result, spec, args.trace)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"failed: {e}")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
