"""Runs every workload untraced and traced and prints one report.

    python3 bench/report.py [--seed 1] [--seconds 20] [--save bench/baseline.json]

For each workload it prints the end-to-end metrics with their units, the
oracle's verdict and any failures by message; then one per-layer table from
the traced runs, including the tracing overhead; then the layer-split checks
the workloads were chosen for.  `--save` writes all of it as JSON, with the
interpreter and machine it was measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("check", "compress", "sat")
RUN_TIMEOUT_S = 300


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=BENCH_DIR.parent)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command[1:])} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the oracle's lines, without the per-metric lines that follow them
    result["notes"] = [line for line in lines[:-1]
                       if not line.split(" ")[0] in result["metrics"]]
    return result


def layer_checks(traced: dict) -> list[tuple[str, bool]]:
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    return [
        ("linalg self time is the majority on check",
         value("check", "linalg.self_share") > 0.5),
        ("linalg.solve.calls is 0 on sat",
         value("sat", "linalg.solve.calls") == 0),
        ("etr plus formula self time is the majority on sat",
         value("sat", "etr.self_share") + value("sat", "formula.self_share") > 0.5),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--save", help="write the report as JSON to this file")
    args = parser.parse_args(argv)

    plain, traced = {}, {}
    for workload in WORKLOADS:
        plain[workload] = run_one(workload, args.seed, args.seconds, 0)
        traced[workload] = run_one(workload, args.seed, args.seconds, 1)

    for workload in WORKLOADS:
        result = plain[workload]
        print(f"== {workload}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for line in result["notes"]:
            print("   " + line)
        for name, unit in END_TO_END:
            print(f"   {name:22s} {result['metrics'][name]['value']:>12.6g} {unit}")

    print("\n== per layer (traced runs)")
    print(f"   {'metric':40s}" + "".join(f"{w:>14s}" for w in WORKLOADS) + "  unit")
    for name, unit in PER_LAYER:
        cells = []
        for workload in WORKLOADS:
            absent = any(line.split()[:2] == ["absent:", name]
                         for line in traced[workload]["notes"])
            value = traced[workload]["metrics"][name]["value"]
            cells.append(f"{'absent' if absent else format(value, '.6g'):>14s}")
        print(f"   {name:40s}" + "".join(cells) + f"  {unit}")
    for workload in WORKLOADS:
        for line in traced[workload]["notes"]:
            print(f"   {workload}: {line.strip()}")

    print("\n== layer split")
    checks = layer_checks(traced)
    for text, ok in checks:
        print(f"   {'ok  ' if ok else 'FAIL'} {text}")

    if args.save:
        report = {
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": {"python": platform.python_version(),
                        "platform": platform.platform(),
                        "processor": platform.processor(),
                        "cpus": os.cpu_count()},
            "end_to_end": plain,
            "per_layer": traced,
            "layer_split": {text: ok for text, ok in checks},
        }
        with open(args.save, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0 if all(ok for _, ok in checks) and all(
        r["correct"] for r in (*plain.values(), *traced.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
