"""Seed-to-seed steadiness of the benchmark, measured the driver's way.

    python3 bench/spread.py [--runs 10] [--first-seed 100] [--workload W ...] [--json FILE]

Runs the ``BENCHMARK.json`` command ``--runs`` times per workload, each
time with another ``--seed``, and prints for every end-to-end metric its
median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  A metric is steady when the spread stays below a
third of its bound; the driver refuses the benchmark when a spread other
than ``setup_s``'s exceeds the bound itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="write medians and spreads here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    names = args.workload or [w["name"] for w in contract["workloads"]]
    out: dict = {}
    worst = 0.0
    for name in names:
        samples: dict[str, list[float]] = {}
        for i in range(args.runs):
            cmd = contract["command"] + [
                "--workload", name, "--seed", str(args.first_seed + i),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
            ]
            started = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            took = time.perf_counter() - started
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                return 1
            line = json.loads(done.stdout.splitlines()[-1])
            for metric, entry in line["metrics"].items():
                samples.setdefault(metric, []).append(entry["value"])
            samples.setdefault("_run_wall_s", []).append(took)
        out[name] = {}
        for entry in contract["end_to_end"]:
            values = samples[entry["name"]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            share = spread / entry["bound"]
            if entry["name"] != "setup_s":
                worst = max(worst, share)
            out[name][entry["name"]] = {"median": median, "spread": spread, "bound": entry["bound"]}
            flag = "" if share < 1 / 3 else ("  > bound/3" if share < 1 else "  > BOUND")
            print(f"{name:>20s}  {entry['name']:<28s} median {median:>12.5g} {entry['unit']:<6s}"
                  f" spread {spread:7.2%}  bound {entry['bound']:.0%}{flag}")
        print(f"{name:>20s}  wall per run: median {statistics.median(samples['_run_wall_s']):.1f} s,"
              f" max {max(samples['_run_wall_s']):.1f} s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
    return 0 if worst < 1 else 1


if __name__ == "__main__":
    sys.exit(main())
