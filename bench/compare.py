"""Compare two lifecycle records, one row per (workload, end-to-end metric).

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two back-to-back
run sets), ``B`` the candidate.  Each row gives both medians with their
quartiles across repetitions, the ratio *with its base* (``B/A``), the
bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is within the bound of A
``regressed``   B is worse than A by more than the bound
``improved``    B is better than A by more than the bound
``unresolved``  the spread across repetitions (either side) exceeds the
                bound, so the difference cannot be told from noise

A second table lists the count-type metrics, which must repeat exactly
between two runs of one commit on one seed.  Exit status is 1 when any
row is ``regressed`` or a count differs, else 0 — ``improved`` and
``unresolved`` are reported, not failed (a claim of a gain needs ten
paired runs, see README.md).
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Metrics that count work or bytes: equal inputs give equal values.
COUNT_METRICS = (
    "stored_bytes_per_user_byte",
    "bench.failed_ops_share",
    "dbpl.session.fallback_share",
    "bench.unresolved_probes",
    "compiler.plans.rows_scanned_per_row_out",
    "compiler.plans.qerror_p50",
    "compiler.fixpoint.iterations",
    "compiler.fixpoint.replans",
    "compiler.fixpoint.rows_derived_per_row_out",
    "dbpl.serving.plan_cache_hit_share",
    "dbpl.serving.plan_cache_evictions",
    "dbpl.serving.plan_cache_invalidations",
    "dbpl.subscriptions.recompute_share",
    "dbpl.subscriptions.events_per_commit",
    "relational.storage.bytes_on_disk",
    "relational.storage.partitions_pruned_share",
    "relational.storage.rows_decoded_per_row_out",
    "relational.storage.bytes_read_per_row_out",
)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spread_of(entry: dict) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    ratio = b["value"] / a["value"]
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if max(spread_of(a), spread_of(b)) > bound:
        return "unresolved", ratio
    if worse_by > bound:
        return "regressed", ratio
    if worse_by < -bound:
        return "improved", ratio
    return "ok", ratio


def fmt(entry: dict) -> str:
    if "q1" in entry:
        return f"{entry['value']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}]"
    return f"{entry['value']:.5g}"


def compare(a: dict, b: dict, contract: dict) -> tuple[list[str], int]:
    lines = [
        f"base A: seed {a['seed']}, git {a['environment'].get('git_sha')}, "
        f"calibration {a['environment']['calibration_s']:.4f} s",
        f"cand B: seed {b['seed']}, git {b['environment'].get('git_sha')}, "
        f"calibration {b['environment']['calibration_s']:.4f} s",
        "",
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | B/A | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    bad = 0
    tally: dict[str, int] = {}
    for workload in contract["workloads"]:
        name = workload["name"]
        ma = a["workloads"][name]["end_to_end"]["metrics"]
        mb = b["workloads"][name]["end_to_end"]["metrics"]
        for metric in contract["end_to_end"]:
            ea, eb = ma[metric["name"]], mb[metric["name"]]
            word, ratio = verdict(ea, eb, metric["better"], metric["bound"])
            tally[word] = tally.get(word, 0) + 1
            bad += word == "regressed"
            lines.append(
                f"| {name} | {metric['name']} | {metric['unit']} | {fmt(ea)} | {fmt(eb)} "
                f"| {ratio:.3f} of A | {metric['bound']:.0%} | {word} |"
            )
    lines += ["", "verdicts: " + ", ".join(f"{n} {word}" for word, n in sorted(tally.items())), ""]

    lines += ["| workload | count-type metric | A | B | same |", "|---|---|---|---|---|"]
    for workload in contract["workloads"]:
        name = workload["name"]
        sides = []
        for record in (a, b):
            merged = dict(record["workloads"][name]["end_to_end"]["metrics"])
            merged.update(record["workloads"][name].get("traced", {}).get("metrics", {}))
            sides.append(merged)
        for metric in COUNT_METRICS:
            if metric not in sides[0] or metric not in sides[1]:
                continue
            va, vb = sides[0][metric]["value"], sides[1][metric]["value"]
            same = va == vb
            bad += (not same) and a["seed"] == b["seed"]
            lines.append(f"| {name} | {metric} | {va:.8g} | {vb:.8g} | {'yes' if same else 'NO'} |")
    if a["seed"] != b["seed"]:
        lines += ["", "(different seeds: counts are expected to differ and are not failed)"]
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    contract = load(os.path.join(ROOT, "BENCHMARK.json"))
    lines, bad = compare(load(argv[0]), load(argv[1]), contract)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
