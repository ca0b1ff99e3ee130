"""Regenerate every experiment table: ``python -m repro.bench.run_all``.

Writes each table to stdout and to ``results/<id>.txt`` under the
repository root (or the directory given as the first argument), plus a
machine-readable ``BENCH_<id>.json`` per experiment carrying the
wall-clock, the experiment's own metrics (scanned-row counters, speedup
factors — whatever the sweep recorded via ``Table.metric``), and a
**calibration** measurement: the time of a fixed pure-Python workload on
the same interpreter and machine.  The CI bench-gate divides wall-clocks
by the calibration before comparing against committed baselines, so a
slower runner does not read as a regression.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from .experiments import ALL_EXPERIMENTS

#: Bump when the JSON schema changes (the gate refuses mixed versions).
BENCH_SCHEMA = 1


def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed pure-Python workload (best of ``rounds``).

    Deliberately shaped like the executor's hot loops — dict probes,
    list comprehensions, tuple hashing — so the normalization tracks the
    machine/interpreter speed that actually matters here.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        table = {i: (i, i % 97) for i in range(20_000)}
        get = table.get
        pairs = [(get(i % 30_000), i) for i in range(60_000)]
        acc = set()
        acc.update((b, a) for a, b in pairs if a is not None)
        best = min(best, time.perf_counter() - start)
    return best


def bench_record(name: str, elapsed: float, calibration: float, metrics: dict) -> dict:
    normalized = elapsed / calibration if calibration > 0 else elapsed
    return {
        "schema": BENCH_SCHEMA,
        "experiment": name,
        "elapsed_s": round(elapsed, 4),
        "calibration_s": round(calibration, 4),
        "normalized": round(normalized, 2),
        "metrics": {k: round(v, 4) for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    only = set(argv[1:])
    unknown = sorted(only - set(ALL_EXPERIMENTS))
    if unknown:
        print(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"valid ids: {', '.join(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    out_dir = pathlib.Path(argv[0]) if argv else pathlib.Path("results")
    out_dir.mkdir(parents=True, exist_ok=True)
    calibration = calibrate()
    print(f"[calibration: {calibration * 1000:.1f} ms]\n")
    for name, runner in ALL_EXPERIMENTS.items():
        if only and name not in only:
            continue
        start = time.perf_counter()
        table = runner()
        elapsed = time.perf_counter() - start
        text = table.render()
        print(text)
        print(f"[{name} completed in {elapsed:.1f}s]\n")
        (out_dir / f"{name}.txt").write_text(text + "\n")
        record = bench_record(
            name, elapsed, calibration, getattr(table, "metrics", {})
        )
        (out_dir / f"BENCH_{name}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
