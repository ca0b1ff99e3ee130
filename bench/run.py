"""The lifecycle benchmark: one command, every metric by name.

Driver form (one workload, one process, one JSON line last on stdout)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Human form (all five workloads, each in its own subprocess, untraced
then traced; prints every metric with its unit and writes the
schema-versioned record)::

    python3 bench/run.py [--seed N] [--seconds S] [--quick] [--out DIR]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that replays the same op list
decomposed into calls on each module's public functions (``layers.py``)
and reports the per-layer metrics.  See ``README.md`` for the tables.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The command may not name ``src`` (it lies outside the benchmark's
# paths), so the system under test is put on the path here.
sys.path[:0] = [p for p in (BENCH_DIR, os.path.join(ROOT, "src")) if p not in sys.path]

import harness  # noqa: E402
from harness import (  # noqa: E402
    Tally, Workdir, calibrate, collect, digest, dir_bytes, peak_rss_mb, percentile,
    quartiles, row_checks, run_pass, timed,
)

RECORD_SCHEMA = 1
#: Timed repetitions of the chunk a run makes at least (1 with --quick).
MIN_CHUNKS = 3


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def user_bytes(tables: dict) -> int:
    """Σ encoded field bytes of the loaded rows: UTF-8 length of a string,
    8 for an integer (the width of the store's id/int pages)."""
    total = 0
    for rows in tables.values():
        for row in rows:
            for value in row:
                total += len(value.encode()) if isinstance(value, str) else 8
    return total


def expected_path(name: str, seed: int) -> str:
    return os.path.join(BENCH_DIR, "expected", f"{name}.seed{seed}.json")


def chunk_stats(ops, result) -> dict:
    """The per-repetition statistics (speed-normalised and raw)."""
    out = {}
    for field, lat in (("norm", result.norm), ("raw", result.lat)):
        reads = [lat[i] for i, op in enumerate(ops) if op.kind == "read"]
        writes = [lat[i] for i, op in enumerate(ops) if op.kind == "write"]
        wall = result.norm_wall if field == "norm" else result.wall
        out[field] = {
            "read_p50_ms": percentile(reads, 0.5) * 1e3,
            "read_p90_ms": percentile(reads, 0.9) * 1e3,
            "reads_per_s": len(reads) / wall,
            "write_p50_ms": percentile(writes, 0.5) * 1e3,
            "write_p90_ms": percentile(writes, 0.9) * 1e3,
            "commits_per_s": len(writes) / sum(writes),
        }
    return out


def summarise(samples: list[float]) -> dict:
    q1, med, q3 = quartiles(samples)
    return {"value": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def set_up_instances(workload, workdir: str, tally: Tally):
    """Set the workload up several times; each fresh instance gives one
    sample of ``setup_s`` and one of the cold first call of every shape.
    Returns the last instance and the samples (normalised and raw)."""
    setup = {"norm": [], "raw": []}
    first = {"norm": [], "raw": []}
    inst = None
    for _ in range(workload.setups if workload.size == "full" else 1):
        inst = None  # let the previous instance go before building the next
        collect()
        inst, raw, norm = timed(lambda: workload.setup(workdir))
        setup["raw"].append(raw)
        setup["norm"].append(norm)
        shape_norm, shape_raw = [], []
        for label, call in workload.first_calls(inst):
            try:
                _, raw, norm = timed(call)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                tally.add(1, [f"first call of {label} raised {type(exc).__name__}: {exc}"])
                continue
            tally.add(1, [])
            shape_raw.append(raw)
            shape_norm.append(norm)
        first["raw"].append(statistics.fmean(shape_raw) * 1e3)
        first["norm"].append(statistics.fmean(shape_norm) * 1e3)
        # The bound methods in ``call`` would keep this instance alive
        # through the next set-up and double the peak RSS.
        del label, call
    return inst, setup, first


def timed_window(workload, inst, ops, check, seconds: float, min_chunks: int, tally: Tally):
    """Repetitions of the same chunk from the same state until ``seconds``
    are used up; per-repetition statistics and machine speeds."""
    chunks, speeds = [], []
    started = time.perf_counter()
    last = 0.0
    while len(chunks) < min_chunks or time.perf_counter() - started + 0.5 * last < seconds:
        collect()
        t0 = time.perf_counter()
        result = run_pass(ops, check=check)
        workload.restore(inst)
        last = time.perf_counter() - t0
        tally.add_pass("timed", result)
        chunks.append(chunk_stats(ops, result))
        speeds.append(result.speed)
    return chunks, speeds


def run_untraced(workload, seconds: float, min_chunks: int, write_expected: bool = False) -> dict:
    """Set up, verify, measure: the end-to-end record of one workload."""
    tally = Tally()
    full_check, count_check = row_checks(workload.expected())

    # One digest per op label — the SHA-256 over its reads' row digests in
    # op order — is what expected/<workload>.seed<N>.json commits.
    committed_path = expected_path(workload.name, workload.seed)
    has_expected = workload.size == "full" and os.path.exists(committed_path)
    parts: dict[str, list[str]] = {}

    def check_and_digest(i, rows):
        if workload.specs[i][0] not in ("insert", "delete", "coldinsert"):
            parts.setdefault(workload.specs[i][1], []).append(digest(rows))
        return full_check(i, rows)

    with Workdir() as workdir:
        inst, setup, first = set_up_instances(workload, workdir, tally)
        ops = workload.chunk(inst)
        # Verification pass (untimed; doubles as the warm-up that fills
        # plan/analysis caches, indexes and encoded tables): every read is
        # compared row for row with the hand-written model.
        digesting = write_expected or has_expected
        tally.add_pass("verify", run_pass(ops, check=check_and_digest if digesting else full_check))
        workload.restore(inst)
        digests = {label: digest(values) for label, values in sorted(parts.items())}
        if has_expected and not write_expected:
            with open(committed_path, encoding="utf-8") as fh:
                committed = json.load(fh)["digests"]
            tally.add(len(committed), [
                f"digest of {label} differs from expected/ (executor=tuple)"
                for label, want in committed.items() if digests.get(label) != want
            ])

        chunks, speeds = timed_window(workload, inst, ops, count_check, seconds, min_chunks, tally)
        tally.add(*workload.finish(inst))
        fallbacks = sum(inst.session.fallbacks.values())
        if inst.path is None:
            inst.session.db.spill(os.path.join(workdir, "final"))
            stored = dir_bytes(os.path.join(workdir, "final"))
        else:
            stored = dir_bytes(inst.path)

    metrics = {name: summarise([c["norm"][name] for c in chunks]) for name in chunks[0]["norm"]}
    for name in chunks[0]["raw"]:
        metrics[name]["raw"] = statistics.median(c["raw"][name] for c in chunks)
    for name, samples in (("setup_s", setup), ("first_query_p50_ms", first)):
        metrics[name] = summarise(samples["norm"])
        metrics[name]["raw"] = statistics.median(samples["raw"])
    metrics["peak_rss_mb"] = {"value": peak_rss_mb()}
    metrics["stored_bytes_per_user_byte"] = {"value": stored / user_bytes(workload.tables)}
    reads = sum(1 for op in ops if op.kind == "read")
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "size": workload.size,
        "chunks": len(chunks),
        "ops_per_chunk": len(ops),
        "reads_per_chunk": reads,
        "writes_per_chunk": len(ops) - reads,
        "speed_vs_reference": statistics.median(speeds),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ops_share": tally.failed / tally.attempted,
        "fallback_share": fallbacks / max(1, reads * (len(chunks) + 1)),
        "notes": tally.notes,
        "metrics": metrics,
        "digests": digests,
    }


def emit(record: dict, names: list[dict]) -> None:
    """Print every metric by name with its unit, then the driver's line."""
    metrics = {}
    for entry in names:
        value = record["metrics"][entry["name"]]["value"]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{record['workload']:>20s}  {entry['name']:<44s} {value:>14.6g} {entry['unit']}")
    for note in record["notes"]:
        print(f"note: {note}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "calibration_s": calibrate(),
        "ref_burst_s": harness.REF_BURST_S,
    }


def run_one(args, contract) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    size = "quick" if args.quick else "full"
    if args.write_expected:
        from repro.compiler.options import ExecOptions

        workload = WORKLOADS[args.workload](args.seed, "full", ExecOptions(executor="tuple"))
        record = run_untraced(workload, 0, 1, write_expected=True)
        if record["failed"]:
            print("\n".join(record["notes"]), file=sys.stderr)
            return 1
        os.makedirs(os.path.dirname(expected_path(args.workload, args.seed)), exist_ok=True)
        with open(expected_path(args.workload, args.seed), "w", encoding="utf-8") as fh:
            json.dump({
                "schema": RECORD_SCHEMA, "workload": args.workload, "seed": args.seed,
                "generated_with": 'ExecOptions(executor="tuple")',
                "digests": record["digests"],
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {expected_path(args.workload, args.seed)}")
        return 0
    if args.trace:
        import layers

        record = layers.run_traced(WORKLOADS[args.workload](args.seed, size), args.out)
        names = contract["per_layer"]
        for entry in names:
            # A layer this workload never enters did no work: 0.
            record["metrics"].setdefault(entry["name"], {"value": 0.0})
    else:
        min_chunks = 1 if args.quick else MIN_CHUNKS
        seconds = 0 if args.quick else args.seconds
        record = run_untraced(WORKLOADS[args.workload](args.seed, size), seconds, min_chunks)
        names = contract["end_to_end"]
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    emit(record, names)
    return 0 if record["failed"] == 0 else 1


def run_all(args, contract) -> int:
    """Every workload in its own subprocess (clean caches, own peak RSS):
    the untraced run, then the traced one; one aggregated record."""
    out = args.out or os.path.join(harness.SCRATCH, "out")
    os.makedirs(out, exist_ok=True)
    record = {
        "schema": RECORD_SCHEMA, "benchmark": "lifecycle", "seed": args.seed,
        "seconds": args.seconds, "quick": args.quick, "environment": environment(),
        "workloads": {},
    }
    status = 0
    traces = (0, 1) if args.trace is None else (args.trace,)
    for entry in contract["workloads"]:
        name = entry["name"]
        merged: dict = {}
        for trace in traces:
            path = os.path.join(out, f"{name}.trace{trace}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--record", path, "--out", out]
            if args.quick:
                cmd.append("--quick")
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            if done.returncode != 0:
                status = 1
                sys.stderr.write(done.stderr)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    merged["traced" if trace else "end_to_end"] = json.load(fh)
                os.remove(path)
        record["workloads"][name] = merged
    target = os.path.join(out, "BENCH_lifecycle.json")
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"record: {target}")
    return status


def pin_hash_seed(seed: int) -> None:
    """Restart the interpreter once with ``PYTHONHASHSEED`` derived from
    ``--seed``.  String hashing is randomised per process by default, which
    reorders every set of rows: pickled dictionaries change size by a few
    bytes and index buckets fill in another order.  With the seed pinned,
    the same ``--seed`` gives the same inputs *in the same order*, and the
    count-type metrics repeat bit for bit."""
    wanted = str(seed % 4294967296)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None, choices=(0, 1),
                        help="1 = the traced per-layer run, 0 = end-to-end only")
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition of ~1/20-scale inputs (smoke)")
    parser.add_argument("--out", help="directory for the record and trace_<workload>.jsonl")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/<workload>.seed<N>.json with executor=tuple")
    args = parser.parse_args()
    pin_hash_seed(args.seed)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload is None:
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    status = main()
    # The sharded probe forks pool workers; leave none behind.
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    sys.exit(status)
