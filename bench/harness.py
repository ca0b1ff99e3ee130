"""Measurement primitives of the lifecycle benchmark.

Everything here is independent of the system under test: the closed
loop that runs one fixed op list ("chunk"), the interleaved machine-speed
calibration, percentiles, and the small statistics the record carries.

Why timings are speed-normalised
--------------------------------
The reference sandbox is a 2-core VM with noisy neighbours: the *same*
pure-Python loop swings by 1.5-2x in phases lasting 0.5-3 s, so raw
medians of back-to-back runs differ by 10-20 % with no code change.  A
~2.5 ms calibration burst is therefore interleaved with
the ops (every ``SLICE_S`` of timed work), and every latency is scaled
by ``REF_BURST_S / local burst time`` — i.e. reported as the time the op
would have taken on a machine on which the burst takes exactly
``REF_BURST_S``.  On the reference sandbox that is close to the raw
time of a quiet phase.  Raw (unscaled) medians are kept next to the
normalised ones in the ``--out`` record.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Build/scratch directory inside the checkout (the driver's name for
#: it); spilled databases and default ``--out`` files land here.
SCRATCH = os.path.join(ROOT, ".bench_build")

#: The calibration burst takes this long on the reference machine; all
#: reported timings are scaled to that speed.
REF_BURST_S = 2.5e-3

#: Timed work between two calibration bursts.
SLICE_S = 0.05

_INT_TABLE = {i: i * 7 for i in range(4096)}
_STR_KEYS = tuple(f"k{i}" for i in range(512))
_STR_TABLE = {key: i for i, key in enumerate(_STR_KEYS)}
_ROWS = [(f"p{i % 4000}", i, i % 200) for i in range(20_000)]


def burst(
    get=_INT_TABLE.get, sget=_STR_TABLE.get, keys=_STR_KEYS, rows=_ROWS,
    clock=time.perf_counter,
) -> float:
    """Seconds for a fixed mix of interpreter-bound and memory-bound work.

    Two parts of similar weight, because the neighbours' noise hits them
    differently and the workloads are mixes of both: a bytecode loop of
    int- and str-keyed dict probes over a cache-resident table (tracks
    the front door), and one ``set()`` over 20 000 three-field tuples —
    tuple hashing into a ~1 MB table (tracks scans, joins and
    copy-on-write commits; normalising a 100k-row join by the first part
    alone left 10-15 % of noise, by both 2-5 %).  No tracked container
    survives the call, so the burst does not shift the collector's
    schedule of the workload it is interleaved with.
    """
    start = clock()
    acc = 0
    for i in range(12_000):
        acc += get(i & 4095, 0) ^ i
    for key in keys:
        acc += sget(key)
    acc += len(set(rows))
    return clock() - start


def calibrate(rounds: int = 3) -> float:
    """The repo's ``repro.bench.run_all.calibrate`` workload, reimplemented
    here so cross-machine context survives refactors of ``src/``."""
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


def _smooth(bursts: list[float]) -> list[float]:
    """Running median of five: one burst hit by a scheduler hiccup must
    not rescale the ops around it."""
    n = len(bursts)
    return [
        statistics.median(bursts[max(0, i - 2): min(n, i + 3)]) for i in range(n)
    ]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an unsorted sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def digest(rows) -> str:
    """Order-independent SHA-256 of a row set."""
    hasher = hashlib.sha256()
    for line in sorted(map(repr, rows)):
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this program, in MB.

    ``VmHWM`` where ``/proc`` has it: ``ru_maxrss`` starts from the
    *launcher's* resident size at fork time, so a small workload started
    from a large driver would report the driver.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(path)
        for name in names
    )


class Workdir:
    """A private scratch directory under ``SCRATCH``, removed on exit."""

    def __enter__(self) -> str:
        os.makedirs(SCRATCH, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass(slots=True)
class Op:
    """One operation of a chunk: ``call()`` performs it through the
    system's public API and, for reads, returns the result rows."""

    kind: str  # "read" | "write"
    label: str
    call: object


@dataclass
class PassResult:
    """Latencies of one pass over a chunk, raw and speed-normalised."""

    lat: list[float]
    norm: list[float]
    wall: float
    norm_wall: float
    bursts: list[float]
    #: ``(op index, reason)`` for ops that raised or returned wrong rows.
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Median burst time relative to the reference (>1 = slower box)."""
        return statistics.median(self.bursts) / REF_BURST_S


def run_pass(ops: list[Op], check=None) -> PassResult:
    """Run ``ops`` once, closed loop, one op at a time.

    Every op is timed on its own; a calibration burst runs between
    slices of ``SLICE_S`` timed work (after every op when ops are
    longer than that) and each latency is scaled by the bursts around
    its slice.  ``check(i, rows)`` runs after op ``i``'s clock has
    stopped and returns a failure note or None: timed passes pass a
    row-count comparison, the untimed verification pass the full
    row-for-row one (see ``run.py``).
    """
    clock = time.perf_counter
    n = len(ops)
    lat = [0.0] * n
    slice_of = [0] * n
    failures: list[tuple[int, str]] = []
    slice_walls: list[float] = []
    bursts = [burst()]
    current = 0
    slice_start = clock()
    for i, op in enumerate(ops):
        start = clock()
        try:
            rows = op.call()
        except Exception as exc:  # noqa: BLE001 - a failing op is a counted result
            end = clock()
            rows = None
            failures.append((i, f"{op.label}: {type(exc).__name__}: {exc}"))
        else:
            end = clock()
        lat[i] = end - start
        slice_of[i] = current
        if check is not None and rows is not None:
            note = check(i, rows)
            if note is not None:
                failures.append((i, f"{op.label}: {note}"))
        if end - slice_start >= SLICE_S or i == n - 1:
            slice_walls.append(clock() - slice_start)
            bursts.append(burst())
            current += 1
            slice_start = clock()
    smooth = _smooth(bursts)
    factors = [
        REF_BURST_S / ((smooth[s] + smooth[s + 1]) / 2.0)
        for s in range(len(slice_walls))
    ]
    norm = [lat[i] * factors[slice_of[i]] for i in range(n)]
    return PassResult(
        lat=lat,
        norm=norm,
        wall=sum(slice_walls),
        norm_wall=sum(w * f for w, f in zip(slice_walls, factors)),
        bursts=bursts,
        failures=failures,
    )


def row_checks(expected: list):
    """``(full, count)`` check callbacks for ``run_pass`` over a chunk whose
    model answers are ``expected`` (None for writes): row for row, and —
    cheap enough for timed passes — by number of rows."""
    want_len = [None if rows is None else len(rows) for rows in expected]

    def full(i, rows):
        want = expected[i]
        if want is None or set(rows) == want:
            return None
        return f"rows differ from the model ({len(rows)} vs {len(want)})"

    def count(i, rows):
        want = want_len[i]
        return None if want is None or len(rows) == want else f"{len(rows)} rows, expected {want}"

    return full, count


@dataclass
class Tally:
    """Ops attempted and failed so far, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add_pass(self, what: str, result: PassResult) -> None:
        self.add(len(result.lat), [f"{what} op {i}: {why}" for i, why in result.failures])

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.notes += failures[:3]


def timed(fn, bursts: int = 3):
    """``(result, raw seconds, normalised seconds)`` of one long call.

    For calls that cannot be sliced (a bulk load, a spill, a first
    query): the median of ``bursts`` calibration bursts on each side
    gives the local machine speed.
    """
    before = statistics.median(burst() for _ in range(bursts))
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = statistics.median(burst() for _ in range(bursts))
    return result, elapsed, elapsed * REF_BURST_S / ((before + after) / 2.0)


def collect() -> None:
    """Full collection between repetitions (the collector stays on)."""
    gc.collect()
