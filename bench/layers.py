"""The traced run: where a millisecond goes, layer by layer.

The runtime under ``src/`` contains no clock (ROADMAP item 1), so this
file records spans *from the benchmark* around calls into each module's
public functions.  One chunk of the workload is replayed with every op
decomposed into the calls the front door makes:

* set former:  ``parse_expression`` -> ``Scope.from_session``/``stamp`` ->
  ``analyze_query`` (behind a text-keyed LRU, as the session keeps one) ->
  ``prune`` -> ``parameterize`` -> ``stats.epoch`` -> ``PlanCache.get`` ->
  on a miss ``PreparedPlan(...)`` -> ``PreparedPlan.run``
* constructed range:  parse -> analyze -> ``instantiate`` ->
  ``is_system_positive`` -> ``compile_fixpoint`` -> ``CompiledFixpoint.run``
* prepared read:  ``PreparedQuery.plan.run(constants)``
* cold read:  ``open_database`` -> the set-former steps on the fresh handle;
  the store's share of ``run`` is estimated by repeating the plan's
  pushed-down scans directly on ``RelationStore.scan`` (a twin, below)
* write:  the commit itself, and the same commit on a *twin* database
  without subscribers; the difference is subscription maintenance.

A span is ``{name, layer, start_ns, end_ns, parent, op_id}``, kept in
memory and written to ``<out>/trace_<workload>.jsonl`` when the run
ends.  A layer's self time is its spans' duration minus the part their
children cover.  Untraced and traced passes alternate, so
``trace.coverage`` (decomposed time / real time of the same reads) and
``trace.overhead_share`` compare like with like.

Every callable is resolved by name at start-up.  A symbol a later change
removed makes the metrics that need it read 0 with a printed note and
counts in ``bench.unresolved_probes`` — never a crash, because changes
that claim a gain may not edit this directory.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import OrderedDict
from functools import partial

import harness
from harness import Op, Tally, Workdir, collect, dir_bytes, percentile, row_checks, run_pass, timed

#: name -> (module, attribute) of every public callable the decomposed
#: replay and the probes use.
SYMBOLS = {
    "parse_expression": ("repro.dbpl.parser", "parse_expression"),
    "parse_module": ("repro.dbpl.parser", "parse_module"),
    "Scope": ("repro.analysis.checks", "Scope"),
    "analyze_query": ("repro.analysis.checks", "analyze_query"),
    "parameterize": ("repro.dbpl.serving", "parameterize"),
    "range_query": ("repro.dbpl.serving", "range_query"),
    "PlanCache": ("repro.dbpl.serving", "PlanCache"),
    "PreparedPlan": ("repro.dbpl.serving", "PreparedPlan"),
    "ExecOptions": ("repro.compiler.options", "ExecOptions"),
    "compile_query": ("repro.compiler", "compile_query"),
    "estimate_query": ("repro.compiler", "estimate_query"),
    "ExecutionContext": ("repro.compiler", "ExecutionContext"),
    "PlanStats": ("repro.compiler", "PlanStats"),
    "executor_names": ("repro.compiler", "executor_names"),
    "ShardConfig": ("repro.compiler", "ShardConfig"),
    "compile_fixpoint": ("repro.compiler", "compile_fixpoint"),
    "instantiate": ("repro.constructors.instantiate", "instantiate"),
    "is_system_positive": ("repro.constructors.positivity", "is_system_positive"),
    "FixpointStats": ("repro.constructors.engines", "FixpointStats"),
    "Constructed": ("repro.calculus.ast", "Constructed"),
    "Query": ("repro.calculus.ast", "Query"),
    "open_database": ("repro.relational", "open_database"),
    "RelationStore": ("repro.relational.storage", "RelationStore"),
    "Session": ("repro.dbpl", "Session"),
}

#: The session's analysis cache is private; the replay keeps its own LRU
#: of the same size in front of ``analyze_query``.
ANALYSIS_CACHE_SIZE = 256

#: Layers whose self-time share of read (or commit) time is reported as
#: ``trace.share.<layer>``.
LAYERS = (
    "dbpl.parser", "analysis", "dbpl.serving", "dbpl.session",
    "relational.stats", "compiler.plans", "compiler.executors",
    "compiler.fixpoint", "constructors", "datalog.engine",
    "relational.storage", "relational.relation", "dbpl.subscriptions",
)


class Missing(Exception):
    """A probe needs a symbol that no longer resolves."""


class Symbols:
    def __init__(self) -> None:
        self.notes: list[str] = []
        self._found: dict = {}
        for name, (module, attr) in SYMBOLS.items():
            try:
                self._found[name] = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError) as exc:
                self.notes.append(f"unresolved {module}.{attr}: {exc}")

    def __getattr__(self, name: str):
        try:
            return self._found[name]
        except KeyError:
            raise Missing(name) from None


class Tracer:
    """In-memory spans; ``span`` is a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent, op_id]
        self.stack: list[int] = []
        self.op_id = -1

    def span(self, layer: str, name: str) -> "_Span":
        return _Span(self, layer, name)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()

    def self_times(self) -> dict[int, dict[str, int]]:
        """op_id -> layer -> self nanoseconds."""
        covered = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[int, dict[str, int]] = {}
        for index, (_, layer, start, end, _, op_id) in enumerate(self.spans):
            per_op = out.setdefault(op_id, {})
            per_op[layer] = per_op.get(layer, 0) + (end - start) - covered[index]
        return out

    def durations(self, layer: str, name: str) -> list[tuple[int, int]]:
        """``(op_id, nanoseconds)`` of every span called ``layer``/``name``."""
        return [
            (s[5], s[3] - s[2]) for s in self.spans if s[0] == name and s[1] == layer
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, layer, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": f"{layer}.{name}", "layer": layer,
                    "start_ns": start, "end_ns": end, "parent": parent, "op_id": op_id,
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, layer: str, name: str) -> None:
        self.tracer = tracer
        stack = tracer.stack
        self.index = len(tracer.spans)
        tracer.spans.append(
            [name, layer, 0, 0, stack[-1] if stack else -1, tracer.op_id]
        )

    def __enter__(self) -> None:
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][2] = time.perf_counter_ns()

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][3] = time.perf_counter_ns()
        self.tracer.stack.pop()


class Replay:
    """The decomposed twins of the workload's ops, bound to one instance."""

    def __init__(self, sym: Symbols, tracer: Tracer, workload, inst) -> None:
        self.sym = sym
        self.tracer = tracer
        self.workload = workload
        self.inst = inst
        self.options = sym.ExecOptions()
        self.plan_cache = sym.PlanCache(128)
        self.analysis_cache: OrderedDict = OrderedDict()
        #: Counters of the constructed reads: iterations, replans,
        #: tuples derived, rows out.
        self.fixpoint = {"iterations": 0, "replans": 0, "derived": 0, "rows_out": 0, "runs": 0}
        #: StoreCounters snapshots of the cold reads.
        self.store_counters: list[dict] = []
        self.cold_rows_out = 0

    def reset_counters(self) -> None:
        self.store_counters.clear()
        self.cold_rows_out = 0
        for key in self.fixpoint:
            self.fixpoint[key] = 0

    def bind(self, index: int, spec: tuple) -> Op:
        op, label = spec[0], spec[1]
        session = self.inst.session
        if op == "query":
            call = partial(self._op, index, partial(self.query, session, spec[2]))
            return Op("read", label, call)
        if op == "prepared":
            plan = self.inst.handles[spec[2]].plan
            call = partial(self._op, index, partial(self.prepared, plan, spec[3]))
            return Op("read", label, call)
        if op == "datalog":
            call = partial(self._op, index, partial(self.datalog, spec[2]))
            return Op("read", label, call)
        if op == "cold":
            call = partial(self._op, index, partial(self.cold, self.inst.path, spec[2]))
            return Op("read", label, call)
        # Writes run as they are; their decomposition is the twin pass.
        plain = self.workload.bind(self.inst, spec)
        return Op("write", label, partial(self._op, index, partial(self.commit, plain.call)))

    def _op(self, index: int, call):
        self.tracer.op_id = index
        return call()

    # -- reads ---------------------------------------------------------------

    def query(self, session, text: str, root: str = "query"):
        sym, span = self.sym, self.tracer.span
        with span("dbpl.session", root):
            with span("dbpl.parser", "parse_expression"):
                node = sym.parse_expression(text)
            with span("analysis", "scope"):
                scope = sym.Scope.from_session(session)
                stamp = scope.stamp()
            key = (text, stamp)
            result = self.analysis_cache.get(key)
            if result is None:
                with span("analysis", "analyze_query"):
                    result = sym.analyze_query(node, scope)
                self.analysis_cache[key] = result
                while len(self.analysis_cache) > ANALYSIS_CACHE_SIZE:
                    self.analysis_cache.popitem(last=False)
            else:
                self.analysis_cache.move_to_end(key)
            if isinstance(node, sym.Constructed):
                return self._construct(session.db, node)
            if not isinstance(node, sym.Query):
                with span("dbpl.serving", "range_query"):
                    node = sym.range_query(node)
            with span("analysis", "prune"):
                node = result.prune(node)
            with span("dbpl.serving", "parameterize"):
                shape, constants = sym.parameterize(node)
            with span("relational.stats", "epoch"):
                epoch = session.db.stats.epoch()
            with span("dbpl.serving", "cache_get"):
                cache_key = (shape,) + self.options.cache_key()
                plan = self.plan_cache.get(cache_key, epoch)
            if plan is None:
                with span("compiler.plans", "prepare"):
                    plan = sym.PreparedPlan(
                        session.db, shape, constants, epoch=epoch, options=self.options
                    )
                    plan = self.plan_cache.put(cache_key, plan, epoch)
            with span("compiler.executors", "run"):
                return plan.run(constants)

    def _construct(self, db, node):
        sym, span = self.sym, self.tracer.span
        with span("constructors", "instantiate"):
            system = sym.instantiate(db, node)
        with span("constructors", "positivity"):
            sym.is_system_positive(system)
        with span("compiler.fixpoint", "compile"):
            program = sym.compile_fixpoint(db, system, options=self.options)
        stats = sym.FixpointStats()
        with span("compiler.fixpoint", "run"):
            rows = set(program.run(100_000, stats)[system.root])
        counters = self.fixpoint
        counters["runs"] += 1
        counters["iterations"] += stats.iterations
        counters["replans"] += program.replans
        counters["derived"] += stats.tuples_derived
        counters["rows_out"] += len(rows)
        return rows

    def prepared(self, plan, constants):
        with self.tracer.span("dbpl.session", "execute"):
            with self.tracer.span("compiler.executors", "run"):
                return plan.run(tuple(constants))

    def datalog(self, edges):
        with self.tracer.span("datalog.engine", "solve"):
            return self.workload._datalog(edges)

    def cold(self, path: str, text: str):
        sym, span = self.sym, self.tracer.span
        with span("dbpl.session", "cold_query"):
            with span("relational.storage", "open_database"):
                db = sym.open_database(path)
            stores = [rel.cold_store for rel in db.relations.values()]
            session = sym.Session(db)
            # A fresh handle has an empty plan cache of its own.
            self.plan_cache = sym.PlanCache(128)
            rows = self.query(session, text, root="query_on_handle")
        for store in stores:
            if store is not None:
                self.store_counters.append(store.counters.snapshot())
        self.cold_rows_out += len(rows)
        return rows

    def commit(self, call):
        with self.tracer.span("dbpl.session", "commit"):
            return call()


class Probes:
    """Direct measurements of single layers on the workload's own shapes.

    Every public method fills ``self.values`` for the metrics it owns;
    ``run`` guards each one, so a missing symbol or a raising probe
    zeroes those metrics instead of ending the run.
    """

    def __init__(self, sym: Symbols, workload, values: dict, notes: list[str]) -> None:
        self.sym = sym
        self.workload = workload
        self.values = values
        self.notes = notes
        self.unresolved = 0
        #: Samples per repeated probe (one is enough for the smoke run).
        self.reps = 3 if workload.size == "full" else 1
        #: Summed ``StoreCounters`` of the cold reads (+ ``rows_out``); where
        #: nothing was read cold, those of the selective-scan probe.
        self.store_totals: dict = {}

    def run(self, names: tuple[str, ...], fn, *args) -> None:
        try:
            fn(*args)
        except Missing as exc:
            self.unresolved += len(names)
            self.notes.append(f"{', '.join(names)}: symbol {exc} is gone; reported as 0")
        except Exception as exc:  # noqa: BLE001 - a probe must not end the run
            self.unresolved += len(names)
            self.notes.append(f"{', '.join(names)}: {type(exc).__name__}: {exc}; reported as 0")

    # -- shapes: (parsed+pruned+parameterized) set formers of the workload -----

    def shapes(self) -> list[tuple]:
        """``(label, shape, constants)`` of the workload's set-former reads."""
        sym = self.sym
        out, seen = [], set()
        for spec in self.workload.specs:
            if spec[0] == "query" or spec[0] == "cold":
                text = spec[2]
            elif spec[0] == "prepared":
                text = self.workload.templates[spec[2]] % spec[3]
            else:
                continue
            if spec[1] in seen:
                continue
            node = sym.parse_expression(text)
            if isinstance(node, sym.Constructed):
                continue
            seen.add(spec[1])
            if not isinstance(node, sym.Query):
                node = sym.range_query(node)
            shape, constants = sym.parameterize(node)
            out.append((spec[1], shape, constants))
        return out

    @staticmethod
    def params_of(constants) -> dict:
        return {f"__bind_{i}": value for i, value in enumerate(constants)}

    def parser_and_analysis(self, session) -> None:
        sym = self.sym
        v = self.values
        _, _, norm = timed(lambda: [sym.parse_module(self.workload.schema) for _ in range(5)])
        v["dbpl.parser.module_parse_ms"] = norm / 5 * 1e3
        texts = sorted({spec[2] for spec in self.workload.specs if spec[0] in ("query", "cold")})[:50]
        if not texts:
            texts = [self.workload.templates[h] % c[0] for h, c in self.workload.constants.items()]
        nodes = [sym.parse_expression(text) for text in texts]
        scope = sym.Scope.from_session(session)
        _, _, norm = timed(lambda: [sym.analyze_query(node, scope) for node in nodes])
        v["analysis.analyze_us"] = norm / len(nodes) * 1e6

    def planning(self, session) -> None:
        sym, v, db = self.sym, self.values, session.db
        shapes = self.shapes()
        if not shapes:
            return
        prepare, compile_, qerrors, scanned, emitted = [], [], [], 0, 0
        for _, shape, constants in shapes:
            _, _, norm = timed(lambda: sym.PreparedPlan(db, shape, constants, options=sym.ExecOptions()))
            prepare.append(norm)
            params = self.params_of(constants)
            plan, _, norm = timed(lambda: sym.compile_query(db, shape, params, options=sym.ExecOptions()))
            compile_.append(norm)
            stats = sym.PlanStats()
            rows = plan.execute(sym.ExecutionContext(db, params, stats=stats))
            estimate = max(1.0, sym.estimate_query(db, shape, params)[1])
            actual = max(1.0, float(len(rows)))
            qerrors.append(max(estimate / actual, actual / estimate))
            scanned += stats.rows_scanned
            emitted += len(rows)
        v["dbpl.serving.prepare_ms"] = statistics.fmean(prepare) * 1e3
        v["compiler.plans.compile_ms"] = statistics.fmean(compile_) * 1e3
        v["compiler.plans.qerror_p50"] = statistics.median(qerrors)
        v["compiler.plans.rows_scanned_per_row_out"] = scanned / max(1, emitted)

    def executors(self, session, fresh_session) -> None:
        """Every registered backend on the workload's shapes; first
        execution after compile on a database nothing has run on yet."""
        sym, v, db = self.sym, self.values, session.db
        shapes = self.shapes()
        if not shapes:
            return
        first = []
        for _, shape, constants in shapes:
            params = self.params_of(constants)
            plan = sym.compile_query(fresh_session.db, shape, params, options=sym.ExecOptions())
            _, _, norm = timed(lambda: plan.execute(sym.ExecutionContext(fresh_session.db, params)))
            first.append(norm)
        v["compiler.executors.first_exec_ms"] = statistics.fmean(first) * 1e3

        plans = [
            (sym.compile_query(db, shape, self.params_of(constants), options=sym.ExecOptions()),
             self.params_of(constants))
            for _, shape, constants in shapes
        ]

        def sweep(executor: str, config=None) -> float:
            per_shape = []
            for plan, params in plans:
                def execute():
                    ctx = sym.ExecutionContext(db, params)
                    if config is not None:
                        ctx.shard_config = config
                    return plan.execute(ctx, executor=executor)

                _, raw, norm = timed(execute, bursts=1)  # builds lazy pipelines
                if raw < 0.5:
                    norm = statistics.median(timed(execute, bursts=1)[2] for _ in range(self.reps))
                per_shape.append(norm)
            return statistics.fmean(per_shape) * 1e3

        registered = set(sym.executor_names())
        for name in ("batch", "vector", "rowbatch", "tuple", "sharded"):
            metric = f"compiler.executors.{name}.exec_ms"
            if name not in registered:
                self.unresolved += 1
                self.notes.append(f"{metric}: executor {name!r} is not registered; reported as 0")
                continue
            self.run((metric,), lambda n=name, m=metric: v.__setitem__(m, sweep(n)))
        workers = min(2, os.cpu_count() or 1)
        fork = sym.ShardConfig(workers=workers, pool="process")
        self.run(("compiler.sharded.exec_ms",),
                 lambda: v.__setitem__("compiler.sharded.exec_ms", sweep("sharded", fork)))
        if v.get("compiler.sharded.exec_ms") and v.get("compiler.executors.batch.exec_ms"):
            v["compiler.sharded.speedup_vs_batch"] = (
                v["compiler.executors.batch.exec_ms"] / v["compiler.sharded.exec_ms"]
            )

    def access_paths(self, fresh_session) -> None:
        """Index build and encoding of the workload's main relation, first
        call on a version nothing has read yet."""
        v = self.values
        name, attrs = self.workload.probe_index
        # Re-assigning gives a version no index or encoding exists for.
        fresh_session.assign(name, self.workload.tables[name])
        relation = fresh_session.relation(name)
        _, _, norm = timed(lambda: relation.index_on(attrs))
        v["relational.indexes.build_ms"] = norm * 1e3
        _, _, norm = timed(relation.encoded)
        v["relational.vectors.encode_ms"] = norm * 1e3

    def writes(self, twin_session) -> None:
        """Commit cost on a twin database without subscribers."""
        v = self.values
        name, rows = self.workload.probe_rows
        relation = twin_session.relation(name)
        ins, dels = [], []
        for _ in range(5 * self.reps):
            ins.append(timed(lambda: twin_session.insert(name, rows), bursts=1)[2])
            dels.append(timed(lambda: relation.delete(rows), bursts=1)[2])
        v["relational.relation.insert_us"] = statistics.median(ins) * 1e6
        v["relational.relation.delete_us"] = statistics.median(dels) * 1e6
        v["relational.relation.commit_us_per_row"] = (
            (statistics.median(ins) + statistics.median(dels)) / 2 / len(rows) * 1e6
        )

    def storage(self, session, workdir: str, spilled: str | None) -> None:
        sym, v = self.sym, self.values
        if spilled is None:
            spilled = os.path.join(workdir, "probe-spill")
            _, raw, norm = timed(lambda: session.db.spill(spilled))
            v["relational.storage.spill_s"] = norm
            v["relational.storage.spill_mb_per_s"] = dir_bytes(spilled) / 1e6 / norm
        v["relational.storage.bytes_on_disk"] = float(dir_bytes(spilled))
        opens = [timed(lambda: sym.open_database(spilled), bursts=1)[2] for _ in range(self.reps)]
        v["relational.storage.open_ms"] = statistics.median(opens) * 1e3
        name, projection, selection = self.workload.probe_scan

        def fresh_store():
            return sym.RelationStore(os.path.join(spilled, name))

        v["relational.storage.load_dictionaries_ms"] = statistics.median(
            timed(fresh_store().load_dictionaries, bursts=1)[2] for _ in range(self.reps)) * 1e3
        v["relational.storage.load_stats_ms"] = statistics.median(
            timed(fresh_store().load_stats, bursts=1)[2] for _ in range(self.reps)) * 1e3
        v["relational.storage.scan_full_ms"] = statistics.median(
            timed(fresh_store().scan, bursts=1)[2] for _ in range(self.reps)) * 1e3
        store = fresh_store()
        rows, _, norm = timed(lambda: store.scan(projection, selection))
        v["relational.storage.scan_selective_ms"] = norm * 1e3
        if not self.store_totals:
            self.store_totals.update(store.counters.snapshot())
            self.store_totals["rows_out"] = len(rows)
        store = fresh_store()
        _, _, norm = timed(lambda: store.encoded_scan(projection, selection))
        v["relational.storage.encoded_scan_ms"] = norm * 1e3

    def oracle(self, workdir: str) -> tuple[int, list[str]]:
        small = type(self.workload)(self.workload.seed, "small")
        (checked, notes), raw, _ = timed(lambda: small.oracle_check(workdir))
        self.values["calculus.evaluator.oracle_s"] = raw
        return checked, notes


#: metric -> (layer, span name) for the metrics that are the mean duration
#: of one kind of span (``_us`` in microseconds, ``_ms`` in milliseconds).
SPAN_METRICS = {
    "dbpl.parser.parse_us": ("dbpl.parser", "parse_expression"),
    "analysis.scope_us": ("analysis", "scope"),
    "dbpl.serving.parameterize_us": ("dbpl.serving", "parameterize"),
    "dbpl.serving.cache_get_us": ("dbpl.serving", "cache_get"),
    "dbpl.serving.run_us": ("compiler.executors", "run"),
    "relational.stats.epoch_us": ("relational.stats", "epoch"),
    "compiler.fixpoint.compile_ms": ("compiler.fixpoint", "compile"),
    "compiler.fixpoint.run_ms": ("compiler.fixpoint", "run"),
    "constructors.instantiate_ms": ("constructors", "instantiate"),
    "datalog.engine.solve_ms": ("datalog.engine", "solve"),
}


class TracedRun:
    """One traced run of one workload; ``record()`` is its result."""

    def __init__(self, workload, out: str | None) -> None:
        self.workload = workload
        self.out = out or os.path.join(harness.SCRATCH, "out")
        self.sym = Symbols()
        self.tracer = Tracer()
        self.tally = Tally(notes=list(self.sym.notes))
        self.notes = self.tally.notes
        self.values: dict[str, float] = {}
        self.probes = Probes(self.sym, workload, self.values, self.notes)
        expected = workload.expected()
        self.full_check, self.count_check = row_checks(expected)
        self.reads = [i for i, rows in enumerate(expected) if rows is not None]
        self.writes = [i for i, rows in enumerate(expected) if rows is None]
        #: Samples per pass pair, reduced to medians by ``derive``.
        self.samples: dict[str, list[float]] = {}
        self.shares: list[dict[str, float]] = []
        self.untraced_reads: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.speeds: list[float] = []
        self.session_reads = 0
        self.commits = 0

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    # -- phases -------------------------------------------------------------------------

    def set_up(self, workdir: str):
        """The instance under test, set up step by step for the set-up
        metrics; a twin without subscribers (what a commit costs the
        relation layer alone); a fresh instance nothing has run on."""
        from workloads import Instance

        workload, values = self.workload, self.values
        session = workload.new_session()
        _, _, norm = timed(lambda: session.execute(workload.schema))
        values["dbpl.session.execute_schema_ms"] = norm * 1e3
        load = sum(
            timed(lambda: session.assign(name, workload.tables[name]))[2]
            for name in workload.load_order
        )
        values["relational.relation.bulk_load_rows_per_s"] = (
            sum(len(workload.tables[name]) for name in workload.load_order) / load
        )
        inst = Instance(session)
        _, _, norm = timed(lambda: workload.after_load(inst, workdir))
        if inst.subs:
            values["dbpl.subscriptions.subscribe_ms"] = norm / len(inst.subs) * 1e3
        if inst.path is not None:
            values["relational.storage.spill_s"] = norm
            values["relational.storage.spill_mb_per_s"] = dir_bytes(inst.path) / 1e6 / norm
        self.inst = inst
        self.twin = Instance(workload.loaded_session(), path=inst.path)
        self.fresh = workload.loaded_session()

    def bind(self) -> None:
        workload, inst = self.workload, self.inst
        self.ops = workload.chunk(inst)
        # The twin replays the whole chunk (its reads build the same row
        # lists and indexes the commits then have to maintain), but only
        # where there are subscribers to tell apart from the relation layer.
        self.twin_ops = workload.chunk(self.twin) if inst.subs else None
        self.replay = self.traced_ops = None
        try:
            self.replay = Replay(self.sym, self.tracer, workload, inst)
            self.traced_ops = [self.replay.bind(i, spec) for i, spec in enumerate(workload.specs)]
        except Missing as exc:
            self.no_replay(exc)

    def no_replay(self, exc: Missing) -> None:
        self.traced_ops = None
        self.probes.unresolved += 1
        self.notes.append(
            f"decomposed replay impossible, symbol {exc} is gone; trace.coverage "
            "and the span-derived metrics read 0"
        )

    def verify(self) -> None:
        """Row-for-row check (and warm-up) of the real and the decomposed path."""
        self.tally.add_pass("verify", run_pass(self.ops, check=self.full_check))
        self.workload.restore(self.inst)
        self.session_reads += len(self.reads)
        if self.traced_ops is not None:
            try:
                self.tally.add_pass("decomposed", run_pass(self.traced_ops, check=self.full_check))
            except Missing as exc:
                self.no_replay(exc)
            self.workload.restore(self.inst)

    def passes(self) -> None:
        """Alternate untraced and decomposed passes over the chunk."""
        workload, inst, reads, writes = self.workload, self.inst, self.reads, self.writes
        self.cache_before = dict(inst.session.plan_cache.info())
        self.recomputes_before = sum(sub.recomputes for sub in inst.subs)
        self.events_before = inst.events
        for _ in range(2 if workload.size == "full" else 1):
            collect()
            plain = run_pass(self.ops, check=self.count_check)
            workload.restore(inst)
            self.tally.add_pass("untraced", plain)
            self.session_reads += len(reads)
            self.commits += len(writes)
            self.speeds.append(plain.speed)
            for i in reads:
                self.untraced_reads.append(plain.norm[i])
                self.by_label.setdefault(self.ops[i].label, []).append(plain.norm[i])
            if self.twin_ops is not None:
                twin_pass = run_pass(self.twin_ops)
                workload.restore(self.twin)
                main_commit = sum(plain.norm[i] for i in writes)
                twin_commit = sum(twin_pass.norm[i] for i in writes)
                self.sample("maintain_ms", (main_commit - twin_commit) / len(writes) * 1e3)
                self.sample("relation_share", min(1.0, twin_commit / main_commit))
            if self.traced_ops is None:
                continue
            collect()
            self.tracer.reset()
            self.replay.reset_counters()
            traced = run_pass(self.traced_ops, check=self.count_check)
            workload.restore(inst)
            self.tally.add_pass("decomposed", traced)
            self.commits += len(writes)
            self.sample("coverage", sum(traced.norm[i] for i in reads) / sum(plain.norm[i] for i in reads))
            self.sample("overhead", (traced.norm_wall - plain.norm_wall) / plain.norm_wall)
            factor = [n / l if l else 1.0 for n, l in zip(traced.norm, traced.lat)]
            self.shares.append(self.layer_shares(factor))
            self.span_metrics(factor)

    def layer_shares(self, factor: list[float]) -> dict[str, float]:
        """Each layer's share of the self time of the chunk's reads."""
        workload, inst, sym = self.workload, self.inst, self.sym
        per_op = self.tracer.self_times()
        layer_ns = dict.fromkeys(LAYERS, 0.0)
        for i in self.reads:
            for layer, ns in per_op.get(i, {}).items():
                layer_ns[layer] = layer_ns.get(layer, 0.0) + ns * factor[i]
        if inst.path is not None:
            # Cold reads: the store's part of ``run`` is what the plan's
            # pushed-down scans cost a fresh reader (which pays for loading
            # its dictionaries, as the first scan on a handle does).
            moved = 0.0
            for i in self.reads:
                store_ns = 0.0
                for name, projection, selection in workload.scans(workload.specs[i][-1]):
                    store = sym.RelationStore(os.path.join(inst.path, name))
                    store_ns += timed(lambda: store.scan(projection, selection), bursts=1)[2] * 1e9
                moved += min(store_ns, per_op.get(i, {}).get("compiler.executors", 0) * factor[i])
            layer_ns["relational.storage"] += moved
            layer_ns["compiler.executors"] -= moved
        total = sum(layer_ns.values()) or 1.0
        return {layer: ns / total for layer, ns in layer_ns.items()}

    def span_metrics(self, factor: list[float]) -> None:
        tracer, specs = self.tracer, self.workload.specs
        for metric, (layer, name) in SPAN_METRICS.items():
            pairs = tracer.durations(layer, name)
            if pairs:
                mean_us = statistics.fmean(ns * factor[op_id] for op_id, ns in pairs) / 1e3
                self.sample(metric, mean_us * (1e-3 if metric.endswith("_ms") else 1.0))
        parse = tracer.durations("dbpl.parser", "parse_expression")
        if parse:
            chars = sum(len(specs[op_id][2]) for op_id, _ in parse)
            seconds = sum(ns * factor[op_id] for op_id, ns in parse) / 1e9
            self.sample("dbpl.parser.chars_per_s", chars / seconds)

    def derive(self) -> None:
        """Medians over the pass pairs, and what the counters say."""
        values, inst, workload = self.values, self.inst, self.workload
        medians = {metric: statistics.median(v) for metric, v in self.samples.items()}
        # Dotted sample names are metrics as they stand; the plain ones
        # (coverage, overhead, maintain_ms, relation_share) are used below.
        values.update({name: value for name, value in medians.items() if "." in name})
        if "compiler.fixpoint.run_ms" in values:
            values["compiler.fixpoint.construct_ms"] = sum(
                values.get(metric, 0.0) for metric in (
                    "constructors.instantiate_ms", "compiler.fixpoint.compile_ms",
                    "compiler.fixpoint.run_ms")
            )
        if "coverage" in medians:
            values["trace.coverage"] = medians["coverage"]
            values["trace.overhead_share"] = medians["overhead"]
            for layer in LAYERS:
                values[f"trace.share.{layer}"] = statistics.median(s[layer] for s in self.shares)
            if workload.name in ("serve_mixed", "analytic_join") and not (
                0.9 <= medians["coverage"] <= 1.1
            ):
                self.notes.append(
                    f"trace.coverage {medians['coverage']:.3f} is outside [0.9, 1.1]: "
                    "the per-layer numbers of this run are INVALID"
                )
        if self.writes:
            # Commit time splits into the relation layer (what the same
            # commits cost the twin) and subscription maintenance (the
            # rest); without subscribers it is all the relation layer's.
            share = medians.get("relation_share", 1.0)
            values["trace.commit_share.relational.relation"] = share
            values["trace.commit_share.dbpl.subscriptions"] = 1.0 - share
        if inst.subs and "maintain_ms" in medians:
            values["dbpl.subscriptions.maintain_ms_per_commit"] = medians["maintain_ms"]
            values["dbpl.subscriptions.maintain_us_per_sub"] = medians["maintain_ms"] * 1e3 / len(inst.subs)
            recomputes = sum(sub.recomputes for sub in inst.subs) - self.recomputes_before
            values["dbpl.subscriptions.recompute_share"] = recomputes / (len(inst.subs) * self.commits)
            values["dbpl.subscriptions.events_per_commit"] = (inst.events - self.events_before) / self.commits

        replay = self.replay
        if replay is not None and replay.fixpoint["runs"]:
            fx = replay.fixpoint
            values["compiler.fixpoint.iterations"] = fx["iterations"] / fx["runs"]
            values["compiler.fixpoint.replans"] = fx["replans"] / fx["runs"]
            values["compiler.fixpoint.rows_derived_per_row_out"] = fx["derived"] / max(1, fx["rows_out"])
        if replay is not None and replay.store_counters:
            totals = {k: sum(c[k] for c in replay.store_counters) for k in replay.store_counters[0]}
            totals["rows_out"] = replay.cold_rows_out
            self.probes.store_totals = totals

        values["dbpl.session.read_p99_ms"] = percentile(self.untraced_reads, 0.99) * 1e3
        for label in ("point", "join2", "join3"):
            if label in self.by_label:
                values[f"dbpl.session.{label}_read_us"] = statistics.median(self.by_label[label]) * 1e6
        before, after = self.cache_before, inst.session.plan_cache.info()
        hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
        if hits + misses:
            values["dbpl.serving.plan_cache_hit_share"] = hits / (hits + misses)
        for counter in ("evictions", "invalidations"):
            values[f"dbpl.serving.plan_cache_{counter}"] = float(after[counter] - before[counter])
        values["dbpl.session.fallback_share"] = (
            sum(inst.session.fallbacks.values()) / max(1, self.session_reads)
        )

    def probe(self, workdir: str) -> None:
        """The direct single-layer probes, each guarded."""
        probes, session = self.probes, self.inst.session
        probes.run(("dbpl.parser.module_parse_ms", "analysis.analyze_us"),
                   probes.parser_and_analysis, session)
        probes.run(("dbpl.serving.prepare_ms", "compiler.plans.compile_ms",
                    "compiler.plans.qerror_p50", "compiler.plans.rows_scanned_per_row_out"),
                   probes.planning, session)
        probes.run(("compiler.executors.first_exec_ms",), probes.executors, session, self.fresh)
        probes.run(("relational.indexes.build_ms", "relational.vectors.encode_ms"),
                   probes.access_paths, self.fresh)
        probes.run(("relational.relation.insert_us", "relational.relation.delete_us",
                    "relational.relation.commit_us_per_row"), probes.writes, self.twin.session)
        probes.run(("relational.storage.open_ms", "relational.storage.scan_full_ms"),
                   probes.storage, session, workdir, self.inst.path)
        totals = probes.store_totals
        if totals:
            seen = totals["partitions_read"] + totals["partitions_pruned"]
            rows_out = max(1, totals["rows_out"])
            self.values["relational.storage.partitions_pruned_share"] = totals["partitions_pruned"] / max(1, seen)
            self.values["relational.storage.rows_decoded_per_row_out"] = totals["rows_decoded"] / rows_out
            self.values["relational.storage.bytes_read_per_row_out"] = totals["bytes_read"] / rows_out
        try:
            self.tally.add(*probes.oracle(workdir))
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            self.tally.add(1, [f"oracle check raised {type(exc).__name__}: {exc}"])

    def record(self) -> dict:
        workload, values = self.workload, self.values
        os.makedirs(self.out, exist_ok=True)
        with Workdir() as workdir:
            self.set_up(workdir)
            self.bind()
            self.verify()
            self.passes()
            self.derive()
            self.probe(workdir)
        # Spans stay in memory until the run is over.
        self.tracer.write(os.path.join(self.out, f"trace_{workload.name}.jsonl"))
        values["bench.failed_ops_share"] = self.tally.failed / max(1, self.tally.attempted)
        values["bench.unresolved_probes"] = float(self.probes.unresolved + len(self.sym.notes))
        values["bench.calibration_s"] = harness.calibrate()
        values["bench.speed_vs_reference"] = statistics.median(self.speeds)
        return {
            "workload": workload.name,
            "seed": workload.seed,
            "size": workload.size,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "notes": self.notes,
            "metrics": {name: {"value": value} for name, value in values.items()},
        }


def run_traced(workload, out: str | None) -> dict:
    """The traced run of one workload: its per-layer record."""
    return TracedRun(workload, out).record()
