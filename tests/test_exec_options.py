"""ExecOptions: the one execution-options surface.

Covers the dataclass algebra (layering, cache-key normalization), the
single spelling at every entry point (``options=`` accepted, every
former loose keyword a ``TypeError``), the executor fallback chain and
registry, and the observable-fallback counters on Session.
"""

import pytest
from helpers import ALL_EXECUTORS, make_cad_db

from repro import ExecOptions
from repro.compiler import (
    DEFAULT_EXECUTOR,
    DEFAULT_OPTIMIZER,
    ExecutionContext,
    compile_fixpoint,
    compile_query,
    compile_statement,
    construct_compiled,
    executor_names,
    run_query,
)
from repro.calculus import dsl as d
from repro.calculus.evaluator import Evaluator
from repro.compiler import executors as executors_mod
from repro.compiler import fixpoint as fixpoint_mod
from repro.compiler.operators import lower_branch, lower_branch_columnar, lower_branch_vector
from repro.constructors import instantiate
from repro.datalog import DatalogEngine, parse_atom, parse_program
from repro.dbpl import Session, parse_expression
from repro.errors import (
    AnalysisError,
    DBPLError,
    EvaluationError,
    PositivityError,
)
from repro.relational.vectors import get_numpy

INFRONT_QUERY = d.query(
    d.branch(d.each("r", "Infront"), pred=d.eq(d.a("r", "back"), "chair"))
)

AHEAD = """
TYPE prec = RECORD front, back: STRING END;
     prel = RELATION front, back OF prec;
VAR Infront: prel;
CONSTRUCTOR ahead FOR Rel: prel (): prel;
BEGIN EACH r IN Rel: TRUE,
      <r.front, a.back> OF EACH r IN Rel,
           EACH a IN Rel{ahead()}: r.back = a.front
END ahead;
"""

#: Positive (section 3.3 allows a recursive occurrence under SOME), but
#: the fixpoint variable is not a binding range: its branch has no
#: semi-naive differential and fires whole each round.
REACHQ = """
CONSTRUCTOR reachq FOR Rel: prel (): prel;
BEGIN EACH r IN Rel: r.front = "table",
      EACH r IN Rel: SOME t IN Rel{reachq()} (t.back = r.front)
END reachq;
"""

OVER_AHEAD = '{EACH r IN Infront{ahead()}: r.front = "table"}'


def make_session() -> Session:
    s = Session()
    s.execute(AHEAD)
    s.insert("Infront", [("table", "chair"), ("chair", "door")])
    return s


class TestExecOptionsAlgebra:
    def test_over_set_fields_win(self):
        base = ExecOptions(executor="tuple", optimizer="syntactic")
        call = ExecOptions(executor="batch")
        merged = call.over(base)
        assert merged.executor == "batch"
        assert merged.optimizer == "syntactic"

    def test_over_none_base_is_identity(self):
        opts = ExecOptions(executor="vector")
        assert opts.over(None) is opts

    def test_resolved_defaults(self):
        assert ExecOptions().resolved_executor == DEFAULT_EXECUTOR
        assert ExecOptions().resolved_optimizer == DEFAULT_OPTIMIZER

    def test_cache_key_normalizes_spellings_and_per_exec_fields(self):
        # Explicit defaults and unset fields fingerprint identically,
        # and snapshot/analysis never fragment the key.
        assert ExecOptions().cache_key() == ExecOptions(
            executor=DEFAULT_EXECUTOR,
            optimizer=DEFAULT_OPTIMIZER,
            analysis="lint",
            snapshot=object(),
        ).cache_key()
        assert (
            ExecOptions(executor="tuple").cache_key()
            != ExecOptions().cache_key()
        )

    def test_replace_returns_new_frozen_instance(self):
        opts = ExecOptions(executor="batch")
        other = opts.replace(optimizer="syntactic")
        assert other is not opts
        assert other.optimizer == "syntactic" and other.executor == "batch"
        with pytest.raises(Exception):
            opts.executor = "tuple"

    def test_retired_optimizer_name_is_just_an_unknown_one(self):
        for name in ("greedy", "no-such-mode"):
            with pytest.raises(
                ValueError,
                match=f"unknown optimizer '{name}'; expected 'cost' or 'syntactic'",
            ):
                compile_query(
                    make_cad_db(), INFRONT_QUERY, options=ExecOptions(optimizer=name)
                )


PATHS = """
    edge(a, b). edge(b, c).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).
"""

SET_FORMER = '{EACH r IN Infront: r.back = "chair"}'


ENTRY_POINTS = (
    "Session",
    "Session.query",
    "Session.prepare",
    "Session.subscribe",
    "compile_query",
    "run_query",
    "compile_fixpoint",
    "compile_statement",
    "construct_compiled",
    "DatalogEngine.solve",
    "DatalogEngine.query",
)


def _entry_points() -> dict:
    """The eleven execution front doors, each as ``call(**knobs) -> answer``."""
    s = make_session()
    db = make_cad_db()
    node = parse_expression("Infront{ahead()}")
    system = instantiate(s.db, node)
    engine = DatalogEngine(parse_program(PATHS))

    def session(**knobs):
        fresh = Session(**knobs)
        fresh.execute(AHEAD)
        fresh.insert("Infront", [("table", "chair"), ("chair", "door")])
        return fresh.query(SET_FORMER)

    return {
        "Session": session,
        "Session.query": lambda **kw: s.query(SET_FORMER, **kw),
        "Session.prepare": lambda **kw: s.prepare(SET_FORMER, **kw).execute(),
        "Session.subscribe": lambda **kw: s.subscribe(SET_FORMER, **kw).rows(),
        "compile_query": lambda **kw: compile_query(
            db, INFRONT_QUERY, **kw
        ).execute(ExecutionContext(db)),
        "run_query": lambda **kw: run_query(db, INFRONT_QUERY, **kw),
        "compile_fixpoint": lambda **kw: compile_fixpoint(s.db, system, **kw).run(),
        "compile_statement": lambda **kw: compile_statement(
            s.db, parse_expression(OVER_AHEAD), **kw
        ).run(),
        "construct_compiled": lambda **kw: construct_compiled(s.db, node, **kw).rows,
        "DatalogEngine.solve": lambda **kw: engine.solve("compiled", **kw),
        "DatalogEngine.query": lambda **kw: engine.query(
            parse_atom("path(a, X)"), "compiled", **kw
        ),
    }


#: The former loose spellings, with a value each would once have accepted.
LOOSE_KEYWORDS = {
    "executor": "tuple",
    "optimizer": "cost",
    "shard_config": None,
    "analysis": "lint",
    "snapshot": None,
}


class TestEntryPoints:
    """One spelling at every front door: ``options=`` or a TypeError."""

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_options_accepted_loose_keywords_rejected(self, name):
        calls = _entry_points()
        assert set(calls) == set(ENTRY_POINTS)
        call = calls[name]
        default = call()
        assert default  # every probe has a non-empty answer
        assert call(options=ExecOptions(executor="tuple")) == default
        for keyword, value in LOOSE_KEYWORDS.items():
            with pytest.raises(TypeError, match=keyword):
                call(**{keyword: value})
        # subscribe used to accept this and maintain on "batch".
        with pytest.raises(ValueError, match="unknown executor 'nope'"):
            call(options=ExecOptions(executor="nope"))

    def test_session_level_options_flow_into_queries(self):
        s = Session(options=ExecOptions(executor="tuple", analysis="lint"))
        s.execute(AHEAD)
        s.insert("Infront", [("table", "chair")])
        source = '{EACH r IN Infront: r.back = "chair"}'
        assert s.query(source) == {("table", "chair")}
        entry = s.plan_cache.get(
            next(iter(s.plan_cache._entries)), s.db.stats.epoch()
        )
        assert entry.plan.options.resolved_executor == "tuple"

    @pytest.mark.parametrize("door", ["query", "prepare", "subscribe"])
    def test_analysis_policy_is_validated_for_per_call_options(self, door):
        """A typo must not switch the strict gate off: the misspelt
        policy is a ValueError, and a per-call ``strict`` over a lint
        session rejects the bad attribute before compilation."""
        s = Session(options=ExecOptions(analysis="lint"))
        s.execute(AHEAD)
        bad = '{EACH r IN Infront: r.nope = "x"}'
        with pytest.raises(ValueError, match="analysis must be one of"):
            getattr(s, door)(bad, options=ExecOptions(analysis="Strict"))
        with pytest.raises(AnalysisError) as info:
            getattr(s, door)(bad, options=ExecOptions(analysis="strict"))
        assert "DBPL005" in {d.code for d in info.value.diagnostics.errors}


class TestFallbackChain:
    """vector → batch is the one edge, and nothing reaches the row-major
    lowering unless it is named."""

    #: The quantified residual puts the branch outside the vector
    #: coverage rules, so "vector" reaches the columnar lowering too.
    JOIN = (
        "{<r.front, t.back> OF EACH r IN Infront, EACH t IN Infront: "
        "r.back = t.front AND SOME u IN Infront (u.front = t.back)}"
    )
    ROWS = [("table", "chair"), ("chair", "door"), ("door", "wall")]

    def test_vector_coverage_gap_is_not_a_degradation(self, monkeypatch):
        # vector → batch is the documented per-branch coverage rule: the
        # columnar pipeline answers and no fallback is counted.
        monkeypatch.setattr(
            executors_mod.VectorBackend, "lowering", staticmethod(lambda *a, **kw: None)
        )
        s = Session(options=ExecOptions(executor="vector"))
        s.execute(AHEAD)
        s.insert("Infront", self.ROWS)
        assert s.query(self.JOIN) == {("table", "door")}
        # Only numpy's absence (DBPL906) counts; the coverage gap never does.
        assert s.fallbacks == {"process_pool": 0, "vector_numpy": int(get_numpy() is None)}

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_a_variable_bound_nowhere_is_the_evaluators_error(self, executor):
        # No lowering declines a term: one that names a variable bound
        # nowhere raises the error class and message the evaluator does.
        db = make_cad_db()
        query = d.query(
            d.branch(d.each("r", "Infront"), pred=d.eq(d.a("r", "back"), d.a("z", "front")))
        )
        with pytest.raises(EvaluationError, match="unbound tuple variable 'z'"):
            Evaluator(db).eval_query(query)
        with pytest.raises(EvaluationError, match="unbound tuple variable 'z'"):
            options = ExecOptions(executor=executor)
            compile_query(db, query, options=options).execute(ExecutionContext(db))

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_a_branch_that_binds_or_reads_nothing_lowers(self, executor):
        # A comparison that reads no binding is decided, not dropped (it
        # once had no step to filter at), and a branch with no bindings
        # gets a pipeline like any other.
        db = make_cad_db()
        cases = [
            (d.branch(d.each("r", "Infront"), pred=d.gt(1, 2)), set()),
            (d.branch(pred=d.gt(1, 2), targets=[1]), set()),
            (d.branch(pred=d.some("r", "Infront", d.eq(d.a("r", "back"), "chair")),
                      targets=[1, "x"]), {(1, "x")}),
        ]
        for branch, expected in cases:
            query = d.query(branch)
            assert Evaluator(db).eval_query(query) == expected
            plan = compile_query(db, query, options=ExecOptions(executor=executor))
            assert plan.execute(ExecutionContext(db)) == expected, branch
            (planned,) = plan.branches
            ran = [p for p in planned.pipelines.values() if p is not None and p.executions]
            assert len(ran) == (executor != "tuple"), branch

    def test_rowbatch_by_name_still_runs_the_row_major_lowering(self):
        db = make_cad_db()
        plan = compile_query(
            db, INFRONT_QUERY, options=ExecOptions(executor="rowbatch")
        )
        rows = plan.execute(ExecutionContext(db))
        assert rows == Evaluator(db).eval_query(INFRONT_QUERY)
        (branch,) = plan.branches
        # One memo entry: the row-major pipeline; columnar never lowered.
        assert list(branch.pipelines) == [lower_branch]
        assert branch.pipelines[lower_branch] is not None


class TestRegistry:
    def test_names_backends_and_harness_agree(self):
        # One list of executors: the public names, the registered
        # backends, and the set the property harness cross-checks.
        for name in executor_names():
            assert executors_mod.get_backend(name).name == name
        assert set(executor_names()) == set(executors_mod._BACKENDS)
        assert set(executor_names()) == set(ALL_EXECUTORS)
        assert len(set(ALL_EXECUTORS)) == len(ALL_EXECUTORS)

    def test_fallback_chains_end_at_the_interpreter(self):
        # The compiled lowerings are total: no chain reaches the
        # interpreter, which runs only when named.  vector → batch (the
        # vector coverage rule) is the one edge left.
        chains = {}
        for name in executor_names():
            chain = [name]
            backend = executors_mod.get_backend(name)
            while backend.fallback is not None:
                backend = executors_mod.get_backend(backend.fallback)
                chain.append(backend.name)
            chains[name] = chain
        assert chains == {
            "vector": ["vector", "batch"],
            "batch": ["batch"],
            "sharded": ["sharded"],
            "rowbatch": ["rowbatch"],
            "tuple": ["tuple"],
        }


EDGES_SCHEMA = """
TYPE node = STRING; edgerec = RECORD src, dst: node END;
     edgerel = RELATION ... OF edgerec;
VAR Edge: edgerel;
"""
TWO_HOPS = (
    '{<e.src, f.dst> OF EACH e IN Edge, EACH f IN Edge: '
    'e.dst = f.src AND e.src = "n3"}'
)


class TestExplainShowsWhatRan:
    """``explain()`` renders the pipeline an executor ran, and explaining
    lowers nothing but the plan's own executor's pipeline."""

    #: The executed operators, per executor, in pipeline order.
    RAN = {
        "vector": ["VLOOKUP Edge[0]", "VJOIN Edge[0]", "VPROJECT <e.src, f.dst>  (id dedup)"],
        "rowbatch": ["INDEXLOOKUP Edge[0]", "HASHJOIN Edge build[0]", "PROJECT <e.src, f.dst>"],
        "batch": ["INDEXLOOKUP Edge[0]", "HASHJOIN Edge build[0]"],
    }
    LOWERING = {
        "vector": lower_branch_vector,
        "rowbatch": lower_branch,
        "batch": lower_branch_columnar,
    }

    def _prepared(self, executor, text=TWO_HOPS):
        if executor == "vector" and get_numpy() is None:
            pytest.skip("the vector kernels need numpy")
        s = Session(options=ExecOptions(executor=executor))
        s.execute(EDGES_SCHEMA)
        s.insert("Edge", [("n3", "n4"), ("n4", "n5"), ("n3", "n6"), ("n6", "n7"), ("n1", "n3")])
        prepared = s.prepare(text)
        (branch,) = prepared.plan.statement.top_plan.branches
        return prepared, branch

    @staticmethod
    def _operator_lines(text):
        lines = text.splitlines()
        assert sum(line.strip() == "operators:" for line in lines) == 1, text
        start = next(i for i, line in enumerate(lines) if line.strip() == "operators:")
        ops = []
        for line in lines[start + 1 :]:
            if line.strip().startswith("DEDUP"):
                break
            ops.append(line.strip())
        return ops

    @pytest.mark.parametrize("executor", sorted(RAN))
    def test_explain_renders_the_executed_operators(self, executor):
        prepared, branch = self._prepared(executor)
        for _ in range(3):
            assert prepared.execute() == {("n3", "n5"), ("n3", "n7")}
        ops = self._operator_lines(prepared.explain())
        assert [op.split("  [")[0] for op in ops] == self.RAN[executor]
        assert all("act=" in op and "act=-" not in op for op in ops), ops
        # The memo holds exactly the pipeline that ran.
        assert list(branch.pipelines) == [self.LOWERING[executor]]

    @pytest.mark.parametrize("executor", sorted(RAN))
    def test_explain_before_any_run_lowers_only_its_own_executor(self, executor):
        prepared, branch = self._prepared(executor)
        ops = self._operator_lines(prepared.explain())
        assert [op.split("  [")[0] for op in ops] == self.RAN[executor]
        assert all("act=-" in op for op in ops), ops
        assert list(branch.pipelines) == [self.LOWERING[executor]]

    def test_explain_names_no_operators_for_the_interpreter(self):
        prepared, branch = self._prepared("tuple")
        prepared.execute()
        assert "operators:" not in prepared.explain()
        assert branch.pipelines == {}

    def test_a_vector_branch_that_fell_back_shows_the_columnar_pipeline(self):
        # A column-to-column comparison is outside the vector coverage
        # rules: the memo records the refusal, then the batch pipeline.
        prepared, branch = self._prepared(
            "vector", TWO_HOPS.replace('e.src = "n3"', "e.src < f.dst")
        )
        assert prepared.execute() == {("n1", "n4"), ("n1", "n6"), ("n3", "n5"), ("n3", "n7")}
        assert list(branch.pipelines) == [lower_branch_vector, lower_branch_columnar]
        assert branch.pipelines[lower_branch_vector] is None
        ops = self._operator_lines(prepared.explain())
        assert ops[0].startswith("SCAN Edge") and "act=-" not in ops[0]
        assert not any(op.startswith("V") for op in ops)


class TestObservableFallbacks:
    def test_counters_start_at_zero_and_stay_put_on_happy_path(self):
        s = make_session()
        s.query('{EACH r IN Infront: r.back = "chair"}')
        s.query("Infront{ahead()}")
        assert set(s.fallbacks) == {"process_pool", "vector_numpy"}
        assert all(count == 0 for count in s.fallbacks.values())

    def test_unknown_kind_is_a_bug_not_a_process_pool_hint(self):
        # One table: a kind an executor invents used to grow the counter
        # dict and be reported as DBPL902.
        s = make_session()
        diags = []
        s.on_diagnostic = diags.append
        with pytest.raises(KeyError):
            s._note_fallback("ship", "not a degradation this tree has")
        assert "ship" not in s.fallbacks and diags == []
        s._note_fallback("process_pool", "ran on threads")
        assert s.fallbacks["process_pool"] == 1
        assert [(g.code, g.data["kind"]) for g in diags] == [
            ("DBPL902", "process_pool")
        ]

    @pytest.mark.parametrize("analysis", ["lint", "off"])
    @pytest.mark.parametrize(
        "source",
        [
            '{EACH r IN Nowhere: r.back = "chair"}',
            '{EACH r IN Infront: r.side = "chair"}',
            '{<r.side> OF EACH r IN Infront{ahead()}: TRUE}',
        ],
    )
    def test_compile_error_raises_the_oracles_class(self, analysis, source):
        # Unknown relations and attributes used to take a detour: the
        # compile-time error re-ran the query on the interpreter, which
        # raised the same class after a DBPL900 hint.
        s = Session(options=ExecOptions(analysis=analysis))
        s.execute(AHEAD)
        s.insert("Infront", [("table", "chair")])
        with pytest.raises(DBPLError) as oracle:
            s.query(source, mode="interpreted")
        diags = []
        s.on_diagnostic = diags.append
        for door in (s.query, s.prepare, s.subscribe):
            with pytest.raises(type(oracle.value)):
                door(source)
        assert not [g for g in diags if g.code.startswith("DBPL9")]
        assert not any(s.fallbacks.values())

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    @pytest.mark.parametrize("analysis", ["strict", "lint", "off"])
    def test_unknown_identifier_is_typed(self, analysis, executor):
        # The parser reads a bare ``low`` as a parameter reference; the
        # compiled kernels used to raise a bare KeyError('low').
        s = Session(options=ExecOptions(analysis=analysis, executor=executor))
        s.execute(
            """
            TYPE level = (low, high);
                 prec = RECORD p: STRING; l: level END;
                 prel = RELATION p OF prec;
            VAR P: prel;
            """
        )
        s.insert("P", [("a", "low"), ("b", "high")])
        expected = AnalysisError if analysis == "strict" else EvaluationError
        for source in ("{EACH p IN P: p.l = low}", "{<p.p> OF EACH p IN P: low = p.l}"):
            for door in (s.query, s.prepare, s.subscribe):
                with pytest.raises(expected, match="low"):
                    door(source)
        with pytest.raises(expected, match="low"):
            s.query("{EACH p IN P: p.l = low}", mode="interpreted")

    @pytest.mark.parametrize(
        "source", ["Infront{reachq()}", "{EACH r IN Infront{reachq()}: TRUE}"]
    )
    def test_recursion_under_some_compiles_and_is_held(self, source):
        # Both spellings of the one range: the bare one used to be a
        # PositivityError, then both ran on the interpreted fixpoint
        # engine per query (DBPL901), never held.
        s = make_session()
        s.execute(REACHQ)
        s.insert("Infront", [("door", "wall"), ("lamp", "desk")])
        diags = []
        s.on_diagnostic = diags.append
        expected = s.query(source, mode="interpreted")
        assert expected == {("table", "chair"), ("chair", "door"), ("door", "wall")}
        for _ in range(2):
            assert s.query(source) == expected
        assert s.prepare(source).execute() == expected
        (program,) = s.prepare(source).plan.statement.fixpoints.values()
        assert (program.recomputes, program.hits, program.last) == (1, 2, ("hit", 0))
        s.insert("Infront", [("wall", "roof")])
        expected = s.query(source, mode="interpreted")
        assert ("wall", "roof") in expected
        assert s.query(source) == expected
        assert program.last == ("resumed", 1)
        assert not any(s.fallbacks.values())
        assert not [g for g in diags if g.code.startswith("DBPL9")]

    @pytest.mark.parametrize(
        "source", ["Base{nonsense}", "{EACH r IN Base{nonsense}: TRUE}"]
    )
    def test_non_positive_constructor_is_rejected_not_degraded(self, source):
        from repro import paper
        from repro.relational import Database

        db = Database()
        db.declare("Base", paper.CARDREL, [(i,) for i in range(3)])
        paper.define_nonsense(db, check_positivity=False)
        s = Session(db)
        for door in (s.query, s.prepare, s.subscribe):
            with pytest.raises(PositivityError):
                door(source)
        with pytest.raises(PositivityError):
            s.query(source, mode="interpreted")
        assert not any(s.fallbacks.values())

    def test_positivity_is_compile_fixpoints_own_gate(self, monkeypatch):
        """Every caller of ``compile_fixpoint`` gets the section 3.3
        rejection, before any plan is compiled or run: a positivity
        check left to ``compile_application`` would let a direct caller
        iterate ``nonsense`` whole and return a wrong answer."""
        from repro import paper
        from repro.relational import Database

        db = Database()
        db.declare("Base", paper.CARDREL, [(i,) for i in range(3)])
        paper.define_nonsense(db, check_positivity=False)
        node = parse_expression("Base{nonsense}")
        compiled = []
        monkeypatch.setattr(
            fixpoint_mod, "compile_query", lambda *a, **k: compiled.append(a)
        )
        with pytest.raises(PositivityError, match="not positive"):
            compile_fixpoint(db, instantiate(db, node))
        with pytest.raises(PositivityError, match="not positive"):
            fixpoint_mod.compile_application(db, node)
        assert compiled == []

    def test_runtime_evaluation_error_propagates(self, monkeypatch):
        # Satellite of the fallback narrowing: a *runtime* failure in
        # the compiled fixpoint must surface, not silently re-run.
        s = make_session()

        def boom(self, *args, **kwargs):
            raise EvaluationError("mid-execution failure")

        monkeypatch.setattr(fixpoint_mod.CompiledFixpoint, "run", boom)
        with pytest.raises(EvaluationError, match="mid-execution"):
            s.query("Infront{ahead()}")
        assert not any(s.fallbacks.values())

    def test_query_mode_is_auto_or_interpreted(self):
        # "naive"/"seminaive" only ever applied to a bare constructed
        # range (construct(db, node, mode=...) is the library spelling)
        # and an unknown mode used to run compiled without a word.
        s = make_session()
        for mode in ("naive", "seminaive", "banana"):
            with pytest.raises(ValueError, match="mode must be one of"):
                s.query("Infront{ahead()}", mode=mode)
            with pytest.raises(ValueError, match="mode must be one of"):
                s.query(SET_FORMER, mode=mode)
