"""A compiled fixpoint holds its value and advances it.

``CompiledFixpoint.advance`` is what ``Session.query``/``prepare`` and
both subscription kinds read a constructed range through: a *hit* when
no base relation moved (no plan runs), a *resume* from the appended
rows after inserts, a run from empty after a delete or an assign.  The
property drives random write interleavings through every executor
against the reference evaluator; the guards pin down which of the three
outcomes a read took and what it cost in index builds; the concurrency
leg checks that a held value is always the least fixpoint of one
committed state while a writer appends.
"""

import random
import sys
import threading
import time

import pytest
from helpers import (
    ALL_EXECUTORS,
    FRONT_DOOR_SCHEMA,
    forced_shard_config,
    random_front_door_queries,
    transitive_closure,
)

from repro.compiler import ExecOptions, ExecutionContext
from repro.compiler.fixpoint import HeldValue
from repro.constructors.definition import Constructor
from repro.dbpl import Session
from repro.relational import Database, HashIndex, TableStats
from repro.relational.vectors import get_numpy

#: The front-door schema plus a second edge relation and the recursion
#: shapes the front-door templates lack: left-linear (``ltc``; the
#: schema's ``tc`` is right-linear), non-linear (``ntc``), mutually
#: recursive (``ahead``/``above``) and same-generation (``samegen``,
#: whose equation reads its base relation twice).  The last four are
#: positive but recurse outside a binding range — under ``SOME``
#: (``reachq``), a membership test or'd with ``SOME`` (``hopq``),
#: ``NOT ALL`` (``notallq``) and inside an ``ALL`` body (``gatedq``) —
#: so that branch fires whole each round.  They start from ``S``, which
#: no write touches: seed rows deletes cannot remove.
SCHEMA = """
VAR F, S: edgerel;
CONSTRUCTOR ltc FOR Rel: edgerel (): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <t.src, r.dst> OF EACH t IN Rel{ltc()}, EACH r IN Rel: t.dst = r.src
END ltc;
CONSTRUCTOR ntc FOR Rel: edgerel (): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <a.src, b.dst> OF EACH a IN Rel{ntc()}, EACH b IN Rel{ntc()}: a.dst = b.src
END ntc;
CONSTRUCTOR ahead FOR Rel: edgerel (Top: edgerel): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <r.src, ah.dst> OF EACH r IN Rel, EACH ah IN Rel{ahead(Top)}: r.dst = ah.src,
      <r.src, ab.dst> OF EACH r IN Rel, EACH ab IN Top{above(Rel)}: r.dst = ab.src
END ahead;
CONSTRUCTOR above FOR Rel: edgerel (Front: edgerel): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <r.src, ab.dst> OF EACH r IN Rel, EACH ab IN Rel{above(Front)}: r.dst = ab.src,
      <r.src, ah.dst> OF EACH r IN Rel, EACH ah IN Front{ahead(Rel)}: r.dst = ah.src
END above;
CONSTRUCTOR samegen FOR Rel: edgerel (Par: edgerel): edgerel;
BEGIN EACH s IN Rel: TRUE,
      <px.src, py.src> OF EACH px IN Par, EACH g IN Rel{samegen(Par)},
           EACH py IN Par: px.dst = g.src AND py.dst = g.dst
END samegen;
CONSTRUCTOR reachq FOR Rel: edgerel (): edgerel;
BEGIN EACH s IN S: TRUE,
      EACH r IN Rel: SOME t IN Rel{reachq()} (t.dst = r.src)
END reachq;
CONSTRUCTOR hopq FOR Rel: edgerel (): edgerel;
BEGIN EACH s IN S: TRUE,
      EACH r IN Rel: <r.dst, r.src> IN Rel{hopq()}
                     OR SOME t IN Rel{hopq()} (t.dst = r.src)
END hopq;
CONSTRUCTOR notallq FOR Rel: edgerel (): edgerel;
BEGIN EACH s IN S: TRUE,
      EACH r IN Rel: NOT ALL t IN Rel{notallq()} (t.dst <> r.src)
END notallq;
CONSTRUCTOR gatedq FOR Rel: edgerel (): edgerel;
BEGIN EACH s IN S: TRUE,
      EACH r IN Rel: ALL u IN F (u.dst <> r.src
                                 OR SOME t IN Rel{gatedq()} (t.dst = r.src))
END gatedq;
"""

RECURSION_SHAPES = (
    "E{ltc()}",
    "E{ntc()}",
    "E{ahead(F)}",
    "F{above(E)}",
    "F{samegen(E)}",
    '{<r.src> OF EACH r IN E{ltc()}: r.dst = "n1"}',
    "E{reachq()}",
    "E{hopq()}",
    "F{notallq()}",
    "E{gatedq()}",
)

PROPERTY_SEEDS = 30


def session(edges=(), others=()) -> Session:
    s = Session()
    s.execute(FRONT_DOOR_SCHEMA)
    s.execute(SCHEMA)
    s.insert("E", edges)
    s.insert("F", others)
    s.insert("S", [("s", "n0"), ("s", "n1")])
    return s


def program_of(s: Session, text: str):
    """The fixpoint program behind ``text``'s cached plan."""
    (program,) = s.prepare(text).plan.statement.fixpoints.values()
    return program


def assert_held_stats_exact(s: Session) -> None:
    """Every held value's statistics view equals statistics built
    afresh over the value: its row count and per-column value counts."""
    for program in set(s.db.programs.values()):
        for value in program.held.values():
            exact = TableStats.from_rows(value, value.arity)
            assert value.stats.row_count == exact.row_count == len(value)
            assert [c.counts for c in value.stats.columns] == [
                c.counts for c in exact.columns
            ]


def random_write(rng: random.Random, s: Session, nodes) -> None:
    """One insert, delete or assign on E or F (absent and present rows
    mixed in, so some writes change nothing)."""
    name = rng.choice(("E", "E", "F"))
    rel = s.relation(name)

    def edge():
        return (rng.choice(nodes), rng.choice(nodes))

    kind = rng.choice(("insert", "insert", "insert", "delete", "assign"))
    if kind == "insert":
        rel.insert([edge() for _ in range(rng.randint(1, 3))])
    elif kind == "delete":
        rel.delete([r for r in sorted(rel.raw()) if rng.random() < 0.3] + [edge()])
    else:
        rel.assign([r for r in sorted(rel.raw()) if rng.random() < 0.7] + [edge()])


@pytest.mark.parametrize("seed", range(PROPERTY_SEEDS))
def test_held_values_track_random_writes_on_every_executor(seed):
    """After every write, on every executor: ``query`` ≡ the reference
    evaluator, a prepared handle ≡ ``query``, and a subscription ≡ a
    fresh query — while the cached programs advance instead of
    re-running, and every held value's statistics view stays exact."""
    rng = random.Random(9_000 + seed)
    nodes = [f"n{i}" for i in range(rng.randint(3, 7))]
    s = session(
        {(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(1, 12))},
        {(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 6))},
    )
    ((template, constants, _),) = random_front_door_queries(rng, nodes, count=1)
    texts = [template % constants, RECURSION_SHAPES[seed % len(RECURSION_SHAPES)]]
    options = [
        ExecOptions(executor=executor, shard_config=forced_shard_config())
        for executor in ALL_EXECUTORS
    ]
    subs = [(text, s.subscribe(text, options=o)) for text in texts for o in options]
    for step in range(4):
        for _ in range(rng.randint(1, 2) if step else 0):
            random_write(rng, s, nodes)  # two writes: both relations may move
        for text in texts:
            oracle = s.query(text, mode="interpreted")
            for o in options:
                assert s.query(text, options=o) == oracle, (text, o.executor, step)
                assert s.prepare(text, options=o).execute() == oracle, (text, o.executor)
            # After every hit, resume and run from empty.
            assert_held_stats_exact(s)
        for text, sub in subs:
            assert sub.rows() == s.query(text, mode="interpreted"), (text, step)
    degraded = {kind for kind, count in s.fallbacks.items() if count}
    assert degraded <= ({"vector_numpy"} if get_numpy() is None else set())


class TestAdvanceOutcomes:
    """Clock-free guards: which outcome a read took, and what it built."""

    CHAIN = [(f"n{i}", f"n{i + 1}") for i in range(12)]

    def test_a_reread_with_no_write_runs_no_plan(self, monkeypatch):
        s = session(self.CHAIN)
        assert s.query("E{tc()}") == transitive_closure(self.CHAIN)
        program = program_of(s, "E{tc()}")
        ran = []
        monkeypatch.setattr(
            "repro.compiler.plans.QueryPlan.execute",
            lambda plan, *a, **k: ran.append(plan),
        )
        assert s.query("E{tc()}") == transitive_closure(self.CHAIN)
        s.relation("F").insert([("x", "y")])  # not a base relation of E{tc}
        assert s.query("E{tc()}") == transitive_closure(self.CHAIN)
        assert ran == []
        assert (program.hits, program.resumes, program.recomputes) == (2, 0, 1)
        assert program.last == ("hit", 0)

    def test_a_recursion_under_some_is_held_and_resumed(self, monkeypatch):
        reached = {("s", "n0"), ("s", "n1"), *self.CHAIN}
        s = session(self.CHAIN)
        assert s.query("E{reachq()}") == reached
        program = program_of(s, "E{reachq()}")
        ran = []
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.compiler.plans.QueryPlan.execute",
                lambda plan, *a, **k: ran.append(plan),
            )
            assert s.query("E{reachq()}") == reached
        assert ran == [] and program.last == ("hit", 0)
        s.insert("E", [("n12", "n13")])
        assert s.query("E{reachq()}") == reached | {("n12", "n13")}
        assert program.last == ("resumed", 1)
        assert (program.hits, program.resumes, program.recomputes) == (1, 1, 1)

    def test_a_read_after_an_insert_resumes_without_rebuilding_an_index(
        self, monkeypatch
    ):
        s = session(self.CHAIN)
        s.query("E{tc()}")
        s.insert("E", [("n12", "n13")])
        s.query("E{tc()}")  # the first resume builds the seed probe's index
        program = program_of(s, "E{tc()}")
        built = []
        original = HashIndex.__init__

        def spy(index, positions, rows, *form):
            rows = list(rows)
            built.append(len(rows))
            original(index, positions, rows, *form)

        monkeypatch.setattr(HashIndex, "__init__", spy)
        s.insert("E", [("n13", "n14")])
        edges = [*self.CHAIN, ("n12", "n13"), ("n13", "n14")]
        assert s.query("E{tc()}") == transitive_closure(edges)
        assert program.last == ("resumed", 1)
        assert (program.resumes, program.recomputes) == (2, 1)
        (value,) = program.held.values()
        assert built and max(built) < len(value) // 4  # extensions, not builds

    def test_a_read_after_a_delete_or_assign_runs_from_empty(self):
        s = session(self.CHAIN)
        s.query("E{tc()}")
        program = program_of(s, "E{tc()}")
        s.relation("E").delete([("n5", "n6")])
        assert s.query("E{tc()}") == transitive_closure(
            [e for e in self.CHAIN if e != ("n5", "n6")]
        )
        assert (program.last, program.recomputes) == (("recomputed", 0), 2)
        s.assign("E", self.CHAIN[:3])
        assert s.query("E{tc()}") == transitive_closure(self.CHAIN[:3])
        assert program.recomputes == 3

    def test_every_appended_relation_seeds_the_resume(self):
        s = session([("a", "b")], [("b", "c")])
        text = "E{ahead(F)}"
        s.query(text)
        s.insert("E", [("c", "d")])
        s.insert("F", [("d", "e")])
        assert s.query(text) == s.query(text, mode="interpreted")
        assert program_of(s, text).last == ("resumed", 2)

    def test_the_stamp_names_the_base_versions_the_value_is_of(self):
        s = session(self.CHAIN, [("a", "b")])
        s.query("E{ahead(F)}")
        program = program_of(s, "E{ahead(F)}")
        assert program.stamp.keys() == {"E", "F"}
        s.insert("F", [("b", "c")])
        s.query("E{ahead(F)}")
        versions = {name: head[0] for name, head in program.stamp.items()}
        assert versions == {"E": s.relation("E").version, "F": s.relation("F").version}
        assert program.last == ("resumed", 1)

    def test_a_set_former_probes_the_held_index(self, monkeypatch):
        text = '{<r.dst> OF EACH r IN E{tc()}: r.src = "n1"}'
        s = session(self.CHAIN)
        s.query(text)
        program = program_of(s, text)
        (value,) = program.held.values()
        assert (0,) in value._views  # the top plan's probe, built once
        built = []
        original = HashIndex.__init__
        monkeypatch.setattr(
            HashIndex,
            "__init__",
            lambda index, positions, rows: built.append(1) or original(index, positions, rows),
        )
        assert s.query(text) == {(f"n{i}",) for i in range(2, 13)}
        assert s.query(text) == {(f"n{i}",) for i in range(2, 13)}
        assert built == []


class TestSubscriptionsAreClients:
    def test_a_set_former_over_a_constructed_range_never_interprets(
        self, monkeypatch
    ):
        """It used to run the reference fixpoint at subscribe and on every
        write, with every fallback counter at zero."""
        text = '{<r.dst> OF EACH r IN E{tc()}: r.src = "n1"}'
        detours = []
        original = Constructor.reference_value
        monkeypatch.setattr(
            Constructor,
            "reference_value",
            lambda self, *a: detours.append(self.name) or original(self, *a),
        )
        s = session(TestAdvanceOutcomes.CHAIN)
        sub = s.subscribe(text)
        for write in (
            lambda: s.insert("E", [("n12", "n13")]),
            lambda: s.insert("E", [("n0", "x")]),
            lambda: s.relation("E").delete([("n3", "n4")]),
        ):
            write()
            assert sub.rows() == s.query(text)
        assert detours == []
        assert sub.recomputes == 3  # the top plan recounted over the held value
        assert s.query(text, mode="interpreted") == sub.rows()
        assert detours

    def test_fixpoint_feed_is_the_held_logs_suffix(self):
        s = session(TestAdvanceOutcomes.CHAIN[:3])
        events = []
        sub = s.subscribe("E{tc()}", on_change=events.append)
        s.insert("E", [("n3", "n4")])
        s.relation("E").delete([("n0", "n1")])
        inserted, deleted = events[0].inserted, events[1].deleted
        assert inserted == {(f"n{i}", "n4") for i in range(4)}
        assert deleted == {("n0", f"n{i}") for i in range(1, 5)}
        assert (sub.delta_batches, sub.recomputes) == (1, 1)


def test_index_rows_never_hands_a_freed_sets_index_to_another():
    """An id-keyed cache that does not hold its rows hands a recycled id
    the index of the set that used to live there."""
    ctx = ExecutionContext(Database("ids"))
    for trial in range(200):
        first = {(trial, "a")}
        ctx.index_rows("token", first, (0,))
        del first
        second = {(trial + 1, "b")}
        index = ctx.index_rows("token", second, (0,))
        assert index.lookup(trial + 1) == [(trial + 1, "b")]


def test_readers_see_the_closure_of_a_committed_prefix():
    """A writer grows a chain edge by edge at its head while two readers
    read ``E{tc()}``: every read is the closure of some prefix the
    writer had committed, never a mix of two (a resume that read the
    live relation would join the deltas of one state with edges of a
    later one)."""
    n = 60
    chain = [(f"n{n - 1 - i}", f"n{n - i}") for i in range(n)]

    def closure(k):
        return {(f"n{a}", f"n{b}") for a in range(n - k, n) for b in range(a + 1, n + 1)}

    s = session(chain[:5])
    s.query("E{tc()}")
    # ``committed`` grows once an insert has returned, ``attempted`` before
    # it starts: the commit lands somewhere inside the call, so a read may
    # see edge i + 1 before ``committed`` says so, never before ``attempted``.
    committed, attempted = [5], [5]
    errors: list = []
    stop = threading.Event()

    def writer():
        try:
            for i in range(5, n):
                attempted.append(i + 1)
                s.insert("E", [chain[i]])
                committed.append(i + 1)
                time.sleep(0.0005)  # let commits land while reads advance
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)
        finally:
            stop.set()

    def reader():
        try:
            while not stop.is_set():
                low = committed[-1]
                rows = s.query("E{tc()}")
                high = attempted[-1]
                k = max(j for j in range(1, n + 1) if chain[j - 1] in rows)
                assert low <= k <= high, (low, k, high)
                assert rows == closure(k), k
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert s.query("E{tc()}") == closure(n)


def test_the_statistics_view_stays_exact_while_the_value_grows():
    """Planners read a held value's statistics without its program's
    lock while the program absorbs rounds: every read extends the view
    by exactly the rows it covers, so none is counted twice."""
    value = HeldValue(2)
    rounds = [{(f"n{r}", f"m{i}") for i in range(20)} for r in range(2000)]
    errors: list = []
    done = threading.Event()

    def absorber():
        for fresh in rounds:
            value.absorb(fresh)
        done.set()

    def reader():
        try:
            while not done.is_set():
                assert value.stats.row_count <= len(value.log)
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=absorber))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    exact = TableStats.from_rows(value, 2)
    assert value.stats.row_count == exact.row_count == len(value)
    assert [c.counts for c in value.stats.columns] == [c.counts for c in exact.columns]
