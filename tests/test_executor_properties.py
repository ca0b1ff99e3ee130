"""Cross-executor property suite: every backend, one oracle, 50+ seeds.

The unified safety net behind the :mod:`repro.compiler.executors`
registry: seeded random schemas, skewed data, joins, range
restrictions, quantifiers, memberships, and negation are drawn by the
generators in :mod:`helpers`, and every registered backend — columnar
``batch``, row-major ``rowbatch``, the ``tuple`` interpreter, and the
``sharded`` parallel backend (forced into multi-shard mode so the
partition/merge machinery actually runs on small inputs) — must return
byte-identical answers to the reference calculus evaluator, with sane
est/act accounting on every compiled plan.  Random recursive fixpoints
additionally cross-check the interpreted semi-naive engine and an
independent transitive-closure oracle, and set formers *over*
constructed ranges go through the session front door (query, prepare,
rebinding, re-execution after a write) against ``mode="interpreted"``.

This is the harness the pre-registry 50-seed suites
(``test_batched_executor.py``, ``test_columnar.py``) refactored onto;
their remaining files keep only the backend-specific shape and counter
tests.
"""

import random

import pytest

from helpers import (
    ALL_EXECUTORS,
    FRONT_DOOR_TEMPLATES,
    assert_every_branch_lowered,
    assert_executors_agree,
    assert_executors_agree_cold,
    assert_fixpoint_executors_agree,
    forced_shard_config,
    random_front_door_queries,
    random_front_door_session,
    random_prop_database,
    random_prop_query,
    transitive_closure,
)
from repro import paper
from repro.calculus import dsl as d
from repro.calculus import ast
from repro.calculus.evaluator import Evaluator
from repro.compiler import ExecOptions, ShardConfig
from repro.constructors.definition import Constructor
from repro.relational.vectors import get_numpy

#: Run as CI's property step (``-m property``), not in its tier-1 step.
pytestmark = pytest.mark.property


#: The suite's seed budget (the acceptance bar is >=50; with the
#: storage-backed leg the harness spans 110+ seeds overall).
QUERY_SEEDS = 60
FIXPOINT_SEEDS = 50
STORAGE_SEEDS = 50
FRONT_DOOR_SEEDS = 40


@pytest.mark.parametrize("seed", range(QUERY_SEEDS))
def test_random_queries_agree_across_executors(seed, pipeline_requests):
    rng = random.Random(seed)
    db = random_prop_database(rng)
    for _ in range(2):  # two draws per seed: more shapes per database
        query = random_prop_query(rng)
        assert_executors_agree(db, query)
    assert_every_branch_lowered(pipeline_requests)


@pytest.mark.parametrize("seed", range(FIXPOINT_SEEDS))
def test_random_fixpoints_agree_across_executors(seed, pipeline_requests):
    rng = random.Random(1000 + seed)
    nodes = rng.randint(2, 12)
    count = rng.randint(0, min(30, nodes * nodes))
    edges = sorted(
        {
            (f"n{rng.randrange(nodes)}", f"n{rng.randrange(nodes)}")
            for _ in range(count)
        }
    )
    assert_fixpoint_executors_agree(
        lambda: paper.cad_database(infront=edges, mutual=False),
        d.constructed("Infront", "ahead"),
        oracle=transitive_closure(edges),
    )
    assert_every_branch_lowered(pipeline_requests)


@pytest.mark.parametrize("seed", range(STORAGE_SEEDS))
def test_random_queries_agree_on_storage_backed_relations(seed, tmp_path, pipeline_requests):
    """Spill → reopen → every backend still matches the oracle.

    Tiny partitions force multi-partition layouts even on the small
    generated relations, so min/max pruning, projection pushdown, and
    the sharded backend's partition-file shard units all engage.  The
    persisted statistics round-trip is asserted on the way through.
    """
    from repro.relational import open_database

    rng = random.Random(2000 + seed)
    db = random_prop_database(rng)
    path = str(tmp_path / "prop")
    db.spill(path, rows_per_partition=16)
    reopened = open_database(path)
    for name in ("P", "Q", "S"):
        assert reopened.relation(name).stats().row_count == len(
            db.relation(name)
        )
        assert reopened.relation(name).is_cold
    query = random_prop_query(rng)
    assert_executors_agree_cold(db, path, query)
    assert_every_branch_lowered(pipeline_requests)


@pytest.mark.parametrize("seed", range(FRONT_DOOR_SEEDS))
def test_constructed_ranges_in_set_formers_through_the_front_door(seed, pipeline_requests):
    """The paper's central move: ``E{tc()}`` is a range like any other.

    ``Session.query`` ≡ the oracle on every executor; a prepared handle
    ≡ ``query`` with its own and with rebound constants; the cached
    program re-runs against live state after a write, and against the
    pinned state under a snapshot taken before it; nothing falls back;
    and one shape is one plan-cache entry.
    """
    rng = random.Random(3000 + seed)
    s, nodes = random_front_door_session(rng)
    drawn = random_front_door_queries(rng, nodes)
    handles, answers = [], []
    for shapes, (template, constants, other) in enumerate(drawn, start=1):
        text, rebound = template % constants, template % other
        prepared = s.prepare(text)
        handles.append(prepared)
        answers.append(s.query(text, mode="interpreted"))
        assert s.query(text) == prepared.execute() == answers[-1], text
        assert (
            s.query(rebound)
            == prepared.execute(*other)
            == s.query(rebound, mode="interpreted")
        ), rebound
        assert len(s.plan_cache) == shapes, text
    # One more edge and one fewer: a snapshot taken before still answers
    # the old value, and the cached programs must not serve it live.
    snapshot = s.snapshot()
    pinned = ExecOptions(snapshot=snapshot)
    s.insert("E", [(rng.choice(nodes), "fresh")])
    s.relation("E").delete([rng.choice(sorted(snapshot["E"].raw_list()))])
    for prepared, (template, constants, _), answer in zip(handles, drawn, answers):
        text = template % constants
        assert s.query(text, mode="interpreted", options=pinned) == answer, text
        assert prepared.execute(snapshot=snapshot) == answer, text
        for executor in ALL_EXECUTORS:
            options = ExecOptions(
                executor=executor, shard_config=forced_shard_config()
            )
            assert s.query(text, options=pinned.over(options)) == answer, (text, executor)
            handle = s.prepare(text, options=options)
            assert handle.execute(snapshot=snapshot) == answer, (text, executor)
    for prepared, (template, constants, _) in zip(handles, drawn):
        text = template % constants
        oracle = s.query(text, mode="interpreted")
        assert s.query(text) == prepared.execute() == oracle, text
        for executor in ALL_EXECUTORS:
            options = ExecOptions(
                executor=executor, shard_config=forced_shard_config()
            )
            assert s.query(text, options=options) == oracle, (text, executor)
    degraded = {kind for kind, count in s.fallbacks.items() if count}
    assert degraded <= ({"vector_numpy"} if get_numpy() is None else set())
    assert "lowering" not in s.fallbacks
    assert_every_branch_lowered(pipeline_requests)


@pytest.mark.parametrize(
    "source",
    [
        '{<r.dst> OF EACH r IN E{tc()}: r.src = "n1"}',
        "{EACH e IN E: SOME t IN E{tc()} (t.src = e.dst AND t.dst = e.src)}",
    ],
)
def test_no_interpreter_detour_behind_a_constructed_range(source, monkeypatch):
    """Clock-free guard: the fixpoint is a generated program bound as an
    apply value, never a ``computed`` source or a residual range the
    reference engine re-derives per execution."""
    s, _ = random_front_door_session(random.Random(5))
    detours = []
    original = Constructor.reference_value
    monkeypatch.setattr(
        Constructor,
        "reference_value",
        lambda self, *a: detours.append(self.name) or original(self, *a),
    )
    assert s.query(source) == s.query(source) != set()
    assert detours == []
    (key,) = s.plan_cache.keys()
    cached = s.plan_cache.get(key, s.db.stats.epoch()).plan
    for branch in cached.statement.top_plan.branches:
        for step in branch.steps:
            assert not isinstance(step.source.rexpr, ast.Constructed)
        assert not any(
            isinstance(n, ast.Constructed) for n in ast.walk(branch.residual)
        )
    text = cached.explain()
    assert "fixpoint program for E{tc}" in text and "@tc" in text
    assert s.query(source, mode="interpreted") == s.query(source)
    assert detours  # the oracle does go through the reference engine


def test_front_door_never_hands_a_query_to_the_interpreter(monkeypatch):
    """Clock-free guard: ``query`` and ``prepare`` (mode ``"auto"``) never
    call ``Evaluator.eval_query`` — the front door's interpreted fallback
    is gone — on any front-door template, under any executor.  Residual
    filters still use the evaluator's predicate and range methods."""
    s, nodes = random_front_door_session(random.Random(9))
    calls = []
    original = Evaluator.eval_query
    monkeypatch.setattr(
        Evaluator,
        "eval_query",
        lambda self, *a, **k: calls.append(a) or original(self, *a, **k),
    )
    for template in FRONT_DOOR_TEMPLATES:
        text = template.replace("SEL", nodes[0]) % ((nodes[-1],) * template.count("%s"))
        for executor in ALL_EXECUTORS:
            options = ExecOptions(executor=executor)
            s.query(text, options=options)
            s.prepare(text, options=options).execute()
    assert calls == []
    s.query(text, mode="interpreted")
    assert calls  # the oracle does


def test_single_worker_config_degrades_to_batch():
    """workers=1 must run unsharded and still agree everywhere."""
    rng = random.Random(7)
    db = random_prop_database(rng)
    query = random_prop_query(rng)
    rows = assert_executors_agree(
        db, query, shard_config=ShardConfig(workers=1, min_rows=0)
    )
    assert rows == assert_executors_agree(db, query)


def test_process_pool_shards_agree():
    """The opt-in fork-based process pool returns identical answers."""
    rng = random.Random(11)
    db = random_prop_database(rng)
    config = ShardConfig(workers=3, min_rows=0, rows_per_shard=1, pool="process")
    for _ in range(3):
        query = random_prop_query(rng)
        assert_executors_agree(
            db, query, executors=("sharded",), shard_config=config
        )


def test_parameterized_queries_agree():
    """Parameters flow through every backend identically."""
    rng = random.Random(13)
    db = random_prop_database(rng)
    query = d.query(
        d.branch(
            d.each("x", "P"), d.each("y", "Q"),
            pred=d.and_(
                d.eq(d.a("x", "f"), d.a("y", "k")),
                d.ge(d.a("x", "n"), d.param("cut")),
            ),
            targets=[d.a("x", "k"), d.a("y", "f"), d.a("x", "n")],
        )
    )
    assert_executors_agree(db, query, params={"cut": 3})


def test_shard_config_module_default_used(monkeypatch):
    """With no per-context config the backend reads the module default."""
    from repro.compiler import sharded as sharded_mod

    rng = random.Random(17)
    db = random_prop_database(rng)
    query = random_prop_query(rng)
    monkeypatch.setattr(
        sharded_mod, "DEFAULT_CONFIG", forced_shard_config()
    )
    assert_executors_agree(db, query, shard_config=False)  # falsy → module default


def test_executor_list_matches_registry():
    from repro.compiler import EXECUTORS, get_backend

    assert set(ALL_EXECUTORS) == set(EXECUTORS)
    for name in EXECUTORS:
        assert get_backend(name).name == name
    with pytest.raises(ValueError, match="unknown executor"):
        get_backend("async")
