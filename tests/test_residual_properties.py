"""Residual-shape property: a leftover predicate is a query over its groups.

Random residual predicates over :func:`helpers.random_prop_database`
must be decided by every executor exactly as the reference evaluator
decides them, and the columnar executors (``batch``, ``vector``) must
decide them with compiled plans — ``residual_evals == 0`` — except for
the named fallback shapes below.  The generator draws

* comparisons ``=``, ``<>``, ``<``, ``<=``, ``>``, ``>=`` of an attribute
  against an attribute, a constant or a parameter slot;
* ``AND``, ``OR`` and ``NOT``;
* ``SOME``, ``ALL`` and ``IN`` (a whole row or an attribute tuple),
  nested to depth 3;
* over every range kind: a relation, a static inline query, an inline
  query correlated with an enclosing variable, a fixpoint value, and an
  empty relation (a vacuous ``ALL``).

:data:`FALLBACK_SHAPES` are the ranges no plan can bind; the columnar
executors decide them through the evaluator, once per group.
"""

import random

import pytest
from helpers import (
    ALL_EXECUTORS,
    PROP_RELATIONS,
    PROPREC,
    assert_every_branch_lowered,
    assert_plan_accounting,
    forced_shard_config,
    random_prop_database,
)

from repro.calculus import Evaluator, ast, dsl as d
from repro.compiler import EXECUTOR_NAMES, ExecOptions, ExecutionContext, PlanStats, compile_query
from repro.dbpl import Session
from repro.types import relation_type

#: Run as CI's property step (``-m property``), not in its tier-1 step.
pytestmark = pytest.mark.property

#: The residual shapes the columnar executors still interpret: a range
#: that stays correlated with the row once inline queries are unnested.
FALLBACK_SHAPES = {
    "open application": "{EACH r IN R: SOME t IN S{from(r.a)} (t.b = 3)}",
    "selector with a correlated argument": "{EACH r IN R: SOME t IN S[above(r.a)] (t.b > r.b)}",
    "correlated inline query with a target list": (
        "{EACH r IN R: SOME t IN {<u.b> OF EACH u IN S: u.a = r.a} (t.b > 1)}"
    ),
}

#: The fixpoint value every drawn query may range over.
FIX = ast.ApplyVar("fix", PROPREC)
STRINGS = ("k", "f")
COMPARISONS = (d.eq, d.ne, d.lt, d.le, d.gt, d.ge)
#: Parameter slots, one per attribute type.
PARAMS = {"ps": "k1", "pn": 3}


class _Draw:
    """One random residual predicate over the variables in scope."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.names = 0

    def fresh(self, hint: str) -> str:
        self.names += 1
        return f"{hint}{self.names}"

    def comparison(self, scope):
        rng = self.rng
        var = rng.choice(scope)
        attr = rng.choice(("k", "f", "n"))
        left = d.a(var, attr)
        pick = rng.random()
        if pick < 0.4:
            right = d.a(rng.choice(scope), "n" if attr == "n" else rng.choice(STRINGS))
        elif pick < 0.75:
            right = d.const(rng.randrange(8) if attr == "n" else f"k{rng.randrange(6)}")
        else:
            right = d.param("pn" if attr == "n" else "ps")
        return rng.choice(COMPARISONS)(left, right)

    def range(self, scope):
        rng = self.rng
        kind = rng.choice(("relation", "static", "correlated", "fixpoint", "empty"))
        if kind == "relation":
            return d.rel(rng.choice(PROP_RELATIONS))
        if kind == "fixpoint":
            return FIX
        if kind == "empty":
            return d.rel("E")
        inner = self.fresh("y")
        if kind == "static":
            pred = d.lt(d.a(inner, "n"), rng.randrange(1, 8))
        else:
            pred = d.eq(d.a(inner, rng.choice(STRINGS)), d.a(rng.choice(scope), rng.choice(STRINGS)))
        return d.inline(d.query(d.branch(d.each(inner, rng.choice(PROP_RELATIONS)), pred=pred)))

    def pred(self, scope, depth: int = 0, nesting: int = 0):
        rng = self.rng
        pick = rng.random()
        if depth >= 4 or pick < 0.3:
            return self.comparison(scope)
        if pick < 0.42:
            return d.and_(self.pred(scope, depth + 1, nesting), self.pred(scope, depth + 1, nesting))
        if pick < 0.54:
            return d.or_(self.pred(scope, depth + 1, nesting), self.pred(scope, depth + 1, nesting))
        if pick < 0.62:
            return d.not_(self.pred(scope, depth + 1, nesting))
        if nesting >= 3:
            return self.comparison(scope)
        if pick < 0.85:
            var = self.fresh("q")
            body = self.pred([*scope, var], depth + 1, nesting + 1)
            quantifier = d.some if rng.random() < 0.5 else d.all_
            return quantifier(var, self.range(scope), body)
        outer = rng.choice(scope)
        if rng.random() < 0.5:
            element = d.v(outer)
        else:
            element = d.tup(
                d.a(rng.choice(scope), rng.choice(STRINGS)),
                d.a(rng.choice(scope), rng.choice(STRINGS)),
                d.a(rng.choice(scope), "n"),
            )
        return d.in_(element, self.range(scope))


def _draw_case(seed: int):
    """(database, fixpoint value, query) for one seed."""
    rng = random.Random(seed)
    db = random_prop_database(rng)
    db.declare("E", relation_type("e", PROPREC), set())
    fix = {row for name in PROP_RELATIONS for row in db[name].raw() if rng.random() < 0.2}
    scope = [f"v{i}" for i in range(rng.randint(1, 2))]
    bindings = [d.each(v, rng.choice(PROP_RELATIONS)) for v in scope]
    preds = [d.eq(d.a(scope[0], rng.choice(STRINGS)), d.a(v, rng.choice(STRINGS))) for v in scope[1:]]
    preds.append(_Draw(rng).pred(scope))
    targets = [d.a(v, attr) for v in scope for attr in ("k", "n")]
    return db, fix, d.query(d.branch(*bindings, pred=d.and_(*preds), targets=targets))


@pytest.mark.parametrize("seed", range(150))
def test_residual_shapes_agree(seed, pipeline_requests):
    db, fix, query = _draw_case(seed)
    apply_values = {"fix": fix}
    expected = Evaluator(db, PARAMS, apply_values).eval_query(query)
    for executor in ALL_EXECUTORS:
        plan = compile_query(db, query, PARAMS)
        stats = PlanStats()
        ctx = ExecutionContext(db, PARAMS, apply_values, stats)
        ctx.shard_config = forced_shard_config()
        assert plan.execute(ctx, executor=executor) == expected, executor
        assert_plan_accounting(plan, len(expected))
        if executor in ("batch", "vector"):
            assert stats.residual_evals == 0, (executor, plan.explain())
            assert stats.residual_groups <= stats.residual_checks
    assert_every_branch_lowered(pipeline_requests)


SCHEMA = """
TYPE rrec = RECORD a, b: INTEGER END; rrel = RELATION ... OF rrec;
VAR R: rrel; S: rrel;
SELECTOR above (x: INTEGER) FOR Rel: rrel;
BEGIN EACH t IN Rel: t.a > x END above;
CONSTRUCTOR from FOR Rel: rrel (x: INTEGER): rrel;
BEGIN EACH r IN Rel: r.a = x,
      <t.a, r.b> OF EACH t IN Rel{from(x)}, EACH r IN Rel: t.b = r.a END from;
"""


@pytest.mark.parametrize("shape", FALLBACK_SHAPES)
def test_fallback_shapes_agree_and_evaluate_once_per_group(shape):
    text = FALLBACK_SHAPES[shape]
    session = Session()
    session.execute(SCHEMA)
    session.insert("R", [(1, 1), (2, 2), (2, 5), (3, 3)])
    session.insert("S", [(1, 2), (2, 3), (3, 4), (4, 3)])
    expected = session.query(text, mode="interpreted")
    for executor in EXECUTOR_NAMES:
        prepared = session.prepare(text, options=ExecOptions(executor=executor))
        stats = PlanStats()
        assert prepared.execute(stats=stats) == expected, executor
        if executor in ("batch", "vector"):
            assert 0 < stats.residual_evals == stats.residual_groups <= stats.residual_checks
