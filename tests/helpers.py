"""Shared test data, oracles, and the cross-executor property harness.

Kept out of ``conftest.py`` so test files can use plain ``from helpers
import ...`` imports: pytest's rootdir-based collection puts this
directory on ``sys.path``, whereas relative imports from ``conftest``
only work when the test tree is a package.

The **executor harness** (:func:`assert_executors_agree`,
:func:`assert_fixpoint_executors_agree`, and the seeded random
query/database generators) is the shared safety net of every executor
backend: one call runs a query or fixpoint under every registered
backend — columnar ``batch``, row-major ``rowbatch``, the ``tuple``
interpreter, and ``sharded`` parallel execution — plus the reference
calculus evaluator (and, for fixpoints, the interpreted semi-naive
engine), asserting byte-identical answers and sane est/act accounting.
``tests/test_executor_properties.py`` drives it over 50+ seeds; the
older per-backend suites reuse the same assertions.
"""

import random

from repro.calculus import Evaluator, dsl as d
from repro.relational import Database
from repro.types import INTEGER, STRING, record, relation_type

# -- the paper's CAD schema (sections 2.3 and 3.1) ---------------------------

PARTTYPE = STRING

OBJECTREC = record("objectrec", part=STRING, kind=STRING)
OBJECTREL = relation_type("objectrel", OBJECTREC, key=("part",))

INFRONTREC = record("infrontrec", front=STRING, back=STRING)
INFRONTREL = relation_type("infrontrel", INFRONTREC)

ONTOPREC = record("ontoprec", top=STRING, base=STRING)
ONTOPREL = relation_type("ontoprel", ONTOPREC)

AHEADREC = record("aheadrec", head=STRING, tail=STRING)
AHEADREL = relation_type("aheadrel", AHEADREC)

ABOVEREC = record("aboverec", high=STRING, low=STRING)
ABOVEREL = relation_type("aboverel", ABOVEREC)

#: The scene used throughout the tests.  The vase stands on the table,
#: the table is in front of the chair — the paper's motivating example
#: for mutual recursion ("a vase is ahead of a chair if the vase is on
#: top of a table which is in front of the chair").
SCENE_OBJECTS = [
    ("table", "furniture"),
    ("chair", "furniture"),
    ("door", "fixture"),
    ("rug", "textile"),
    ("vase", "decor"),
    ("lamp", "decor"),
    ("desk", "furniture"),
]
SCENE_INFRONT = [
    ("table", "chair"),
    ("chair", "door"),
    ("rug", "table"),
]
SCENE_ONTOP = [
    ("vase", "table"),
    ("lamp", "desk"),
]


def make_cad_db() -> Database:
    db = Database("cad")
    db.declare("Objects", OBJECTREL, SCENE_OBJECTS)
    db.declare("Infront", INFRONTREL, SCENE_INFRONT)
    db.declare("Ontop", ONTOPREL, SCENE_ONTOP)
    return db


# -- a generic directed graph -------------------------------------------------

EDGEREC = record("edgerec", src=STRING, dst=STRING)
EDGEREL = relation_type("edgerel", EDGEREC)


def make_edge_db(edges) -> Database:
    db = Database("graph")
    db.declare("E", EDGEREL, edges)
    return db


def transitive_closure(edges) -> set[tuple]:
    """Independent oracle used across the test suite."""
    closure = set(edges)
    while True:
        new = {(x, w) for (x, y) in closure for (z, w) in closure if y == z}
        if new <= closure:
            return closure
        closure |= new


# ---------------------------------------------------------------------------
# The cross-executor property harness
# ---------------------------------------------------------------------------

#: Every backend the harness cross-checks (the registry's full set).
ALL_EXECUTORS = ("batch", "vector", "rowbatch", "tuple", "sharded")

PROPREC = record("proprec", k=STRING, f=STRING, n=INTEGER)
PROP_RELATIONS = ("P", "Q", "S")


def forced_shard_config():
    """A ShardConfig that shards even tiny inputs across 3 workers.

    Correctness coverage must exercise the partition/merge machinery on
    the small randomized databases the generators produce — the
    production thresholds would run them unsharded.
    """
    from repro.compiler import ShardConfig

    return ShardConfig(workers=3, min_rows=0, rows_per_shard=1)


def random_prop_database(rng: random.Random) -> Database:
    """Three small relations over one shared, skewed key domain.

    Keys are drawn with quadratic skew (low ids are heavy) so hash
    joins see heavy buckets, grouped residual probes see repeated
    groups, and the sharded backend sees imbalanced partitions.
    """
    db = Database("prop")
    keyspace = rng.randint(2, 14)

    def skewed_key() -> str:
        return f"k{int(keyspace * rng.random() ** 2)}"

    for name in PROP_RELATIONS:
        count = rng.randint(0, 120)
        rows = {
            (skewed_key(), skewed_key(), rng.randrange(8)) for _ in range(count)
        }
        db.declare(name, relation_type(name.lower(), PROPREC), rows)
    return db


def random_prop_query(rng: random.Random):
    """A random query over :func:`random_prop_database`'s schema.

    Draws 1-3 bindings joined by equality chains, optional range and
    inequality restrictions, optional (possibly negated) existential
    and universal quantifiers, and optional (possibly negated)
    memberships — every predicate family the executors specialize.
    """
    join_attrs = ("k", "f")

    def one_branch():
        nvars = rng.randint(1, 3)
        variables = [f"v{i}" for i in range(nvars)]
        bindings = [
            d.each(v, rng.choice(PROP_RELATIONS)) for v in variables
        ]
        preds = []
        for i in range(1, nvars):
            preds.append(
                d.eq(
                    d.a(variables[rng.randrange(i)], rng.choice(join_attrs)),
                    d.a(variables[i], rng.choice(join_attrs)),
                )
            )
        if rng.random() < 0.5:  # histogram-priced range restriction
            op = rng.choice((d.lt, d.le, d.gt, d.ge, d.ne))
            preds.append(op(d.a(rng.choice(variables), "n"), rng.randrange(8)))
        if rng.random() < 0.6:  # quantifier (grouped-probe / fallback paths)
            rel_name = rng.choice(PROP_RELATIONS)
            outer = d.a(rng.choice(variables), rng.choice(join_attrs))
            body_attr = d.a("qs", rng.choice(join_attrs))
            if rng.random() < 0.5:
                quant = d.some("qs", rel_name, d.eq(body_attr, outer))
            else:
                quant = d.all_("qs", rel_name, d.ne(body_attr, outer))
            if rng.random() < 0.3:
                quant = d.not_(quant)
            preds.append(quant)
        if rng.random() < 0.4:  # membership / negation
            v = rng.choice(variables)
            member = d.in_(
                d.tup(d.a(v, "k"), d.a(v, "f"), d.a(v, "n")),
                rng.choice(PROP_RELATIONS),
            )
            if rng.random() < 0.5:
                member = d.not_(member)
            preds.append(member)
        if nvars == 1 and rng.random() < 0.3:
            targets = None  # identity branch
        else:
            targets = [
                d.a(rng.choice(variables), rng.choice(("k", "f", "n")))
                for _ in range(rng.randint(1, 3))
            ]
        pred = d.and_(*preds) if preds else d.TRUE
        return d.branch(*bindings, pred=pred, targets=targets)

    branches = [one_branch()]
    if rng.random() < 0.25:  # a second union arm exercises Dedup
        branches.append(one_branch())
    return d.query(*branches)


def assert_analyzer_clean(db: Database, query, params: dict | None = None) -> None:
    """The static analyzer must accept every program the harness runs.

    Generated queries exercise the same front door users do, so an
    error-level diagnostic on a valid program is an analyzer false
    positive — caught here across every seed the property suite draws.
    """
    from repro.analysis.checks import Scope, analyze_query
    from repro.types import BOOLEAN

    scope = Scope.from_db(db)
    for name, value in (params or {}).items():
        if hasattr(value, "rtype"):
            ptype = value.rtype
        elif isinstance(value, bool):
            ptype = BOOLEAN
        elif isinstance(value, int):
            ptype = INTEGER
        elif isinstance(value, str):
            ptype = STRING
        else:
            ptype = None
        scope.params[name] = ptype
    result = analyze_query(query, scope)
    errors = result.diagnostics.errors
    assert not errors, "analyzer rejected a valid program:\n" + "\n".join(
        diag.render() for diag in errors
    )


def assert_plan_accounting(plan, result_size: int) -> None:
    """est/act sanity of a just-executed plan.

    Estimates exist on every step, actual counters are consistent
    (non-negative, executions recorded), and the rendered explain text
    carries both numbers without crashing.
    """
    for branch in plan.branches:
        assert branch.executions >= 1
        assert len(branch.actual_rows) == len(branch.steps)
        assert all(count >= 0 for count in branch.actual_rows)
        assert branch.actual_emitted >= 0
        for step in branch.steps:
            assert step.est_cumulative is not None and step.est_cumulative >= 0
        assert branch.est_out is not None and branch.est_out >= 0
    text = plan.explain()
    assert "est=" in text and "act=" in text
    if plan.dedup.executions:
        assert plan.dedup.actual_rows == result_size


def assert_executors_agree(
    db: Database,
    query,
    params: dict | None = None,
    executors: tuple[str, ...] = ALL_EXECUTORS,
    shard_config=None,
) -> set:
    """Run ``query`` under every backend; assert identical answers.

    The reference calculus evaluator is the semantic oracle; each
    backend executes a freshly compiled plan (one per backend, so
    per-plan counters stay attributable) and the sharded backend runs
    under a forced-sharding configuration.  Returns the agreed rows.
    """
    from repro.compiler import ExecutionContext, compile_query

    assert_analyzer_clean(db, query, params)
    reference = Evaluator(db, params).eval_query(query)
    if shard_config is None:
        shard_config = forced_shard_config()
    for executor in executors:
        plan = compile_query(db, query, params=params)
        ctx = ExecutionContext(db, params=params)
        ctx.shard_config = shard_config
        rows = plan.execute(ctx, executor=executor)
        assert rows == reference, (
            f"executor {executor!r} diverged: "
            f"{len(rows)} rows vs {len(reference)} reference rows"
        )
        assert_plan_accounting(plan, len(rows))
    return reference


def assert_executors_agree_cold(
    db: Database,
    path: str,
    query,
    params: dict | None = None,
    executors: tuple[str, ...] = ALL_EXECUTORS,
    shard_config=None,
) -> set:
    """Storage-backed variant: every backend runs a freshly reopened
    on-disk database.

    A fresh :func:`repro.relational.open_database` per backend keeps
    every relation cold, so compiled scans hit the partition readers
    (projection/predicate pushdown, min/max pruning, partition shard
    units) instead of rows a previous backend already materialized.
    The in-memory ``db`` the data was spilled from is the oracle.
    """
    from repro.compiler import ExecutionContext, compile_query
    from repro.relational import open_database

    reference = Evaluator(db, params).eval_query(query)
    if shard_config is None:
        shard_config = forced_shard_config()
    for executor in executors:
        cold = open_database(path)
        plan = compile_query(cold, query, params=params)
        ctx = ExecutionContext(cold, params=params)
        ctx.shard_config = shard_config
        rows = plan.execute(ctx, executor=executor)
        assert rows == reference, (
            f"executor {executor!r} diverged on storage-backed relations: "
            f"{len(rows)} rows vs {len(reference)} reference rows"
        )
    return reference


def assert_fixpoint_executors_agree(
    db_factory,
    application,
    executors: tuple[str, ...] = ALL_EXECUTORS,
    shard_config=None,
    oracle: set | None = None,
) -> frozenset:
    """Cross-check a recursive construction across every backend.

    ``db_factory`` builds a fresh database per engine (plans and
    statistics must not leak between runs); the interpreted semi-naive
    engine is the baseline and ``oracle`` (e.g. a transitive-closure
    set) an optional independent witness.  Returns the agreed value.
    """
    from repro.compiler import ExecOptions, compile_fixpoint
    from repro.constructors import instantiate
    from repro.constructors.engines import seminaive_fixpoint

    if shard_config is None:
        shard_config = forced_shard_config()
    base_db = db_factory()
    assert_analyzer_clean(base_db, application)
    base_system = instantiate(base_db, application)
    expected = seminaive_fixpoint(base_db, base_system)[base_system.root]
    for executor in executors:
        db = db_factory()
        system = instantiate(db, application)
        program = compile_fixpoint(
            db,
            system,
            options=ExecOptions(executor=executor, shard_config=shard_config),
        )
        values = program.run()
        assert values[system.root] == expected, (
            f"fixpoint executor {executor!r} diverged: "
            f"{len(values[system.root])} vs {len(expected)} rows"
        )
    if oracle is not None:
        assert set(expected) == oracle
    return expected


# -- set formers over constructed ranges, through the session front door -----

FRONT_DOOR_SCHEMA = """
TYPE node    = STRING;
     edgerec = RECORD src, dst: node END;
     edgerel = RELATION ... OF edgerec;
VAR E: edgerel;
SELECTOR avoiding (N: node) FOR Rel: edgerel;
BEGIN EACH e IN Rel: e.src <> N AND e.dst <> N END avoiding;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <r.src, t.dst> OF EACH r IN Rel, EACH t IN Rel{tc()}: r.dst = t.src
END tc;
CONSTRUCTOR two FOR Rel: edgerel (): edgerel;
BEGIN <a.src, b.dst> OF EACH a IN Rel, EACH b IN Rel: a.dst = b.src
END two;
"""

#: Query templates, one ``%s`` per *compared* constant (the slots
#: ``parameterize`` abstracts); ``SEL`` is a selector argument, which
#: stays part of the shape.  Two equality slots on one attribute make a
#: constant-sensitive verdict (DBPL010/012 exactly when they differ).
FRONT_DOOR_TEMPLATES = (
    "E{tc()}",
    "{EACH r IN E{tc()}: TRUE}",
    '{<r.dst> OF EACH r IN E{tc()}: r.src = "%s"}',
    '{<r.src> OF EACH r IN E{tc()}: r.dst = "%s" AND r.src <> "%s"}',
    '{<r.dst> OF EACH r IN E{tc()}: r.src = "%s" AND r.src = "%s"}',
    '{EACH r IN E{two()}: r.src = "%s"}',
    "{<a.src, b.dst> OF EACH a IN E{tc()}, EACH b IN E{two()}: "
    'a.dst = b.src AND a.src = "%s"}',
    "{EACH e IN E: SOME t IN E{tc()} (t.src = e.dst AND t.dst = e.src)}",
    '{EACH e IN E: e.src <> "%s" AND SOME t IN E{two()} (t.src = e.dst)}',
    '{EACH r IN E[avoiding("SEL")]{tc()}: r.src = "%s"}',
    # Whole-row targets: a tuple variable as a value.
    '{<r> OF EACH r IN E: r.src <> "%s"}',
    '{<r, r.src> OF EACH r IN E{tc()}: r.dst = "%s"}',
    "{<r, f> OF EACH r IN E, EACH f IN E{tc()}: "
    'r.dst = f.src AND f.dst = "%s"}',
)


def random_front_door_session(rng: random.Random, **session_kwargs):
    """A session over one random digraph ``E`` plus its node names."""
    from repro.dbpl import Session

    nodes = [f"n{i}" for i in range(rng.randint(2, 9))]
    count = rng.randint(1, min(20, len(nodes) ** 2))
    edges = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)}
    session = Session(**session_kwargs)
    session.execute(FRONT_DOOR_SCHEMA)
    session.insert("E", sorted(edges))
    return session, nodes


def random_front_door_queries(rng: random.Random, nodes, count: int = 2) -> list:
    """``count`` draws of ``(template, constants, other constants)`` over
    distinct templates: ``template % constants`` is DBPL text, and both
    constant tuples fill the same slots."""
    out = []
    for template in rng.sample(FRONT_DOOR_TEMPLATES, count):
        template = template.replace("SEL", rng.choice(nodes))
        slots = template.count("%s")
        out.append(
            (
                template,
                tuple(rng.choice(nodes) for _ in range(slots)),
                tuple(rng.choice(nodes) for _ in range(slots)),
            )
        )
    return out


# -- standing-query (subscription) harness -----------------------------------


def clone_database(db: Database) -> Database:
    """A fresh Database with the same declarations and rows.

    Plans, statistics, and subscription registries do not carry over —
    each harness leg must observe only its own maintenance."""
    fresh = Database(db.name)
    for name, rel in db.relations.items():
        fresh.declare(name, rel.rtype, rel.raw())
    return fresh


def random_prop_mutations(rng: random.Random, db: Database) -> list:
    """A replayable insert/delete/assign script over the prop schema.

    Generated against ``db`` (mutating it along the way) so delete and
    assign batches reference rows that genuinely exist when the script
    replays against a fresh clone.  Delete batches also include absent
    rows — removing nothing must be a maintenance no-op."""

    def row() -> tuple:
        return (
            f"k{int(10 * rng.random() ** 2)}",
            f"k{int(10 * rng.random() ** 2)}",
            rng.randrange(8),
        )

    ops = []
    for _ in range(rng.randint(2, 6)):
        name = rng.choice(PROP_RELATIONS)
        rel = db.relation(name)
        kind = rng.choice(("insert", "insert", "delete", "assign"))
        if kind == "insert":
            rows = [row() for _ in range(rng.randint(1, 6))]
        elif kind == "delete":
            rows = [r for r in sorted(rel.raw()) if rng.random() < 0.3]
            rows.append(row())
        else:
            rows = [r for r in sorted(rel.raw()) if rng.random() < 0.6]
            rows.extend(row() for _ in range(rng.randint(0, 4)))
        getattr(rel, kind)(rows)
        ops.append((kind, name, rows))
    return ops


def standing_family(query, rng: random.Random, count: int = 50) -> list[str]:
    """DBPL texts of ``query`` and its standing-query family.

    The first text is ``query`` itself; then ``count`` same-shape
    variants with their compared constants re-drawn from the prop domain
    (duplicates included); then
    ``query`` plus a branch made dead by a contradictory constant pair
    (the front door prunes it, so it joins the family of ``query``);
    then two queries with an equality slot and a slot inside ``SOME``
    (a family of their own).
    """
    from repro.calculus.pretty import render_query
    from repro.calculus.subst import substitute_params
    from repro.dbpl.serving import parameterize

    shape, constants = parameterize(query)

    def fill(values) -> str:
        slots = {f"__bind_{i}": d.const(value) for i, value in enumerate(values)}
        return render_query(substitute_params(shape, slots))

    def redraw(value):
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return rng.randrange(8)
        return f"k{int(10 * rng.random() ** 2)}"

    # Three re-drawn constant tuples besides the query's own keep the
    # reference evaluator's work per batch at a handful of distinct texts.
    drawn = [constants] + [[redraw(c) for c in constants] for _ in range(3)]
    texts = [render_query(query)]
    texts += [fill(rng.choice(drawn)) for _ in range(count)]
    first = query.branches[0]
    var = first.bindings[0].var
    dead = d.branch(
        d.each("z", "P"),
        pred=d.and_(d.eq(d.a("z", "n"), 1), d.eq(d.a("z", "n"), 2)),
        targets=None if first.targets is None else [d.a("z", t.attr) for t in first.targets],
    )
    texts.append(render_query(d.query(*query.branches, dead)))
    for _ in range(2):
        some = d.some("w", "P", d.and_(
            d.eq(d.a("w", "k"), d.a(var, "k")), d.gt(d.a("w", "n"), rng.randrange(8))
        ))
        key = d.eq(d.a(var, "f"), f"k{int(4 * rng.random() ** 2)}")
        pred = d.and_(key, some) if first.pred == d.TRUE else d.and_(first.pred, key, some)
        texts.append(render_query(d.query(
            d.branch(*first.bindings, pred=pred, targets=first.targets)
        )))
    return texts


def assert_subscription_tracks(
    db_factory,
    query,
    mutations,
    executors: tuple[str, ...] = ALL_EXECUTORS,
    seed: int = 0,
) -> None:
    """Subscribe a standing family under every backend and replay a
    mutation script, subscribing and closing members between batches.

    ``query`` and its :func:`standing_family` subscribe through the
    session front door; before every batch a few members close and a few
    new ones (from the same family texts) join.  After every batch each
    live member's rows must equal the reference evaluator on the live
    database — the standing-query invariant ``sub.rows() == fresh
    query()`` — and a closed member keeps the rows it had.  Every
    member's change events must replay from its initial result to its
    final one (each event inserting only absent rows and deleting only
    present ones), and closing the last member leaves no family behind.
    """
    from repro.compiler import ExecOptions
    from repro.dbpl import Session, parse_expression

    rng = random.Random(seed)
    texts = standing_family(query, rng)
    initial, reserve = texts, texts[1:] * 2
    rng.shuffle(reserve)
    # Per (batch, text): every backend replays the same script.
    references: dict[tuple[int, str], set] = {}

    def reference(db, step: int, text: str) -> set:
        key = (step, text)
        if key not in references:
            references[key] = Evaluator(db).eval_query(parse_expression(text))
        return references[key]

    for executor in executors:
        db = db_factory()
        session = Session(db=db)
        options = ExecOptions(executor=executor)
        live: list = []

        def join(text: str, step: int) -> None:
            sub = session.subscribe(text, options=options)
            assert sub.rows() == reference(db, step, text), text
            live.append([text, sub, set(sub.rows())])

        def replay(member) -> None:
            text, sub, replayed = member
            for event in sub.changes():
                assert event.deleted <= replayed, text
                assert not (event.inserted & replayed), text
                replayed = (replayed - event.deleted) | event.inserted
            assert replayed == sub.rows(), text
            member[2] = replayed

        for text in initial:
            join(text, 0)
        # The pruned text joined the family of the query itself.
        assert live[-3][1].family is live[0][1].family
        joins = iter(reserve)
        closed: list = []
        for step, (kind, name, rows) in enumerate(mutations, 1):
            for _ in range(3):
                member = live.pop(rng.randrange(len(live)))
                replay(member)
                member[1].close()
                closed.append((member[1], member[1].rows()))
            for text in [next(joins) for _ in range(3)]:
                join(text, step - 1)
            getattr(db.relation(name), kind)(rows)
            for text, sub, _ in live:
                want = reference(db, step, text)
                assert sub.rows() == want, (
                    f"subscription under {executor!r} diverged after "
                    f"{kind} on {name}: {len(sub.rows())} rows vs "
                    f"{len(want)} reference rows\n{text}"
                )
            assert all(sub.rows() == rows_at_close for sub, rows_at_close in closed)
        for member in live:
            replay(member)
            member[1].close()
        assert not db.subscriptions.families
