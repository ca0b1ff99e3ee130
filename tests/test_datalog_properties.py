"""The Datalog door property: rules over the live database.

Seeded random positive programs — mutual recursion, comparison literals,
constants in heads and bodies, IDB seed facts — are declared into a
session's database (``DatalogEngine(program, session.db)``).  After
random ``insert``/``delete`` writes, on every executor, the bound
engine's compiled answers equal a fresh fact-dict engine's
``solve(mode="seminaive")`` and the bound engine's own ``solve_naive``;
its held goal programs hit on a re-ask with no write, resume after an
insert and run from empty after a delete; and the session front door
(``query`` and ``subscribe`` over ``p__base{c_p}``) agrees with
``engine.query``.
"""

import itertools
import random

import pytest

from helpers import forced_shard_config
from repro.compiler import ExecOptions
from repro.compiler.executors import executor_names
from repro.datalog import Atom, DatalogEngine, Var, parse_program
from repro.dbpl import Session

#: Run as CI's property step (``-m property``), not in its tier-1 step.
pytestmark = pytest.mark.property

SEEDS = 25
DOMAIN = range(6)
SCHEMA = """
TYPE erec = RECORD x, y: INTEGER END;
     erel = RELATION x, y OF erec;
     urec = RECORD x: INTEGER END;
     urel = RELATION x OF urec;
VAR e: erel;
VAR u: urel;
"""
ARITY = {"e": 2, "u": 1, "p": 2, "q": 2, "r": 1}
IDB = ("p", "q", "r")
CMP_OPS = ("<", "=<", ">", ">=", "=", "\\=")


def random_rule(rng: random.Random, head: str, base: bool) -> str:
    """A safe rule for ``head``: 1-3 body atoms (EDB only when ``base``),
    perhaps a comparison, head terms drawn from the bound variables or
    constants."""
    preds = ("e", "u") if base else ("e", "u", "p", "q", "r")
    body, bound = [], []
    for _ in range(rng.randint(1, 3)):
        pred = rng.choice(preds)
        terms = []
        for _ in range(ARITY[pred]):
            if rng.random() < 0.15:
                terms.append(str(rng.choice(DOMAIN)))
            else:
                var = rng.choice("XYZW")
                terms.append(var)
                bound.append(var)
        body.append(f"{pred}({', '.join(terms)})")
    if not bound:
        body.append("u(V)")
        bound.append("V")
    if rng.random() < 0.4:
        left = rng.choice(bound)
        right = rng.choice(bound + [str(rng.choice(DOMAIN))])
        body.append(f"{left} {rng.choice(CMP_OPS)} {right}")
    head_terms = [
        str(rng.choice(DOMAIN)) if rng.random() < 0.15 else rng.choice(bound)
        for _ in range(ARITY[head])
    ]
    return f"{head}({', '.join(head_terms)}) :- {', '.join(body)}."


def random_program(rng: random.Random) -> str:
    rules = [
        # p is recursive whatever else is drawn, so a goal holds a program.
        "p(X, Y) :- e(X, Y).",
        "p(X, Y) :- e(X, Z), p(Z, Y).",
        # q and r call each other: one mutually recursive clique.
        "q(X, Y) :- p(X, Y), r(Y).",
        "r(Y) :- q(X, Y), u(X).",
    ]
    for head in IDB:
        rules.append(random_rule(rng, head, base=True))
        for _ in range(rng.randint(0, 2)):
            rules.append(random_rule(rng, head, base=False))
    for _ in range(rng.randint(0, 2)):  # IDB seed facts
        head = rng.choice(IDB)
        rules.append(f"{head}({', '.join(str(rng.choice(DOMAIN)) for _ in range(ARITY[head]))}).")
    return "\n".join(rules)


def goal(pred: str) -> Atom:
    return Atom(pred, tuple(Var(f"X{i}") for i in range(ARITY[pred])))


def rows_of(session: Session) -> dict:
    return {name: set(session.relation(name).rows()) for name in ("e", "u")}


def random_write(rng: random.Random, session: Session, op: str) -> None:
    name = rng.choice(("e", "u"))
    present = session.relation(name).rows()
    absent = sorted(set(itertools.product(DOMAIN, repeat=ARITY[name])) - present)
    if op == "delete" and present or not absent:
        session.relation(name).delete([rng.choice(sorted(present))])
    else:
        session.insert(name, [rng.choice(absent)])


def assert_engines_agree(engine: DatalogEngine, program, session: Session) -> None:
    want = DatalogEngine(program, rows_of(session)).solve(mode="seminaive")
    assert engine.solve_naive() == want
    for name in executor_names():
        options = ExecOptions(
            executor=name,
            shard_config=forced_shard_config() if name == "sharded" else None,
        )
        got = engine.solve(mode="compiled", options=options)
        for pred in IDB:
            assert got[pred] == want[pred], (name, pred)
    for pred in IDB:
        assert engine.query(goal(pred), "compiled") == want[pred], pred
        assert session.query(f"{pred}__base{{c_{pred}}}") == want[pred], pred


def held_programs(engine: DatalogEngine, bases: str) -> list:
    """Every held program of ``p``'s goal that reads relation ``bases``."""
    statement = engine.statement(goal("p"))
    return [p for p in statement.programs if bases in p.bases]


@pytest.mark.parametrize("seed", range(SEEDS))
def test_bound_engine_matches_the_oracles_under_writes(seed):
    rng = random.Random(seed)
    session = Session()
    session.execute(SCHEMA)
    for name in ("e", "u"):
        rows = {tuple(rng.choices(DOMAIN, k=ARITY[name])) for _ in range(rng.randint(2, 9))}
        session.insert(name, sorted(rows))
    program = parse_program(random_program(rng))
    engine = DatalogEngine(program, session.db)
    subscription = session.subscribe("p__base{c_p}")

    assert_engines_agree(engine, program, session)
    engine.query(goal("p"), "compiled")
    engine.query(goal("p"), "compiled")
    programs = held_programs(engine, "e")
    assert {p.last for p in programs} == {("hit", 0)}

    # The subscription reads the goal's program: each commit advances it
    # (a resume after inserts, a run from empty after a delete), and the
    # goal's next read is a hit.
    random_write(rng, session, "insert")
    session.insert("e", [(9, 9)])
    assert {p.last[0] for p in programs} == {"resumed"}
    engine.query(goal("p"), "compiled")
    assert {p.last for p in programs} == {("hit", 0)}
    assert_engines_agree(engine, program, session)

    recomputes = [p.recomputes for p in programs]
    for _ in range(3):
        random_write(rng, session, rng.choice(("insert", "delete")))
    session.relation("e").delete([(9, 9)])
    assert all(p.recomputes > n for p, n in zip(programs, recomputes))
    engine.query(goal("p"), "compiled")
    assert {p.last for p in programs} == {("hit", 0)}
    assert_engines_agree(engine, program, session)
    assert subscription.rows() == engine.query(goal("p"), "compiled")
