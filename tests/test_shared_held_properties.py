"""One held value per closed application, read by every statement.

The database holds each closed application's fixpoint program once
(``Database.programs``): front-door shapes, prepared handles, bound
Datalog goals and subscription families over ``e{tc()}`` — or over
either half of the ``ahead``/``above`` system — read one value, under
its program's lock.  The unit tests pin the sharing and the program's
lifetime; the property interleaves every kind of reader over shared
applications with one writer thread and checks each read against the
reference evaluator.
"""

import gc
import random
import sys
import threading
import time

import pytest

from repro.compiler import ExecOptions
from repro.datalog import DatalogEngine, parse_atom, parse_program
from repro.dbpl import Session

SCHEMA = """
TYPE node = STRING; edgerec = RECORD src, dst: node END;
     edgerel = RELATION ... OF edgerec;
VAR e, f: edgerel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <t.src, r.dst> OF EACH t IN Rel{tc()}, EACH r IN Rel: t.dst = r.src
END tc;
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
"""

PATH = """
path(X, Y) :- e(X, Y).
path(X, Y) :- e(X, Z), path(Z, Y).
"""

#: Shapes over the two shared systems; ``%s`` is a node.
SHAPES = (
    "e{tc()}",
    '{<r.dst> OF EACH r IN e{tc()}: r.src = "%s"}',
    "{EACH t IN e{tc()}: t.src = t.dst}",
    "e{ahead(f)}",
    "f{above(e)}",
    '{EACH t IN f{above(e)}: t.dst = "%s"}',
)

PROPERTY_SEEDS = 30
NODES = [f"n{i}" for i in range(6)]


def session(e=(), f=()) -> Session:
    s = Session()
    s.execute(SCHEMA)
    s.insert("e", e)
    s.insert("f", f)
    return s


def test_above_reads_the_program_ahead_compiled():
    s = session([("a", "b"), ("b", "c")], [("c", "d")])
    s.query("e{ahead(f)}")
    assert s.query("f{above(e)}") == s.query("f{above(e)}", mode="interpreted")
    ahead = s.prepare("e{ahead(f)}").plan.statement
    above = s.prepare("f{above(e)}").plan.statement
    assert ahead.programs == above.programs
    (program,) = above.programs
    assert (program.last, program.recomputes) == (("hit", 0), 1)
    assert len(set(s.db.programs.values())) == 1


def test_every_shape_over_an_application_reads_one_value():
    s = session([(f"n{i}", f"n{i + 1}") for i in range(5)])
    texts = [SHAPES[0], SHAPES[1] % "n1", SHAPES[1] % "n2", SHAPES[2]]
    for text in texts:
        assert s.query(text) == s.query(text, mode="interpreted")
    programs = {p for text in texts for p in s.prepare(text).plan.statement.programs}
    (program,) = programs
    assert (program.recomputes, program.hits) == (1, 3)


def test_a_program_is_collected_with_its_last_statement():
    s = Session(plan_cache_size=1)
    s.execute(SCHEMA)
    s.insert("e", [("a", "b"), ("b", "c")])
    s.query("e{tc()}")
    (program,) = s.db.programs.values()
    sub = s.subscribe("e{tc()}")
    s.query("e")  # evicts the plan-cache entry; the subscription holds on
    assert list(s.db.programs.values()) == [program]
    sub.close()
    del program, sub
    gc.collect()
    assert not s.db.programs


def replay(rows, events):
    rows = set(rows)
    for event in events:
        rows = (rows - event.deleted) | event.inserted
    return rows


@pytest.mark.property
@pytest.mark.parametrize("seed", range(PROPERTY_SEEDS))
def test_shared_values_under_a_writer_thread(seed):
    """Three readers and one writer over shared applications.

    Readers interleave front-door shapes (some bound, some prepared),
    bound Datalog goals, snapshot reads and subscription reads.  A
    snapshot read must equal the reference evaluator at that snapshot;
    a live read must equal the reference at some state the writer
    committed while it ran.  Only ``e`` moves, so every pinned read is
    of one committed state.
    """
    rng = random.Random(31_000 + seed)
    s = session(
        {tuple(rng.sample(NODES, 2)) for _ in range(rng.randint(3, 8))},
        {tuple(rng.sample(NODES, 2)) for _ in range(rng.randint(1, 4))},
    )
    engine = DatalogEngine(parse_program(PATH), s.db)
    reference = session(f=s.relation("f").rows())
    subs = {}
    for text in (SHAPES[0], SHAPES[1] % "n0", SHAPES[4]):
        events = []
        subs[text] = (s.subscribe(text, on_change=events.append), s.query(text), events)
    #: The value of ``e`` at every state the writer committed or is
    #: committing (the last one may still be in flight).
    states = [s.relation("e").rows()]
    oracle_lock = threading.Lock()
    oracles: dict = {}

    def oracle(i, text):
        with oracle_lock:
            if (i, text) not in oracles:
                reference.assign("e", states[i])
                oracles[i, text] = reference.query(text, mode="interpreted")
            return oracles[i, text]

    def goal_text(node):
        return f'{{EACH t IN e{{tc()}}: t.src = "{node}"}}'

    def live(text, read, *args, **kwargs):
        low = len(states) - 2
        got = read(*args, **kwargs)
        high = len(states)
        assert any(got == oracle(i, text) for i in range(max(low, 0), high)), text

    stop = threading.Event()
    errors: list = []

    def writer():
        try:
            for _ in range(16):
                rows = set(states[-1])
                present = sorted(rows)
                if present and rng.random() < 0.35:
                    gone = rng.sample(present, rng.randint(1, min(2, len(present))))
                    states.append(frozenset(rows - set(gone)))
                    s.relation("e").delete(gone)
                else:
                    fresh = {tuple(rng.sample(NODES, 2)) for _ in range(rng.randint(1, 2))}
                    states.append(frozenset(rows | fresh))
                    s.insert("e", sorted(fresh))
                time.sleep(0.002)
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)
        finally:
            stop.set()

    def reader(k):
        local = random.Random(seed * 10 + k)
        executors = [ExecOptions(), ExecOptions(executor="vector")]
        try:
            while not stop.is_set():
                node = local.choice(NODES)
                text = local.choice(SHAPES)
                text = text % node if "%s" in text else text
                options = local.choice(executors)
                kind = local.randrange(5)
                if kind == 0:
                    live(text, s.query, text, options=options)
                elif kind == 1:
                    live(text, s.prepare(text, options=options).execute)
                elif kind == 2:
                    goal = parse_atom(f'path("{node}", Y)')
                    live(goal_text(node), engine.query, goal, "compiled", options=options)
                elif kind == 3:
                    pinned = options.replace(snapshot=s.snapshot())
                    want = s.query(text, mode="interpreted", options=pinned)
                    assert s.query(text, options=pinned) == want, text
                    goal = parse_atom(f'path("{node}", Y)')
                    assert engine.query(goal, "compiled", options=pinned) == engine.query(
                        goal, "seminaive", options=pinned
                    )
                else:
                    sub_text = local.choice(list(subs))
                    live(sub_text, subs[sub_text][0].rows)
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(3)]
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
    final = len(states) - 1
    for text, (sub, initial, events) in subs.items():
        want = oracle(final, text)
        assert sub.rows() == want == s.query(text), text
        assert replay(initial, events) == want, text
