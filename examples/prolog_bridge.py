"""The section 3.4 equivalence lemma, live: four engines, one answer set.

Takes a same-generation Datalog program, translates it into constructors,
and evaluates it with (1) the constructor fixpoint engine, (2) the
bottom-up Datalog engine, (3) SLD resolution, and (4) the tabled
top-down engine — then shows SLD looping on cyclic data while the
set-oriented engines terminate.

    $ python examples/prolog_bridge.py
"""

from repro.constructors import construct
from repro.datalog import DatalogEngine, declare_program, parse_atom, parse_program
from repro.prolog import DepthLimitExceeded, KnowledgeBase, SLDEngine, TabledEngine
from repro.relational import Database

SG = """
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
"""

EDB = {
    "flat": {("a1", "b1")},
    "up": {("a2", "a1"), ("b2", "b1"), ("a3", "a2"), ("b3", "b2")},
    "down": {("a1", "a2x"), ("b1", "b2x"), ("a2x", "a3x"), ("b2x", "b3x")},
}

program = parse_program(SG)
print("program:")
print(program)

# 1. constructors (via the lemma's constructive translation)
db = Database("sg")
apps = declare_program(db, program, EDB)
constructed = construct(db, apps["sg"])
print(f"\nconstructor engine: {len(constructed.rows)} sg tuples "
      f"({constructed.stats.mode})")

# 2. bottom-up Datalog
datalog_rows = DatalogEngine(program, EDB).solve()["sg"]

# 3. SLD resolution, 4. tabled top-down
kb = KnowledgeBase.from_program(program, EDB)
sld_rows = SLDEngine(kb).all_answers(parse_atom("sg(X, Y)"))
tabled_rows = TabledEngine(kb).all_answers(parse_atom("sg(X, Y)"))

assert constructed.rows == datalog_rows == sld_rows == tabled_rows
print("all four engines agree:", sorted(constructed.rows))

# Termination: cyclic data --------------------------------------------------

TC = parse_program("""
ahead(X, Y) :- infront(X, Y).
ahead(X, Y) :- infront(X, Z), ahead(Z, Y).
""")
cyclic = {"infront": {("a", "b"), ("b", "c"), ("c", "a")}}

kb2 = KnowledgeBase.from_program(TC, cyclic)
try:
    SLDEngine(kb2, max_depth=200).all_answers(parse_atom("ahead(X, Y)"))
    print("\nSLD terminated (unexpected!)")
except DepthLimitExceeded:
    print("\nSLD loops on the cycle (depth budget exceeded) —")

tabled = TabledEngine(kb2).all_answers(parse_atom("ahead(X, Y)"))
db2 = Database("tc")
apps2 = declare_program(db2, TC, cyclic)
fixpoint = construct(db2, apps2["ahead"])
assert fixpoint.rows == tabled == {(x, y) for x in "abc" for y in "abc"}
print("while the set-oriented fixpoint finds all"
      f" {len(fixpoint.rows)} pairs — 'the problem of endless loops is eliminated'.")
