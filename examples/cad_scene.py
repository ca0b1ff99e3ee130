"""The paper's CAD scenario at scale: mutual recursion ahead/above.

Generates a multi-room scene (furniture rows = Infront chains, object
stacks = Ontop chains), then answers spatial queries with the mutually
recursive constructor pair of section 3.1.

    $ python examples/cad_scene.py
"""

from repro.calculus import dsl as d
from repro.compiler import compile_statement
from repro.constructors import apply_constructor
from repro.dbpl import Session
from repro.workloads import generate_scene

scene = generate_scene(rooms=3, row_length=4, stack_height=2, stacks_per_room=1)
db = scene.database(mutual=True)

print(f"scene: {len(scene.objects)} objects, {len(scene.infront)} infront, "
      f"{len(scene.ontop)} ontop facts")

# The combined relationships of section 3.1:
#   Infront{ahead(Ontop)}   and   Ontop{above(Infront)}
ahead = apply_constructor(db, "Infront", "ahead", "Ontop")
above = apply_constructor(db, "Ontop", "above", "Infront")

print(f"\n|Infront{{ahead(Ontop)}}| = {len(ahead.rows)} "
      f"({ahead.stats.mode}, {ahead.stats.iterations} iterations)")
print(f"|Ontop{{above(Infront)}}| = {len(above.rows)}")

# The paper's motivating inference: anything on top of a piece of
# furniture is above everything that furniture is in front of.
vases = sorted({high for (high, low) in above.rows if high.startswith("vase")})
if vases:
    vase = vases[0]
    print(f"\n{vase} is above: "
          + ", ".join(sorted(low for (high, low) in above.rows if high == vase)))

# A compiled query over the constructed relation: what is ahead of the
# first chair, through the full three-level compilation pipeline?  The
# session front door compiles through the same level, so the DBPL text
# and the hand-built statement must agree.
chairs = sorted(name for (name, kind) in scene.objects if kind == "chair")
target = chairs[0]
query = d.query(
    d.branch(
        d.each("r", d.constructed("Infront", "ahead", d.rel("Ontop"))),
        pred=d.eq(d.a("r", "tail"), d.const(target)),
        targets=[d.a("r", "head")],
    )
)
statement = compile_statement(db, query)
rows = statement.run()
session = Session(db)
text = f'{{<r.head> OF EACH r IN Infront{{ahead(Ontop)}}: r.tail = "{target}"}}'
assert session.query(text) == rows
assert not any(session.fallbacks.values())
print(f"\nobjects ahead of {target}: {sorted(r[0] for r in rows)}")
print("OK: Session.query and compile_statement agree")
print("\ncompiled statement:")
print(statement.explain())
