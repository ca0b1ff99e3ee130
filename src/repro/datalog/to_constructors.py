"""Datalog -> constructors: one direction of the section 3.4 lemma.

"The constructor mechanism is as powerful as function-free PROLOG without
cut, fail, and negation."  Constructively: every safe positive Datalog
program is constructor declarations over a database such that the
application for a predicate yields exactly its least model.

Mapping (following the paper's remark that a constructor based on a join
of several base relations "grows out of" an empty base relation):

* every EDB predicate ``p/n`` names a relation of the database, read by
  position; one the database lacks is declared from the caller's facts
  as a keyless relation with ANY-typed attributes ``a0..a{n-1}``;
* every IDB predicate ``p`` gets a base relation ``p__base`` of that
  shape, seeded with ``p``'s facts, and a constructor ``c_p`` whose
  branches are the rules for ``p``: body atoms become range bindings
  (EDB atoms over the database relation, IDB atoms over the recursive
  application ``q__base{c_q}``), repeated variables and constants become
  equality conjuncts, comparison literals become comparisons, and the
  head's argument list becomes the target list;
* a goal is the body of the rule ``goal :- goal`` (:func:`goal_query`).
"""

from __future__ import annotations

from ..analysis.diagnostics import Diagnostics
from ..calculus import ast
from ..constructors import define_constructor
from ..errors import DatalogAnalysisError, TranslationError
from ..relational import Database
from ..types import ANY, Field, RecordType, RelationType
from .ast import Atom, Comparison, Const, Program, Rule

_CMP_OPS = {"=": "=", "\\=": "<>", "<": "<", "=<": "<=", ">": ">", ">=": ">="}

#: Predicate → the field names its atoms read, by position.
Fields = dict[str, tuple[str, ...]]


def _reject(code: str, message: str, node: object = None) -> None:
    diags = Diagnostics()  # one error: a span-carrying DatalogAnalysisError
    diags.error(code, message, node=node)
    diags.raise_if_errors("datalog program rejected", cls=DatalogAnalysisError)


def program_facts(program: Program, edb: dict | None = None) -> dict[str, set[tuple]]:
    """``edb`` (copied) plus the facts written inline in ``program``."""
    facts: dict[str, set[tuple]] = {p: set(rows) for p, rows in (edb or {}).items()}
    for rule in program.rules:
        if rule.is_fact:
            if not rule.head.is_ground():
                raise TranslationError(f"non-ground fact: {rule}")
            facts.setdefault(rule.head.pred, set()).add(
                tuple(t.value for t in rule.head.terms)  # type: ignore[union-attr]
            )
    return facts


def program_fields(program: Program, facts: dict, db: Database | None = None) -> Fields:
    """Every predicate's field names, by position: a relation's own when
    ``db`` has one of that name, else ``a0..a{n-1}``.  Two arities for
    one predicate (across its atoms or its facts' rows) are DBPL104; an
    EDB predicate with neither a relation in ``db`` nor facts is DBPL103.
    """
    arities: dict[str, tuple[int, object]] = {}
    for rule in program.rules:
        for atom in (a for a in (rule.head, *rule.body) if isinstance(a, Atom)):
            known, _ = arities.setdefault(atom.pred, (atom.arity, atom))
            if known != atom.arity:
                _reject("DBPL104", f"{atom.pred} used with arities {known} and {atom.arity}", atom)
    for pred, rows in facts.items():
        for row in rows:
            known, _ = arities.setdefault(pred, (len(row), None))
            if known != len(row):
                _reject("DBPL104", f"facts of {pred} have arities {known} and {len(row)}: {row!r}")
    idb = program.idb_predicates()
    fields: Fields = {}
    for pred, (arity, atom) in arities.items():
        if db is not None and pred not in idb and pred in db:
            fields[pred] = db[pred].element_type.attribute_names
        elif db is not None and pred not in idb and pred not in facts:
            _reject("DBPL103", f"{pred!r} names no relation of {db.name!r} and has no facts", atom)
        else:
            fields[pred] = tuple(f"a{i}" for i in range(arity))
    return fields


def _relation_type(pred: str, arity: int) -> RelationType:
    fields = tuple(Field(f"a{i}", ANY) for i in range(arity))
    return RelationType(f"{pred}_rel", RecordType(f"{pred}_rec", fields), ())


def _range_of(atom: Atom, idb: set[str], fields: Fields, formal: str | None):
    """``atom``'s binding range and field names; an unknown predicate is
    DBPL103, a wrong arity DBPL104.  ``formal`` names the range of the
    rule's own head predicate (recursion goes through the formal)."""
    names = fields.get(atom.pred)
    if names is None:
        _reject("DBPL103", f"predicate {atom.pred!r} is never defined", atom)
    if len(names) != atom.arity:
        _reject("DBPL104", f"{atom} has arity {atom.arity}, {atom.pred} has {len(names)}", atom)
    if atom.pred not in idb:
        return ast.RelRef(atom.pred), names
    return ast.Constructed(ast.RelRef(formal or f"{atom.pred}__base"), f"c_{atom.pred}", ()), names


def _rule_to_branch(
    rule: Rule, idb: set[str], fields: Fields, formal: str | None = None
) -> ast.Branch:
    """Translate one rule into one constructor-body branch; ``formal``
    (the constructor's formal relation) stands for the head predicate's
    own base relation, other IDB predicates are their applications."""
    atoms = [lit for lit in rule.body if isinstance(lit, Atom)]
    comparisons = [lit for lit in rule.body if isinstance(lit, Comparison)]

    bindings: list[ast.Binding] = []
    first_site: dict[str, ast.AttrRef] = {}
    conjuncts: list[ast.Pred] = []
    for i, atom in enumerate(atoms):
        var = f"t{i}"
        rng, names = _range_of(atom, idb, fields, formal if atom.pred == rule.head.pred else None)
        bindings.append(ast.Binding(var, rng))
        for name, term in zip(names, atom.terms):
            ref = ast.AttrRef(var, name)
            if isinstance(term, Const):
                conjuncts.append(ast.Cmp("=", ref, ast.Const(term.value)))
            else:
                seen = first_site.get(term.name)
                if seen is None:
                    first_site[term.name] = ref
                else:
                    conjuncts.append(ast.Cmp("=", ref, seen))

    def term_to_ast(term) -> ast.Term:
        if isinstance(term, Const):
            return ast.Const(term.value)
        site = first_site.get(term.name)
        if site is None:
            raise TranslationError(
                f"variable {term.name} of rule {rule} is unbound (unsafe rule)"
            )
        return site

    for cmp in comparisons:
        conjuncts.append(
            ast.Cmp(_CMP_OPS[cmp.op], term_to_ast(cmp.left), term_to_ast(cmp.right))
        )

    targets = tuple(term_to_ast(t) for t in rule.head.terms)
    pred = ast.And(tuple(conjuncts)) if conjuncts else ast.TRUE
    if len(conjuncts) == 1:
        pred = conjuncts[0]
    return ast.Branch(tuple(bindings), pred, targets)


def goal_query(goal: Atom, idb: set[str], fields: Fields) -> ast.Query:
    """The query whose rows are ``goal``'s ground instances: the body of
    the rule ``goal :- goal``."""
    branch = _rule_to_branch(Rule(goal, (goal,)), idb, fields)
    if branch.pred == ast.TRUE and branch.targets == tuple(
        ast.AttrRef("t0", name) for name in fields[goal.pred]
    ):
        # Distinct variables only: the rows are the range's own.
        branch = ast.Branch(branch.bindings, ast.TRUE, None)
    return ast.Query((branch,))


def declare_program(
    db: Database, program: Program, facts: dict | None = None
) -> dict[str, ast.Constructed]:
    """Declare ``program``'s constructors (and base relations) into ``db``.

    Returns, for each IDB predicate, the application whose construction
    yields the predicate's least model.  An EDB predicate reads ``db``'s
    relation of that name; ``facts`` (plus the program's inline facts)
    declare the ones ``db`` lacks and seed the IDB base relations — only
    relations this call declares: declaring an identical program again
    reuses what is there, and a conflicting name is ``db``'s
    :class:`~repro.errors.SchemaError`.
    """
    facts = program_facts(program, facts)
    fields = program_fields(program, facts, db)
    idb = program.idb_predicates()
    for pred, names in fields.items():
        name = f"{pred}__base" if pred in idb else pred
        held = db.relations.get(name)
        rtype = _relation_type(pred, len(names))
        same = held is not None and held.element_type.structurally_equal(rtype.element)
        if held is None or pred in idb and not same:
            db.declare(name, rtype, facts.get(pred, ()))

    applications: dict[str, ast.Constructed] = {}
    for pred in sorted(idb):
        rtype = _relation_type(pred, len(fields[pred]))
        body = ast.Query((
            # Identity branch: the base relation (seed facts) is included.
            ast.Branch((ast.Binding("r", ast.RelRef("Rel")),), ast.TRUE, None),
            *(
                _rule_to_branch(rule, idb, fields, "Rel")
                for rule in program.rules_for(pred)
                if not rule.is_fact
            ),
        ))
        held = db.constructors.get(f"c_{pred}")
        if held is None or held.body != body:
            define_constructor(
                db,
                name=f"c_{pred}",
                formal_rel="Rel",
                rel_type=rtype,
                result_type=rtype,
                body=body,
            )
        applications[pred] = ast.Constructed(ast.RelRef(f"{pred}__base"), f"c_{pred}", ())
    return applications
