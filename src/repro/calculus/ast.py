"""Abstract syntax of the DBPL tuple relational calculus.

The expression form at the heart of the paper is the set constructor

    { EACH r IN Infront: TRUE,
      <f.front, b.back> OF EACH f, b IN Infront: f.back = b.front }

— a union of *branches*; each branch binds tuple variables over range
expressions, filters them with a first-order predicate, and emits either
the bound tuple itself or an explicit target list.  Range expressions may
be relation variables, selected relations ``Rel[sel(args)]``, constructed
relations ``Rel{con(args)}``, or nested set expressions (range nesting,
[JaKo 83]).

All nodes are immutable (frozen dataclasses) and hashable, which the
compiler exploits: instantiated constructor applications are canonical-
ized by the substituted AST itself.

The module also provides :func:`iter_children` / :func:`walk` for generic
traversal, used by the analysis and rewrite passes.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

from ..types import RecordType

# ---------------------------------------------------------------------------
# Scalar terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """A literal value: ``"table"``, ``7``, ``TRUE``."""

    value: object


@dataclass(frozen=True)
class AttrRef:
    """``r.front`` — attribute ``attr`` of tuple variable ``var``."""

    var: str
    attr: str


@dataclass(frozen=True)
class VarRef:
    """``r`` used as a whole-tuple value (e.g. in ``r IN Rel{c}``)."""

    var: str


@dataclass(frozen=True)
class ParamRef:
    """A scalar formal parameter of a selector/constructor (e.g. ``Obj``)."""

    name: str


@dataclass(frozen=True)
class Arith:
    """Arithmetic term: ``s.number + 1``.  op in {+, -, *, DIV, MOD}."""

    op: str
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class TupleCons:
    """``<f.front, b.back>`` used as a tuple value (targets, membership)."""

    items: tuple["Term", ...]


Term = Union[Const, AttrRef, VarRef, ParamRef, Arith, TupleCons]


# ---------------------------------------------------------------------------
# Range expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelRef:
    """A named range: relation variable, formal parameter, or view name."""

    name: str


@dataclass(frozen=True)
class Selected:
    """``base[selector(args)]`` — a selected subrelation (section 2.3)."""

    base: "RangeExpr"
    selector: str
    args: tuple["Argument", ...] = ()


@dataclass(frozen=True)
class Constructed:
    """``base{constructor(args)}`` — a constructed relation (section 3)."""

    base: "RangeExpr"
    constructor: str
    args: tuple["Argument", ...] = ()


@dataclass(frozen=True)
class QueryRange:
    """An inline set expression used as a range (range nesting, N1–N3)."""

    query: "Query"


@dataclass(frozen=True)
class ApplyVar:
    """A fixpoint variable standing for one instantiated application.

    Inserted by the constructor-instantiation pass in place of
    :class:`Constructed` ranges; ``token`` canonically identifies the
    application (see ``repro.constructors.instantiate``) and ``schema``
    is the element type of the constructed result.
    """

    token: object
    schema: RecordType = dataclasses.field(compare=False)

    def __hash__(self) -> int:  # schema excluded from identity
        return hash(("ApplyVar", self.token))


RangeExpr = Union[RelRef, Selected, Constructed, QueryRange, ApplyVar]

#: Arguments of selector/constructor applications: scalar terms or ranges.
Argument = Union[Const, ParamRef, AttrRef, RelRef, Selected, Constructed, QueryRange, ApplyVar]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruePred:
    """The constant predicate TRUE."""


@dataclass(frozen=True)
class Cmp:
    """Comparison: op in {=, <>, <, <=, >, >=}."""

    op: str
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    pred: "Pred"


@dataclass(frozen=True)
class And:
    parts: tuple["Pred", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Pred", ...]


@dataclass(frozen=True)
class Some:
    """``SOME r1, r2 IN range (pred)`` — existential, range-coupled."""

    vars: tuple[str, ...]
    range: RangeExpr
    pred: "Pred"


@dataclass(frozen=True)
class All:
    """``ALL r IN range (pred)`` — universal, range-coupled."""

    vars: tuple[str, ...]
    range: RangeExpr
    pred: "Pred"


@dataclass(frozen=True)
class InRel:
    """Membership: ``element IN range`` where element is tuple-valued."""

    element: Term
    range: RangeExpr


Pred = Union[TruePred, Cmp, Not, And, Or, Some, All, InRel]

TRUE = TruePred()


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Binding:
    """``EACH var IN range`` within a branch."""

    var: str
    range: RangeExpr


@dataclass(frozen=True)
class Branch:
    """One union arm: optional target list, bindings, predicate.

    ``targets is None`` means the branch emits the bound tuple of its
    single binding unchanged (the paper's ``EACH r IN Rel: TRUE`` shape).
    """

    bindings: tuple[Binding, ...]
    pred: Pred = TRUE
    targets: tuple[Term, ...] | None = None


@dataclass(frozen=True)
class Query:
    """A relational set expression: the union of its branches."""

    branches: tuple[Branch, ...]


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------

_NODE_TYPES = (
    Const,
    AttrRef,
    VarRef,
    ParamRef,
    Arith,
    TupleCons,
    RelRef,
    Selected,
    Constructed,
    QueryRange,
    ApplyVar,
    TruePred,
    Cmp,
    Not,
    And,
    Or,
    Some,
    All,
    InRel,
    Binding,
    Branch,
    Query,
)

Node = Union[_NODE_TYPES]  # type: ignore[valid-type]

#: Node classes are final, so a class lookup recognizes a node — an
#: ``isinstance`` against the whole tuple pays for every miss.
_NODE_SET = frozenset(_NODE_TYPES)
#: Field names per node class (``dataclasses.fields`` rebuilds its tuple
#: on every call).
_FIELDS = {cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in _NODE_TYPES}


def is_node(obj: object) -> bool:
    return obj.__class__ in _NODE_SET


def node_span(node: object):
    """The source :class:`~repro.analysis.diagnostics.Span` the parser
    attached to ``node``, or None for programmatically built nodes.

    Spans live outside the dataclass fields so node equality/hashing —
    which the compiler uses for canonicalization — is unaffected.
    """
    return getattr(node, "_span", None)


def iter_children(node: Node) -> Iterator[Node]:
    """Yield the direct AST children of ``node`` in field order."""
    for name in _FIELDS[node.__class__]:
        value = getattr(node, name)
        if value.__class__ in _NODE_SET:
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if item.__class__ in _NODE_SET:
                    yield item


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants, pre-order."""
    yield node
    for child in iter_children(node):
        yield from walk(child)


#: Node classes whose subtrees hold no range expression: terms,
#: comparisons, ``TRUE`` and the leaf ranges.
RANGE_FREE = frozenset(
    (Const, AttrRef, VarRef, ParamRef, Arith, TupleCons, Cmp, TruePred, RelRef, ApplyVar)
)


def find(node: Node, cls: type, skip: frozenset = frozenset()) -> Node | None:
    """The first ``cls`` node of ``node``'s pre-order :func:`walk`, or
    None — without generator frames, for checks every query pays.  The
    subtrees of ``skip`` classes are not searched (pass
    :data:`RANGE_FREE` when ``cls`` is a range)."""
    if node.__class__ is cls:
        return node
    if node.__class__ in skip:
        return None
    for name in _FIELDS[node.__class__]:
        value = getattr(node, name)
        if value.__class__ in _NODE_SET:
            found = find(value, cls, skip)
            if found is not None:
                return found
        elif isinstance(value, tuple):
            for item in value:
                if item.__class__ in _NODE_SET:
                    found = find(item, cls, skip)
                    if found is not None:
                        return found
    return None
