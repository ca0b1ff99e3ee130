"""The DBPL-surface check registry.

:func:`analyze_query` runs every static check over one parsed query
expression; :func:`analyze_module` walks a parsed declaration module
(types, variables, selectors, constructors), accumulating the declared
names as it goes so later declarations resolve against earlier ones.
Both report through a :class:`~repro.analysis.diagnostics.Diagnostics`
collector and never raise for user errors — gating is the caller's
decision (``Session.query`` raises, ``Session.check`` returns).

Rule codes (surface language; ``DBPL1xx`` are the Datalog codes in
:mod:`repro.analysis.rules`):

=========  ========  ====================================================
code       severity  meaning
=========  ========  ====================================================
DBPL001    error     unknown relation name in range position
DBPL002    error     unknown selector
DBPL003    error     unknown constructor
DBPL004    error     wrong selector/constructor argument count
DBPL005    error     unknown attribute of a tuple variable / key field
DBPL006    error     unbound variable or unknown identifier
DBPL007    error     incomparable operand types (type-flow)
DBPL008    error     membership element arity mismatch
DBPL009    error     duplicate binding variable in a branch
DBPL010    warning   contradictory predicate (provably false)
DBPL011    hint      tautological comparison (provably true)
DBPL012    warning   provably-empty branch (pruned before planning)
DBPL013    warning   cartesian product: bindings never connected
DBPL014    warning   quantifier variable shadows an outer variable
DBPL015    error     unknown type name in a declaration
DBPL016    error     provably-empty RANGE type
DBPL017    error     target list arity differs from result type
DBPL018    error     malformed identity branch in a constructor
DBPL019    error     duplicate declaration
DBPL020    error     positivity violation (section 3.3)
DBPL021    error     declaration requires a relation type
DBPL022    error     duplicate record field / enumeration label
=========  ========  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calculus import ast
from ..calculus.analysis import positivity_violations
from ..dbpl import astnodes
from ..types import RecordType, RelationType, Type
from .diagnostics import Diagnostics, span_of
from .typeflow import (
    TypeEnv,
    bounds_one_term_twice,
    comparable,
    conjunction_contradictions,
    fold_pred,
    folds_on_constants,
    term_type,
)

#: Parameterize() slot prefix (see repro.dbpl.serving); slot ParamRefs are
#: always bound by the serving layer, never an unknown identifier.
_SLOT_PREFIX = "__bind_"


# ---------------------------------------------------------------------------
# Scope: the name environment checks resolve against
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectorSig:
    name: str
    arity: int


@dataclass(frozen=True)
class ConstructorSig:
    name: str
    arity: int
    result_schema: RecordType | None = None


class Scope:
    """Declared names visible to a program under analysis."""

    def __init__(
        self,
        relations: dict[str, RelationType] | None = None,
        selectors: dict[str, SelectorSig] | None = None,
        constructors: dict[str, ConstructorSig] | None = None,
        types: dict[str, Type] | None = None,
        params: dict[str, Type] | None = None,
    ) -> None:
        self.relations = dict(relations or {})
        self.selectors = dict(selectors or {})
        self.constructors = dict(constructors or {})
        self.types = dict(types or {})
        self.params = dict(params or {})

    @classmethod
    def from_db(cls, db, types: dict[str, Type] | None = None) -> "Scope":
        return cls(
            relations={name: rel.rtype for name, rel in db.relations.items()},
            selectors={
                name: SelectorSig(name, len(sel.params))
                for name, sel in db.selectors.items()
            },
            constructors={
                name: ConstructorSig(name, len(con.params), con.result_type.element)
                for name, con in db.constructors.items()
            },
            types=types,
        )

    @classmethod
    def from_session(cls, session) -> "Scope":
        return cls.from_db(session.db, types=session.types)

    def copy(self) -> "Scope":
        return Scope(
            self.relations, self.selectors, self.constructors, self.types, self.params
        )

    def stamp(self) -> tuple:
        """A monotonic token: declarations only accumulate, so counts
        identify the scope (``Session`` keys its front door on the same
        counts)."""
        return (
            len(self.relations),
            len(self.selectors),
            len(self.constructors),
            len(self.types),
        )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


class AnalysisResult:
    """Diagnostics plus the planner-facing facts the analyzer proved."""

    def __init__(
        self,
        diagnostics: Diagnostics,
        dead_branches: frozenset[int] = frozenset(),
        constant_sensitive: bool = False,
    ) -> None:
        self.diagnostics = diagnostics
        #: Indexes of top-level query branches that provably emit no rows.
        self.dead_branches = dead_branches
        #: True when some verdict read a compared constant's value (a
        #: constant-vs-constant or constant-vs-enum/subrange fold, or two
        #: constant bounds on one term in a conjunction): other constants
        #: in the same places could change the diagnostics.
        self.constant_sensitive = constant_sensitive

    @property
    def has_errors(self) -> bool:
        return self.diagnostics.has_errors

    def prune(self, query: ast.Query) -> ast.Query:
        """Drop statically-dead branches before the planner prices them.

        Pruning is sound only for a fully-constant query text (constants
        not yet parameterized); callers on the prepared path must not
        prune, since rebound constants can revive a branch.  A query
        whose every branch is dead is left intact — the executors expect
        at least one branch and an all-dead query is already cheap.
        """
        if not self.dead_branches or len(self.dead_branches) >= len(query.branches):
            return query
        kept = tuple(
            b for i, b in enumerate(query.branches) if i not in self.dead_branches
        )
        return ast.Query(kept)


# ---------------------------------------------------------------------------
# Query analysis
# ---------------------------------------------------------------------------


class _QueryAnalyzer:
    def __init__(self, scope: Scope, diags: Diagnostics) -> None:
        self.scope = scope
        self.diags = diags
        self.constant_sensitive = False
        self._schema_memo: dict[int, RecordType | None] = {}

    # -- range resolution ---------------------------------------------------

    def range_schema(self, rng: ast.RangeExpr, env: TypeEnv) -> RecordType | None:
        """Resolve ``rng`` against the scope, reporting name/arity errors
        once per node, and return its element schema when known."""
        memo_key = id(rng)
        if memo_key in self._schema_memo:
            return self._schema_memo[memo_key]
        schema = self._resolve_range(rng, env)
        self._schema_memo[memo_key] = schema
        return schema

    def _resolve_range(self, rng: ast.RangeExpr, env: TypeEnv) -> RecordType | None:
        scope = self.scope
        if isinstance(rng, ast.RelRef):
            rtype = scope.relations.get(rng.name)
            if rtype is not None:
                return rtype.element
            ptype = scope.params.get(rng.name)
            if ptype is not None:
                if isinstance(ptype, RelationType):
                    return ptype.element
                return None  # scalar formal; the binder rewrites these
            self.diags.error(
                "DBPL001", f"unknown relation {rng.name!r}", node=rng
            )
            return None
        if isinstance(rng, ast.Selected):
            base = self.range_schema(rng.base, env)
            sig = scope.selectors.get(rng.selector)
            if sig is None:
                self.diags.error(
                    "DBPL002", f"unknown selector {rng.selector!r}", node=rng
                )
            elif len(rng.args) != sig.arity:
                self.diags.error(
                    "DBPL004",
                    f"selector {rng.selector!r} expects {sig.arity} "
                    f"argument(s), got {len(rng.args)}",
                    node=rng,
                )
            self._visit_args(rng.args, env)
            return base
        if isinstance(rng, ast.Constructed):
            self.range_schema(rng.base, env)
            sig = scope.constructors.get(rng.constructor)
            result: RecordType | None = None
            if sig is None:
                self.diags.error(
                    "DBPL003", f"unknown constructor {rng.constructor!r}", node=rng
                )
            else:
                result = sig.result_schema
                if len(rng.args) != sig.arity:
                    self.diags.error(
                        "DBPL004",
                        f"constructor {rng.constructor!r} expects {sig.arity} "
                        f"argument(s), got {len(rng.args)}",
                        node=rng,
                    )
            self._visit_args(rng.args, env)
            return result
        if isinstance(rng, ast.QueryRange):
            self.visit_query(rng.query, env)
            return self._query_schema(rng.query, env)
        if isinstance(rng, ast.ApplyVar):
            return rng.schema
        return None

    def _visit_args(self, args: tuple[ast.Argument, ...], env: TypeEnv) -> None:
        for arg in args:
            if isinstance(
                arg, (ast.RelRef, ast.Selected, ast.Constructed, ast.QueryRange)
            ):
                self.range_schema(arg, env)
            else:
                self.visit_term(arg, env)

    def _query_schema(self, query: ast.Query, env: TypeEnv) -> RecordType | None:
        """Best-effort element schema of an inline set expression."""
        if not query.branches:
            return None
        branch = query.branches[0]
        inner = env.child(
            {
                b.var: self._schema_memo.get(id(b.range))
                for b in branch.bindings
            }
        )
        if branch.targets is None:
            if not branch.bindings:
                return None
            return self._schema_memo.get(id(branch.bindings[0].range))
        fields = []
        names: set[str] = set()
        for i, target in enumerate(branch.targets):
            ttype = term_type(target, inner)
            if ttype is None:
                return None
            name = target.attr if isinstance(target, ast.AttrRef) else f"f{i}"
            if name in names:
                name = f"{name}_{i}"
            names.add(name)
            fields.append((name, ttype))
        from ..types import Field

        return RecordType("inline", tuple(Field(n, t) for n, t in fields))

    # -- queries and branches ----------------------------------------------

    def visit_query(
        self, query: ast.Query, env: TypeEnv, collect_dead: bool = False
    ) -> frozenset[int]:
        dead: set[int] = set()
        for i, branch in enumerate(query.branches):
            if self.visit_branch(branch, env):
                dead.add(i)
        return frozenset(dead) if collect_dead else frozenset()

    def visit_branch(self, branch: ast.Branch, env: TypeEnv) -> bool:
        """Analyze one branch; True when it provably emits no rows."""
        seen: set[str] = set()
        schemas: dict[str, RecordType | None] = {}
        for binding in branch.bindings:
            if binding.var in seen:
                self.diags.error(
                    "DBPL009",
                    f"duplicate binding variable {binding.var!r} in branch",
                    node=binding,
                )
            seen.add(binding.var)
            schemas[binding.var] = self.range_schema(binding.range, env)
        inner = env.child(schemas)
        self.visit_pred(branch.pred, inner)
        if branch.targets is not None:
            for target in branch.targets:
                self.visit_term(target, inner)
        dead = False
        if fold_pred(branch.pred, inner) is False:
            self.diags.warning(
                "DBPL012",
                "branch predicate is provably false; the branch emits no rows",
                node=branch,
            )
            dead = True
        else:
            parts = (
                branch.pred.parts
                if isinstance(branch.pred, ast.And)
                else (branch.pred,)
            )
            if bounds_one_term_twice(parts):
                self.constant_sensitive = True
            contradictions = conjunction_contradictions(parts, inner)
            for node, message in contradictions:
                self.diags.warning(
                    "DBPL010", f"contradictory constraints: {message}", node=node
                )
            if contradictions:
                dead = True
        if len(branch.bindings) > 1:
            self._check_connectivity(branch, inner)
        return dead

    def _check_connectivity(self, branch: ast.Branch, env: TypeEnv) -> None:
        """DBPL013: warn when some bindings are never related by the
        predicate — the join degenerates to a cartesian product."""
        binding_vars = [b.var for b in branch.bindings]
        var_set = set(binding_vars)
        parent = {v: v for v in var_set}

        def find(v: str) -> str:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        parts = (
            branch.pred.parts if isinstance(branch.pred, ast.And) else (branch.pred,)
        )
        for part in parts:
            mentioned = {
                n.var
                for n in ast.walk(part)
                if isinstance(n, (ast.AttrRef, ast.VarRef)) and n.var in var_set
            }
            mentioned = sorted(mentioned)
            for other in mentioned[1:]:
                union(mentioned[0], other)
        components = {find(v) for v in var_set}
        if len(components) > 1:
            self.diags.warning(
                "DBPL013",
                f"bindings {', '.join(sorted(var_set))} form {len(components)} "
                "unconnected group(s); the join is a cartesian product",
                node=branch,
            )

    # -- predicates ---------------------------------------------------------

    def visit_pred(self, pred: ast.Pred, env: TypeEnv) -> None:
        if isinstance(pred, ast.Cmp):
            self.visit_term(pred.left, env)
            self.visit_term(pred.right, env)
            lt = term_type(pred.left, env)
            rt = term_type(pred.right, env)
            if not comparable(lt, rt):
                self.diags.error(
                    "DBPL007",
                    f"cannot compare {lt.name} with {rt.name} "
                    f"(families {lt.family()!r} vs {rt.family()!r})",
                    node=pred,
                )
                return
            if folds_on_constants(pred, env):
                self.constant_sensitive = True
            folded = fold_pred(pred, env)
            if folded is True:
                self.diags.hint(
                    "DBPL011", "comparison is always true", node=pred
                )
            elif folded is False:
                self.diags.warning(
                    "DBPL010", "comparison is always false", node=pred
                )
            return
        if isinstance(pred, ast.Not):
            self.visit_pred(pred.pred, env)
            return
        if isinstance(pred, (ast.And, ast.Or)):
            for part in pred.parts:
                self.visit_pred(part, env)
            return
        if isinstance(pred, (ast.Some, ast.All)):
            schema = self.range_schema(pred.range, env)
            for var in pred.vars:
                if var in env.var_schemas:
                    self.diags.warning(
                        "DBPL014",
                        f"quantifier variable {var!r} shadows an outer "
                        "binding of the same name",
                        node=pred,
                    )
            inner = env.child({var: schema for var in pred.vars})
            self.visit_pred(pred.pred, inner)
            return
        if isinstance(pred, ast.InRel):
            self.visit_term(pred.element, env)
            schema = self.range_schema(pred.range, env)
            if schema is not None:
                arity = self._element_arity(pred.element, env)
                if arity is not None and arity != schema.arity:
                    self.diags.error(
                        "DBPL008",
                        f"membership element has arity {arity}, range "
                        f"elements have arity {schema.arity}",
                        node=pred,
                    )
            return
        # TruePred: nothing to check.

    def _element_arity(self, element: ast.Term, env: TypeEnv) -> int | None:
        if isinstance(element, ast.TupleCons):
            return len(element.items)
        if isinstance(element, ast.VarRef):
            schema = env.schema_of(element.var)
            return schema.arity if schema is not None else None
        return None

    # -- terms --------------------------------------------------------------

    def visit_term(self, term: ast.Term, env: TypeEnv) -> None:
        if isinstance(term, ast.AttrRef):
            schema = env.var_schemas.get(term.var, _UNBOUND)
            if schema is _UNBOUND:
                self.diags.error(
                    "DBPL006", f"unbound variable {term.var!r}", node=term
                )
            elif schema is not None and not schema.has_attribute(term.attr):
                self.diags.error(
                    "DBPL005",
                    f"{schema.name} has no attribute {term.attr!r}; "
                    f"attributes are {', '.join(schema.attribute_names)}",
                    node=term,
                )
            return
        if isinstance(term, ast.VarRef):
            if term.var not in env.var_schemas:
                self.diags.error(
                    "DBPL006", f"unbound variable {term.var!r}", node=term
                )
            return
        if isinstance(term, ast.ParamRef):
            if term.name.startswith(_SLOT_PREFIX):
                return
            if term.name not in self.scope.params:
                self.diags.error(
                    "DBPL006", f"unknown identifier {term.name!r}", node=term
                )
            return
        if isinstance(term, ast.Arith):
            self.visit_term(term.left, env)
            self.visit_term(term.right, env)
            for operand in (term.left, term.right):
                otype = term_type(operand, env)
                if otype is not None and otype.family() not in ("numeric", "any"):
                    self.diags.error(
                        "DBPL007",
                        f"arithmetic operand has non-numeric type {otype.name}",
                        node=operand,
                    )
            return
        if isinstance(term, ast.TupleCons):
            for item in term.items:
                self.visit_term(item, env)
            return
        # Const: always fine.


_UNBOUND = object()


def analyze_query(node, scope: Scope) -> AnalysisResult:
    """Analyze one parsed query expression (set former or range)."""
    diags = Diagnostics()
    analyzer = _QueryAnalyzer(scope, diags)
    env = TypeEnv(param_types=scope.params)
    dead: frozenset[int] = frozenset()
    if isinstance(node, ast.Query):
        dead = analyzer.visit_query(node, env, collect_dead=True)
    elif isinstance(
        node, (ast.RelRef, ast.Selected, ast.Constructed, ast.QueryRange, ast.ApplyVar)
    ):
        analyzer.range_schema(node, env)
    elif isinstance(node, (ast.Branch,)):
        analyzer.visit_branch(node, env)
    else:
        analyzer.visit_pred(node, env)
    return AnalysisResult(diags, dead, analyzer.constant_sensitive)


# ---------------------------------------------------------------------------
# Module (declaration) analysis
# ---------------------------------------------------------------------------


def analyze_module(module: astnodes.Module, scope: Scope) -> AnalysisResult:
    """Analyze a parsed declaration module against (a copy of) ``scope``.

    Declarations accumulate into the working scope as they are checked,
    so later declarations see earlier ones — mirroring ``Session.execute``.
    """
    diags = Diagnostics()
    work = scope.copy()
    # Constructors may be mutually recursive (ahead/above in the paper's
    # CAD module), so every signature is visible to every body.  Forward
    # signatures carry no result schema — the full one replaces them when
    # the declaration itself is checked.
    predeclared: set[str] = set()
    for decl in module.declarations:
        if (
            isinstance(decl, astnodes.ConstructorDecl)
            and decl.name not in work.constructors
            and decl.name not in predeclared
        ):
            work.constructors[decl.name] = ConstructorSig(
                decl.name, len(decl.params), None
            )
            predeclared.add(decl.name)
    for decl in module.declarations:
        if isinstance(decl, astnodes.TypeDecl):
            _check_type_decl(decl, work, diags)
        elif isinstance(decl, astnodes.VarDecl):
            _check_var_decl(decl, work, diags)
        elif isinstance(decl, astnodes.SelectorDecl):
            _check_selector_decl(decl, work, diags)
        elif isinstance(decl, astnodes.ConstructorDecl):
            _check_constructor_decl(decl, work, diags, predeclared)
    return AnalysisResult(diags)


#: Sentinel for declared-but-unresolvable types: suppresses cascades.
_UNKNOWN_TYPE = object()


def _named_type(name: str, scope: Scope, diags: Diagnostics, node) -> Type | None:
    """Resolve a type name; reports DBPL015 for undeclared names and
    returns None both for unknown and for declared-but-broken types."""
    found = scope.types.get(name)
    if found is None and name not in scope.types:
        diags.error("DBPL015", f"unknown type {name!r}", node=node)
    return found if isinstance(found, Type) else None


def _resolve_type_expr(texpr, name: str, scope: Scope, diags: Diagnostics):
    from ..types import EnumType, Field, RangeType

    if isinstance(texpr, astnodes.TypeName):
        return _named_type(texpr.name, scope, diags, texpr)
    if isinstance(texpr, astnodes.RangeTypeExpr):
        if texpr.lo > texpr.hi:
            diags.error(
                "DBPL016",
                f"RANGE {texpr.lo}..{texpr.hi} is empty (lower bound exceeds upper)",
                node=texpr,
            )
            return None
        return RangeType(name, texpr.lo, texpr.hi)
    if isinstance(texpr, astnodes.EnumTypeExpr):
        dup = _first_duplicate(texpr.labels)
        if dup is not None:
            diags.error(
                "DBPL022", f"enumeration label {dup!r} declared twice", node=texpr
            )
            return None
        return EnumType(name, texpr.labels)
    if isinstance(texpr, astnodes.RecordTypeExpr):
        fields: list[Field] = []
        seen: set[str] = set()
        ok = True
        for group in texpr.fields:
            ftype = _resolve_type_expr(group.type, f"{name}_field", scope, diags)
            for fname in group.names:
                if fname in seen:
                    diags.error(
                        "DBPL022",
                        f"record field {fname!r} declared twice",
                        node=group,
                    )
                    ok = False
                seen.add(fname)
                if ftype is None:
                    ok = False
                else:
                    fields.append(Field(fname, ftype))
        return RecordType(name, tuple(fields)) if ok and fields else None
    if isinstance(texpr, astnodes.RelationTypeExpr):
        element = _resolve_type_expr(texpr.element, f"{name}_rec", scope, diags)
        if element is None:
            return None
        if not isinstance(element, RecordType):
            diags.error(
                "DBPL021",
                f"relation type {name!r}: element must be a record type",
                node=texpr,
            )
            return None
        for attr in texpr.key:
            if not element.has_attribute(attr):
                diags.error(
                    "DBPL005",
                    f"key attribute {attr!r} is not a field of the element type",
                    node=texpr,
                )
                return None
        dup = _first_duplicate(texpr.key)
        if dup is not None:
            diags.error(
                "DBPL022", f"key attribute {dup!r} listed twice", node=texpr
            )
            return None
        return RelationType(name, element, texpr.key)
    return None


def _first_duplicate(items) -> str | None:
    seen: set[str] = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def _check_type_decl(decl: astnodes.TypeDecl, scope: Scope, diags: Diagnostics) -> None:
    resolved = _resolve_type_expr(decl.type, decl.name, scope, diags)
    # Register even failed resolutions so later references don't cascade.
    scope.types[decl.name] = resolved if resolved is not None else _UNKNOWN_TYPE


def _check_var_decl(decl: astnodes.VarDecl, scope: Scope, diags: Diagnostics) -> None:
    rtype = _named_type(decl.type.name, scope, diags, decl.type)
    if rtype is not None and not isinstance(rtype, RelationType):
        diags.error(
            "DBPL021",
            f"VAR {', '.join(decl.names)}: only relation-typed variables are "
            f"supported, got {rtype.name}",
            node=decl,
        )
        rtype = None
    for name in decl.names:
        if name in scope.relations:
            diags.error(
                "DBPL019", f"relation variable {name!r} is already declared", node=decl
            )
        elif isinstance(rtype, RelationType):
            scope.relations[name] = rtype


def _check_selector_decl(
    decl: astnodes.SelectorDecl, scope: Scope, diags: Diagnostics
) -> None:
    if decl.name in scope.selectors:
        diags.error(
            "DBPL019", f"selector {decl.name!r} is already defined", node=decl
        )
    rel_type = _named_type(decl.rel_type.name, scope, diags, decl.rel_type)
    if rel_type is not None and not isinstance(rel_type, RelationType):
        diags.error(
            "DBPL021",
            f"selector {decl.name}: FOR type must be a relation, got {rel_type.name}",
            node=decl.rel_type,
        )
        rel_type = None
    body = scope.copy()
    if isinstance(rel_type, RelationType):
        body.relations[decl.formal_rel] = rel_type
    for p in decl.params:
        ptype = _named_type(p.type.name, scope, diags, p.type)
        if isinstance(ptype, RelationType):
            body.relations[p.name] = ptype
        body.params[p.name] = ptype
    analyzer = _QueryAnalyzer(body, diags)
    element = rel_type.element if isinstance(rel_type, RelationType) else None
    env = TypeEnv({decl.var: element}, body.params)
    analyzer.visit_pred(decl.pred, env)
    scope.selectors[decl.name] = SelectorSig(decl.name, len(decl.params))


def _check_constructor_decl(
    decl: astnodes.ConstructorDecl,
    scope: Scope,
    diags: Diagnostics,
    predeclared: set[str] | None = None,
) -> None:
    predeclared = predeclared if predeclared is not None else set()
    if decl.name in scope.constructors and decl.name not in predeclared:
        diags.error(
            "DBPL019", f"constructor {decl.name!r} is already defined", node=decl
        )
    # The first full check consumes the forward signature: a second
    # declaration of the same name is a genuine duplicate.
    predeclared.discard(decl.name)
    rel_type = _named_type(decl.rel_type.name, scope, diags, decl.rel_type)
    result_type = _named_type(decl.result_type.name, scope, diags, decl.result_type)
    for label, found, node in (
        ("FOR", rel_type, decl.rel_type),
        ("result", result_type, decl.result_type),
    ):
        if found is not None and not isinstance(found, RelationType):
            diags.error(
                "DBPL021",
                f"constructor {decl.name}: {label} type must be a relation, "
                f"got {found.name}",
                node=node,
            )
    rel_type = rel_type if isinstance(rel_type, RelationType) else None
    result_type = result_type if isinstance(result_type, RelationType) else None

    body = scope.copy()
    if rel_type is not None:
        body.relations[decl.formal_rel] = rel_type
    relation_params: set[str] = set()
    for p in decl.params:
        ptype = _named_type(p.type.name, scope, diags, p.type)
        if isinstance(ptype, RelationType):
            body.relations[p.name] = ptype
            relation_params.add(p.name)
        body.params[p.name] = ptype
    # Register the signature before the body so recursion resolves.
    sig = ConstructorSig(
        decl.name,
        len(decl.params),
        result_type.element if result_type is not None else None,
    )
    body.constructors[decl.name] = sig
    scope.constructors[decl.name] = sig

    _check_constructor_shape(decl, rel_type, result_type, diags)
    _check_positivity(decl, relation_params, diags)

    analyzer = _QueryAnalyzer(body, diags)
    analyzer.visit_query(decl.body, TypeEnv(param_types=body.params))


def _check_constructor_shape(
    decl: astnodes.ConstructorDecl,
    rel_type: RelationType | None,
    result_type: RelationType | None,
    diags: Diagnostics,
) -> None:
    result = result_type.element if result_type is not None else None
    for branch in decl.body.branches:
        if branch.targets is None:
            if len(branch.bindings) != 1:
                diags.error(
                    "DBPL018",
                    "identity branches must bind exactly one variable",
                    node=branch,
                )
                continue
            rng = branch.bindings[0].range
            if (
                result is not None
                and rel_type is not None
                and isinstance(rng, ast.RelRef)
                and rng.name == decl.formal_rel
                and not rel_type.element.positionally_compatible(result)
            ):
                diags.error(
                    "DBPL018",
                    f"base element type {rel_type.element.name} is not "
                    f"positionally compatible with result {result.name}",
                    node=branch,
                )
        elif result is not None and len(branch.targets) != result.arity:
            diags.error(
                "DBPL017",
                f"target list has {len(branch.targets)} item(s), result type "
                f"{result.name} has arity {result.arity}",
                node=branch,
            )


def _check_positivity(
    decl: astnodes.ConstructorDecl, relation_params: set[str], diags: Diagnostics
) -> None:
    """DBPL020: the section 3.3 compile-time rejection, as a diagnostic."""
    from ..constructors.positivity import _constructed_occurrences

    names: set[object] = {decl.formal_rel} | relation_params
    violations = list(positivity_violations(decl.body, names))
    violations.extend(
        occ for occ in _constructed_occurrences(decl.body) if not occ.positive
    )
    for occ in violations:
        span = span_of(occ.node) if occ.node is not None else span_of(decl)
        self_name = occ.name if isinstance(occ.name, str) else str(occ.name)
        diags.error(
            "DBPL020",
            f"constructor {decl.name}: {self_name!r} occurs under "
            f"{occ.nots} NOT(s) and {occ.alls} ALL(s) — an odd total "
            "violates the positivity constraint (section 3.3)",
            span=span if span is not None else span_of(decl),
        )
