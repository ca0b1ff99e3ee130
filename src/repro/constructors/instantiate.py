"""Instantiation of constructor applications (section 3.2).

The paper defines the value of an application ``Actrel{c(...)}`` through
a system of simultaneous equations: every (transitively reachable)
application is *instantiated* — formal parameters replaced by actual
values — and becomes one fixpoint variable ``apply_j`` with one equation
``apply_j = g_j(apply_0, ..., apply_l)``.

This module builds that system:

* :class:`AppKey` canonically identifies an instantiated application by
  constructor name, substituted base range, and substituted arguments.
  Two textually different applications that substitute to the same key
  share one fixpoint variable — the "check for unifiability of the
  parameters and the base relations" of section 4, step 2.
* :func:`instantiate` walks the dependency closure, replacing every
  embedded application with an :class:`~repro.calculus.ast.ApplyVar`
  carrying its key, and returns the :class:`InstantiatedSystem` the
  fixpoint engines iterate.

Canonicalization happens innermost-first, so an application appearing in
another application's base or argument position is itself interned and
represented by its ApplyVar inside the outer key.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calculus import ast
from ..calculus.analysis import free_tuple_vars
from ..calculus.evaluator import Env, Evaluator, RangeValue
from ..calculus.subst import substitute_params, substitute_ranges, transform
from ..errors import ArityError, DBPLError, EvaluationError, SchemaError
from ..relational import Database, Relation
from ..types import RecordType, RelationType

#: Safety valve against runaway instantiation (possible when recursive
#: applications keep growing their argument expressions).
MAX_APPLICATIONS = 512


@dataclass(frozen=True)
class AppKey:
    """Canonical identity of one instantiated constructor application."""

    constructor: str
    base: ast.RangeExpr
    args: tuple = ()

    def describe(self) -> str:
        from ..calculus.pretty import render_range

        base = render_range(self.base)
        if not self.args:
            return f"{base}{{{self.constructor}}}"
        rendered = []
        for arg in self.args:
            if isinstance(arg, ast.Const):
                rendered.append(repr(arg.value))
            else:
                rendered.append(render_range(arg))
        return f"{base}{{{self.constructor}({', '.join(rendered)})}}"


@dataclass
class InstantiatedApp:
    """One equation ``apply = g(...)`` of the fixpoint system."""

    key: AppKey
    body: ast.Query
    result_type: RelationType

    @property
    def element_type(self) -> RecordType:
        return self.result_type.element


@dataclass
class InstantiatedSystem:
    """The complete system of equations for one root application."""

    root: AppKey
    apps: dict[AppKey, InstantiatedApp]

    def __len__(self) -> int:
        return len(self.apps)

    def describe(self) -> str:
        lines = [f"root: {self.root.describe()}"]
        for key in self.apps:
            marker = "*" if key == self.root else " "
            lines.append(f" {marker} {key.describe()}")
        return "\n".join(lines)


def base_relation_names(db: Database, system: InstantiatedSystem) -> frozenset[str]:
    """The stored relations the instantiated system actually reads.

    The union of every relation name referenced by any equation body or
    by any application key (base ranges and relation-valued arguments),
    filtered to names that exist in ``db``.  This is the staleness scope
    of a held fixpoint value: mutating any *other* relation cannot
    change the system's value.
    """
    from ..calculus.analysis import free_range_names

    names: set[str] = set()
    for key, app in system.apps.items():
        names |= free_range_names(app.body)
        names |= free_range_names(key.base)
        for arg in key.args:
            if isinstance(arg, _RANGE_NODES):
                names |= free_range_names(arg)
    return frozenset(name for name in names if name in db.relations)


# ---------------------------------------------------------------------------
# Canonicalization of application expressions
# ---------------------------------------------------------------------------

_RANGE_NODES = (ast.RelRef, ast.Selected, ast.Constructed, ast.QueryRange, ast.ApplyVar)


def canonicalize_range(
    rexpr: ast.RangeExpr,
    evaluator: Evaluator | None = None,
    env: Env | None = None,
) -> ast.RangeExpr:
    """Resolve formal-parameter references inside an application expression.

    Scalar arguments are evaluated to constants; relation-valued formal
    names are rewritten to the named relations they are bound to.  The
    result contains only database names, constants, and structure — a
    canonical key component.
    """
    env = env or {}
    params = evaluator.params if evaluator is not None else {}

    def canon(rng: ast.RangeExpr) -> ast.RangeExpr:
        if isinstance(rng, ast.RelRef):
            if rng.name in params:
                value = params[rng.name]
                if isinstance(value, Relation):
                    return ast.RelRef(value.name)
                raise EvaluationError(
                    f"cannot canonicalize range parameter {rng.name!r}: bound to "
                    f"an anonymous value; pass a named Relation instead"
                )
            return rng
        if isinstance(rng, ast.Selected):
            return ast.Selected(canon(rng.base), rng.selector, canon_args(rng.args))
        if isinstance(rng, ast.Constructed):
            return ast.Constructed(canon(rng.base), rng.constructor, canon_args(rng.args))
        if isinstance(rng, ast.QueryRange):
            if free_tuple_vars(rng.query):
                raise EvaluationError(
                    "correlated inline queries are not supported in "
                    "constructor application position"
                )
            scalar_map = {
                name: ast.Const(value)
                for name, value in params.items()
                if not isinstance(value, (Relation, RangeValue))
            }
            range_map = {
                name: ast.RelRef(value.name)
                for name, value in params.items()
                if isinstance(value, Relation)
            }
            query = substitute_params(rng.query, scalar_map)
            query = substitute_ranges(query, range_map)
            return ast.QueryRange(query)  # type: ignore[arg-type]
        if isinstance(rng, ast.ApplyVar):
            return rng
        raise EvaluationError(f"not a range expression: {rng!r}")

    def canon_args(args: tuple[ast.Argument, ...]) -> tuple[ast.Argument, ...]:
        out: list[ast.Argument] = []
        for arg in args:
            if isinstance(arg, _RANGE_NODES):
                out.append(canon(arg))
            elif isinstance(arg, ast.Const):
                out.append(arg)
            else:
                if evaluator is None:
                    raise EvaluationError(
                        f"scalar argument {arg!r} must be a constant when no "
                        f"evaluator context is available"
                    )
                out.append(ast.Const(evaluator.eval_term(arg, env)))
        return tuple(out)

    return canon(rexpr)


# ---------------------------------------------------------------------------
# System construction
# ---------------------------------------------------------------------------


def _static_schema(db: Database, rexpr: ast.RangeExpr) -> RecordType:
    """Schema of a canonical range expression, without evaluation."""
    if isinstance(rexpr, ast.RelRef):
        return db.relation(rexpr.name).element_type
    if isinstance(rexpr, ast.Selected):
        return _static_schema(db, rexpr.base)
    if isinstance(rexpr, ast.Constructed):
        return db.constructor(rexpr.constructor).result_type.element
    if isinstance(rexpr, ast.ApplyVar):
        return rexpr.schema
    if isinstance(rexpr, ast.QueryRange):
        branch = rexpr.query.branches[0]
        if branch.targets is None:
            return _static_schema(db, branch.bindings[0].range)
        raise SchemaError(
            "cannot statically infer the schema of a projecting inline query "
            "in constructor application position"
        )
    raise SchemaError(f"not a range expression: {rexpr!r}")


def _intern_applications(
    node: ast.Node, db: Database, discovered: dict[AppKey, None]
) -> ast.Node:
    """Replace every Constructed range with an ApplyVar, recording keys."""

    def rule(n: ast.Node) -> ast.Node | None:
        if isinstance(n, ast.Constructed):
            key = AppKey(n.constructor, n.base, n.args)
            constructor = db.constructor(n.constructor)
            discovered.setdefault(key)
            return ast.ApplyVar(key, constructor.result_type.element)
        return None

    return transform(node, rule)


def instantiate(
    db: Database,
    application: ast.Constructed,
    evaluator: Evaluator | None = None,
    env: Env | None = None,
    max_applications: int = MAX_APPLICATIONS,
) -> InstantiatedSystem:
    """Build the fixpoint system for ``application`` (section 3.2)."""
    canonical = canonicalize_range(application, evaluator, env)
    discovered: dict[AppKey, None] = {}
    root_node = _intern_applications(canonical, db, discovered)
    if not isinstance(root_node, ast.ApplyVar):
        raise DBPLError("instantiate() requires a constructor application")
    root_key: AppKey = root_node.token  # type: ignore[assignment]

    apps: dict[AppKey, InstantiatedApp] = {}
    while len(apps) < len(discovered):
        if len(discovered) > max_applications:
            raise DBPLError(
                f"constructor instantiation exceeded {max_applications} "
                f"applications; recursive parameter growth?"
            )
        key = next(k for k in discovered if k not in apps)
        apps[key] = _instantiate_one(db, key, discovered)
    return InstantiatedSystem(root_key, apps)


def _instantiate_one(
    db: Database, key: AppKey, discovered: dict[AppKey, None]
) -> InstantiatedApp:
    constructor = db.constructor(key.constructor)
    if len(key.args) != len(constructor.params):
        raise ArityError(
            f"constructor {constructor.name} expects {len(constructor.params)} "
            f"argument(s), got {len(key.args)}"
        )
    range_map: dict[str, ast.RangeExpr] = {constructor.formal_rel: key.base}
    scalar_map: dict[str, ast.Term] = {}
    for formal, actual in zip(constructor.params, key.args):
        if formal.is_relation:
            if not isinstance(actual, _RANGE_NODES):
                raise ArityError(
                    f"constructor {constructor.name}: parameter {formal.name} "
                    f"is relation-typed but got {actual!r}"
                )
            range_map[formal.name] = actual
        else:
            if not isinstance(actual, ast.Const):
                raise ArityError(
                    f"constructor {constructor.name}: parameter {formal.name} "
                    f"is scalar but got {actual!r}"
                )
            formal.type.check(actual.value, context=f"{constructor.name}({formal.name})")
            scalar_map[formal.name] = actual

    body = substitute_ranges(constructor.body, range_map)
    body = substitute_params(body, scalar_map)
    body = _intern_applications(body, db, discovered)
    _check_identity_branches(db, constructor, body)
    return InstantiatedApp(key, body, constructor.result_type)  # type: ignore[arg-type]


def _check_identity_branches(
    db: Database, constructor, body: ast.Query
) -> None:
    """Identity branches must be positionally compatible with the result."""
    result = constructor.result_type.element
    for branch in body.branches:
        if branch.targets is not None:
            continue
        schema = _static_schema(db, branch.bindings[0].range)
        if not schema.positionally_compatible(result):
            raise SchemaError(
                f"constructor {constructor.name}: identity branch over "
                f"{schema.name} is not positionally compatible with result "
                f"type {result.name}"
            )
