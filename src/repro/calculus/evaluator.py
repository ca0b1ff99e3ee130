"""Reference evaluator for tuple relational calculus expressions.

This is the *semantic baseline* of the library: a direct, readable
interpretation of queries as nested loops over range values, exactly
following the set-former reading of the paper's expressions.  Every other
engine (the plan-based executor, the fixpoint engines, the Datalog and
PROLOG engines) is tested against it.

Evaluation is dynamic: ranges are resolved against a
:class:`~repro.relational.Database`, plus

* ``params`` — actual values for selector/constructor formal parameters
  (scalars, or relations for relation-typed formals), and
* ``apply_values`` — current approximations for instantiated fixpoint
  variables (:class:`~repro.calculus.ast.ApplyVar`), supplied by the
  fixpoint engines.

Selected and constructed ranges dispatch (duck-typed, to keep package
layering acyclic) to the selector/constructor objects registered in the
database.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass

from ..errors import EvaluationError
from ..relational import Database, Relation
from ..types import INTEGER, RecordType, record
from . import ast
from .analysis import free_tuple_vars


@dataclass
class RangeValue:
    """A resolved range: raw rows plus the record type describing them."""

    rows: Collection[tuple]
    schema: RecordType


@dataclass
class EvalStats:
    """Operation counters for the reference evaluator."""

    bindings_iterated: int = 0
    predicates_checked: int = 0
    tuples_emitted: int = 0
    ranges_resolved: int = 0

    def merge(self, other: "EvalStats") -> None:
        self.bindings_iterated += other.bindings_iterated
        self.predicates_checked += other.predicates_checked
        self.tuples_emitted += other.tuples_emitted
        self.ranges_resolved += other.ranges_resolved


#: An environment maps tuple variables to (raw tuple, schema) pairs.
Env = dict[str, tuple[tuple, RecordType]]


def _is_cacheable(rexpr: ast.RangeExpr) -> bool:
    """True when the range's value cannot change within one evaluation.

    Cacheable ranges reference no enclosing tuple variables (no correlated
    arguments; an inline query's own variables are fine) and no fixpoint
    variables (whose approximations the fixpoint engines advance between
    evaluator instances).
    """
    return not free_tuple_vars(rexpr) and ast.find(rexpr, ast.ApplyVar) is None


class Evaluator:
    """Evaluates calculus ASTs against a database."""

    def __init__(
        self,
        db: Database,
        params: Mapping[str, object] | None = None,
        apply_values: Mapping[object, Collection[tuple]] | None = None,
        stats: EvalStats | None = None,
    ) -> None:
        self.db = db
        self.params = dict(params or {})
        self.apply_values = dict(apply_values or {})
        self.stats = stats if stats is not None else EvalStats()
        # Values of expensive uncorrelated ranges (constructed relations,
        # nested queries), keyed by AST node.  Valid for the lifetime of
        # this evaluator: one evaluator never spans a database mutation.
        self._range_cache: dict[ast.RangeExpr, RangeValue] = {}

    # -- public entry points ------------------------------------------------

    def eval_query(self, query: ast.Query, env: Env | None = None) -> set[tuple]:
        """Evaluate a set expression to a set of raw value tuples."""
        env = env or {}
        out: set[tuple] = set()
        for branch in query.branches:
            out |= self.eval_branch(branch, env)
        return out

    def eval_branch(self, branch: ast.Branch, env: Env) -> set[tuple]:
        if branch.targets is None and len(branch.bindings) != 1:
            raise EvaluationError(
                "a branch without a target list must bind exactly one variable"
            )
        out: set[tuple] = set()
        self._loop(branch, 0, dict(env), out)
        return out

    def eval_pred(self, pred: ast.Pred, env: Env) -> bool:
        self.stats.predicates_checked += 1
        return self._pred(pred, env)

    def eval_term(self, term: ast.Term, env: Env) -> object:
        return self._term(term, env)

    # -- range resolution ------------------------------------------------------

    def resolve_range(self, rexpr: ast.RangeExpr, env: Env) -> RangeValue:
        self.stats.ranges_resolved += 1
        if isinstance(rexpr, ast.RelRef):
            return self._resolve_name(rexpr.name)
        if isinstance(rexpr, ast.ApplyVar):
            try:
                rows = self.apply_values[rexpr.token]
            except KeyError:
                raise EvaluationError(
                    f"unbound fixpoint variable {rexpr.token!r}"
                ) from None
            return RangeValue(rows, rexpr.schema)
        cached = self._range_cache.get(rexpr)
        if cached is not None:
            return cached
        if isinstance(rexpr, ast.Selected):
            selector = self.db.selector(rexpr.selector)
            value = selector.apply_range(self, rexpr, env)
        elif isinstance(rexpr, ast.Constructed):
            constructor = self.db.constructor(rexpr.constructor)
            value = constructor.reference_value(self, rexpr, env)
        elif isinstance(rexpr, ast.QueryRange):
            schema = self.infer_schema(rexpr, env)
            value = RangeValue(self.eval_query(rexpr.query, env), schema)
        else:
            raise EvaluationError(f"not a range expression: {rexpr!r}")
        if _is_cacheable(rexpr):
            self._range_cache[rexpr] = value
        return value

    def _resolve_name(self, name: str) -> RangeValue:
        if name in self.params:
            value = self.params[name]
            if isinstance(value, Relation):
                return RangeValue(value.raw(), value.element_type)
            if isinstance(value, RangeValue):
                return value
            raise EvaluationError(
                f"parameter {name!r} is not relation-valued: {value!r}"
            )
        rel = self.db.relation(name)
        return RangeValue(rel.raw(), rel.element_type)

    # -- schema inference -------------------------------------------------------

    def infer_schema(self, rexpr: ast.RangeExpr, env: Env) -> RecordType:
        """The record type describing the tuples a range produces."""
        if isinstance(rexpr, ast.RelRef):
            name = rexpr.name
            if name not in self.params and name in self.db:
                # Schema-only access: never touch the rows, so compiling
                # against a cold store-backed relation stays scan-free.
                return self.db.relation(name).element_type
            return self._resolve_name(name).schema
        if isinstance(rexpr, ast.ApplyVar):
            return rexpr.schema
        if isinstance(rexpr, ast.Selected):
            return self.infer_schema(rexpr.base, env)
        if isinstance(rexpr, ast.Constructed):
            constructor = self.db.constructor(rexpr.constructor)
            return constructor.result_type.element
        if isinstance(rexpr, ast.QueryRange):
            return self._infer_query_schema(rexpr.query, env)
        raise EvaluationError(f"not a range expression: {rexpr!r}")

    def _infer_query_schema(self, query: ast.Query, env: Env) -> RecordType:
        if not query.branches:
            raise EvaluationError("cannot infer the schema of an empty query")
        branch = query.branches[0]
        if branch.targets is None:
            return self.infer_schema(branch.bindings[0].range, env)
        var_schemas = {
            b.var: self.infer_schema(b.range, env) for b in branch.bindings
        }
        fields: dict[str, object] = {}
        for i, target in enumerate(branch.targets):
            name, ftype = self._target_field(target, var_schemas, i)
            while name in fields:
                name += "_"
            fields[name] = ftype
        return record("anonymous", **fields)  # type: ignore[arg-type]

    def _target_field(self, target: ast.Term, var_schemas, position: int):
        if isinstance(target, ast.AttrRef) and target.var in var_schemas:
            schema = var_schemas[target.var]
            return target.attr, schema.field_type(target.attr)
        if isinstance(target, ast.Const):
            from ..types import BOOLEAN, REAL, STRING

            value = target.value
            if isinstance(value, bool):
                return f"c{position}", BOOLEAN
            if isinstance(value, str):
                return f"c{position}", STRING
            if isinstance(value, float):
                return f"c{position}", REAL
            return f"c{position}", INTEGER
        return f"c{position}", INTEGER

    # -- branch loops -----------------------------------------------------------

    def _loop(self, branch: ast.Branch, depth: int, env: Env, out: set[tuple]) -> None:
        if depth == len(branch.bindings):
            if self.eval_pred(branch.pred, env):
                out.add(self._emit(branch, env))
                self.stats.tuples_emitted += 1
            return
        binding = branch.bindings[depth]
        value = self.resolve_range(binding.range, env)
        for row in value.rows:
            self.stats.bindings_iterated += 1
            env[binding.var] = (row, value.schema)
            self._loop(branch, depth + 1, env, out)
        env.pop(binding.var, None)

    def _emit(self, branch: ast.Branch, env: Env) -> tuple:
        if branch.targets is None:
            row, _schema = env[branch.bindings[0].var]
            return row
        return tuple(self._term(t, env) for t in branch.targets)

    # -- predicates -------------------------------------------------------------

    def _pred(self, pred: ast.Pred, env: Env) -> bool:
        if isinstance(pred, ast.TruePred):
            return True
        if isinstance(pred, ast.Cmp):
            return _compare(pred.op, self._term(pred.left, env), self._term(pred.right, env))
        if isinstance(pred, ast.Not):
            return not self._pred(pred.pred, env)
        if isinstance(pred, ast.And):
            return all(self._pred(p, env) for p in pred.parts)
        if isinstance(pred, ast.Or):
            return any(self._pred(p, env) for p in pred.parts)
        if isinstance(pred, ast.Some):
            return self._quantified(pred, env, existential=True)
        if isinstance(pred, ast.All):
            return self._quantified(pred, env, existential=False)
        if isinstance(pred, ast.InRel):
            element = self._term(pred.element, env)
            value = self.resolve_range(pred.range, env)
            if not isinstance(element, tuple):
                element = (element,)
            return element in value.rows if isinstance(value.rows, (set, frozenset)) else element in set(value.rows)
        raise EvaluationError(f"not a predicate: {pred!r}")

    def _quantified(self, pred: ast.Some | ast.All, env: Env, existential: bool) -> bool:
        value = self.resolve_range(pred.range, env)
        rows = list(value.rows)
        saved = {v: env.get(v) for v in pred.vars}

        def assign(index: int) -> bool:
            if index == len(pred.vars):
                return self._pred(pred.pred, env)
            var = pred.vars[index]
            if existential:
                for row in rows:
                    self.stats.bindings_iterated += 1
                    env[var] = (row, value.schema)
                    if assign(index + 1):
                        return True
                return False
            for row in rows:
                self.stats.bindings_iterated += 1
                env[var] = (row, value.schema)
                if not assign(index + 1):
                    return False
            return True

        try:
            return assign(0)
        finally:
            for var, old in saved.items():
                if old is None:
                    env.pop(var, None)
                else:
                    env[var] = old

    # -- terms --------------------------------------------------------------------

    def _term(self, term: ast.Term, env: Env) -> object:
        if isinstance(term, ast.Const):
            return term.value
        if isinstance(term, ast.AttrRef):
            bound = env.get(term.var)
            if bound is None:
                raise EvaluationError(f"unbound tuple variable {term.var!r}")
            row, schema = bound
            return row[schema.index_of(term.attr)]
        if isinstance(term, ast.VarRef):
            bound = env.get(term.var)
            if bound is None:
                raise EvaluationError(f"unbound tuple variable {term.var!r}")
            return bound[0]
        if isinstance(term, ast.ParamRef):
            try:
                value = self.params[term.name]
            except KeyError:
                raise EvaluationError(
                    f"unbound parameter {term.name!r}"
                ) from None
            if isinstance(value, (Relation, RangeValue)):
                raise EvaluationError(
                    f"parameter {term.name!r} is relation-valued, not scalar"
                )
            return value
        if isinstance(term, ast.Arith):
            left = self._term(term.left, env)
            right = self._term(term.right, env)
            return _arith(term.op, left, right)
        if isinstance(term, ast.TupleCons):
            return tuple(self._term(i, env) for i in term.items)
        raise EvaluationError(f"not a term: {term!r}")


def _compare(op: str, left: object, right: object) -> bool:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right  # type: ignore[operator]
    if op == "<=":
        return left <= right  # type: ignore[operator]
    if op == ">":
        return left > right  # type: ignore[operator]
    if op == ">=":
        return left >= right  # type: ignore[operator]
    raise EvaluationError(f"unknown comparison operator {op!r}")


def _arith(op: str, left: object, right: object) -> object:
    if op == "+":
        return left + right  # type: ignore[operator]
    if op == "-":
        return left - right  # type: ignore[operator]
    if op == "*":
        return left * right  # type: ignore[operator]
    if op == "DIV":
        return left // right  # type: ignore[operator]
    if op == "MOD":
        return left % right  # type: ignore[operator]
    raise EvaluationError(f"unknown arithmetic operator {op!r}")


def evaluate(
    db: Database,
    query: ast.Query,
    params: Mapping[str, object] | None = None,
    apply_values: Mapping[object, Collection[tuple]] | None = None,
) -> set[tuple]:
    """One-shot convenience wrapper around :class:`Evaluator`."""
    return Evaluator(db, params, apply_values).eval_query(query)
