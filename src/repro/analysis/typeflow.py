"""Predicate type-flow and constant-folding analysis.

The calculus shares one logic between the type level and the expression
level (paper, section 2): every comparison ``r.back = b.front`` is also a
typing judgment — its operands must come from comparable scalar families.
This module computes that judgment statically, plus the constant facts
that fall out of it:

* :func:`term_type` — the scalar :class:`~repro.types.Type` of a term
  under a variable/parameter typing environment (None when unknown);
* :func:`comparable` — whether two inferred types may meet in one
  comparison (unknowns and the ``ANY`` bridge domain compare with all);
* :func:`fold_pred` — tri-state evaluation (True / False / None) of a
  predicate: const⊗const comparisons, syntactically-identical operands
  (``t = t``), domain membership of constants against enum/subrange
  attribute types, and the And/Or/Not lattice over those;
* :func:`conjunction_contradictions` — interval analysis over the
  constant bounds a conjunction puts on each attribute (``x > 5 AND
  x < 3`` is provably empty even though no single conjunct folds);
* :func:`folds_on_constants` / :func:`bounds_one_term_twice` — whether
  those two verdicts read a constant's *value*.  Where neither does, the
  verdict holds for every constant of the same type, which is what lets
  the session front door cache it per token shape.

Everything here is pure: no database access, no exceptions for user
errors — callers turn the returned facts into diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..calculus import ast
from ..types import BOOLEAN, INTEGER, REAL, STRING, EnumType, RangeType, RecordType, Type

# ---------------------------------------------------------------------------
# Typing environment
# ---------------------------------------------------------------------------


class TypeEnv:
    """Maps tuple variables to their element record types and scalar
    parameters to their declared types (both optionally unknown)."""

    def __init__(
        self,
        var_schemas: dict[str, RecordType] | None = None,
        param_types: dict[str, Type] | None = None,
    ) -> None:
        self.var_schemas = dict(var_schemas or {})
        self.param_types = dict(param_types or {})

    def child(self, more_vars: dict[str, RecordType]) -> "TypeEnv":
        merged = dict(self.var_schemas)
        merged.update(more_vars)
        return TypeEnv(merged, self.param_types)

    def schema_of(self, var: str) -> RecordType | None:
        return self.var_schemas.get(var)


# ---------------------------------------------------------------------------
# Term typing
# ---------------------------------------------------------------------------


def const_type(value: object) -> Type:
    """The atomic type of a Python literal (bool before int!)."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return REAL
    return STRING


def term_type(term: ast.Term, env: TypeEnv) -> Type | None:
    """The scalar type of ``term``, or None when it cannot be inferred."""
    if isinstance(term, ast.Const):
        return const_type(term.value)
    if isinstance(term, ast.AttrRef):
        schema = env.schema_of(term.var)
        if schema is not None and schema.has_attribute(term.attr):
            return schema.field_type(term.attr)
        return None
    if isinstance(term, ast.ParamRef):
        return env.param_types.get(term.name)
    if isinstance(term, ast.Arith):
        # Arithmetic is numeric-in / numeric-out; operand families are
        # checked where the comparison diagnostics run.
        return INTEGER
    # VarRef (whole tuples) and TupleCons have record-like values.
    return None


def comparable(a: Type | None, b: Type | None) -> bool:
    """May values of ``a`` and ``b`` meet in one comparison?

    Unknown types and the universal ``ANY`` domain (Datalog bridge)
    compare with everything — the analyzer only reports what it can
    prove wrong.
    """
    if a is None or b is None:
        return True
    fa, fb = a.family(), b.family()
    if fa == "any" or fb == "any":
        return True
    return fa == fb


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "DIV": lambda a, b: a // b,
    "MOD": lambda a, b: a % b,
}

_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def const_value(term: ast.Term) -> tuple[bool, object]:
    """``(True, value)`` when ``term`` folds to a constant, else ``(False, None)``."""
    if isinstance(term, ast.Const):
        return True, term.value
    if isinstance(term, ast.Arith):
        lk, lv = const_value(term.left)
        rk, rv = const_value(term.right)
        if lk and rk and isinstance(lv, (int, float)) and isinstance(rv, (int, float)):
            try:
                return True, _ARITH[term.op](lv, rv)
            except (ZeroDivisionError, KeyError):
                return False, None
    return False, None


def _fold_cmp(op: str, left: object, right: object) -> bool | None:
    if type(left) is bool or type(right) is bool:
        if type(left) is not type(right) and op in ("<", "<=", ">", ">="):
            return None
    try:
        return bool(_CMP[op](left, right))
    except TypeError:
        return None


#: Reflexive comparisons: ``t op t`` for deterministic terms.
_REFLEXIVE = {"=": True, "<=": True, ">=": True, "<>": False, "<": False, ">": False}


def fold_pred(pred: ast.Pred, env: TypeEnv) -> bool | None:
    """Tri-state static value of ``pred``: True, False, or None (unknown)."""
    if isinstance(pred, ast.TruePred):
        return True
    if isinstance(pred, ast.Cmp):
        lk, lv = const_value(pred.left)
        rk, rv = const_value(pred.right)
        if lk and rk:
            return _fold_cmp(pred.op, lv, rv)
        if pred.left == pred.right:
            return _REFLEXIVE.get(pred.op)
        # constant vs enum/subrange attribute: domain membership
        folded = _fold_domain(pred, env)
        if folded is not None:
            return folded
        return None
    if isinstance(pred, ast.Not):
        inner = fold_pred(pred.pred, env)
        return None if inner is None else not inner
    if isinstance(pred, ast.And):
        values = [fold_pred(p, env) for p in pred.parts]
        if any(v is False for v in values):
            return False
        if all(v is True for v in values):
            return True
        return None
    if isinstance(pred, ast.Or):
        values = [fold_pred(p, env) for p in pred.parts]
        if any(v is True for v in values):
            return True
        if all(v is False for v in values):
            return False
        return None
    return None  # Some/All/InRel need data


def folds_on_constants(cmp: ast.Cmp, env: TypeEnv) -> bool:
    """Does :func:`fold_pred`'s verdict on ``cmp`` read a constant's value?

    True when both operands fold to constants (``1 = 2``), or one does
    and the other has an enum/subrange type (domain membership); every
    other fold is decided by the operands' syntax alone.
    """
    left, right = const_value(cmp.left)[0], const_value(cmp.right)[0]
    if left and right:
        return True
    if left or right:
        other = cmp.right if left else cmp.left
        return isinstance(term_type(other, env), (EnumType, RangeType))
    return False


def _fold_domain(cmp: ast.Cmp, env: TypeEnv) -> bool | None:
    """Fold ``attr = const`` / ``attr <> const`` when the constant lies
    outside the attribute's declared enum/subrange domain."""
    for attr_side, const_side in ((cmp.left, cmp.right), (cmp.right, cmp.left)):
        known, value = const_value(const_side)
        if not known:
            continue
        atype = term_type(attr_side, env)
        if isinstance(atype, (EnumType, RangeType)) and not atype.contains(value):
            if cmp.op == "=":
                return False
            if cmp.op == "<>":
                return True
    return None


# ---------------------------------------------------------------------------
# Interval analysis over conjunctions
# ---------------------------------------------------------------------------


@dataclass
class _Bounds:
    """Accumulated constant constraints on one term."""

    lo: object = None
    lo_strict: bool = False
    hi: object = None
    hi_strict: bool = False
    eq: object = None
    has_eq: bool = False
    first_node: ast.Cmp | None = None
    nodes: list = field(default_factory=list)

    def _tighten_lo(self, value, strict: bool) -> None:
        if self.lo is None or value > self.lo or (value == self.lo and strict):
            self.lo, self.lo_strict = value, strict

    def _tighten_hi(self, value, strict: bool) -> None:
        if self.hi is None or value < self.hi or (value == self.hi and strict):
            self.hi, self.hi_strict = value, strict

    def add(self, op: str, value, node: ast.Cmp) -> str | None:
        """Fold one ``term op value`` constraint in; returns a
        contradiction message when the accumulated set became empty."""
        self.nodes.append(node)
        if self.first_node is None:
            self.first_node = node
        try:
            if op == "=":
                if self.has_eq and self.eq != value:
                    return f"equals both {self.eq!r} and {value!r}"
                self.eq, self.has_eq = value, True
                self._tighten_lo(value, False)
                self._tighten_hi(value, False)
            elif op in (">", ">="):
                self._tighten_lo(value, op == ">")
            elif op in ("<", "<="):
                self._tighten_hi(value, op == "<")
            else:
                return None  # '<>' never empties an interval on its own
            if self.lo is not None and self.hi is not None:
                if self.lo > self.hi or (
                    self.lo == self.hi and (self.lo_strict or self.hi_strict)
                ):
                    lo_op = ">" if self.lo_strict else ">="
                    hi_op = "<" if self.hi_strict else "<="
                    return f"requires {lo_op} {self.lo!r} and {hi_op} {self.hi!r}"
        except TypeError:
            return None  # mixed-type bounds: type-flow check reports those
        return None


def _bound_key(term: ast.Term):
    if isinstance(term, ast.AttrRef):
        return ("attr", term.var, term.attr)
    if isinstance(term, ast.ParamRef):
        return ("param", term.name)
    return None


def _constant_bounds(parts: tuple[ast.Pred, ...]):
    """``(term key, op, value, comparison)`` of every ``term op constant``
    in a conjunction, oriented so the term is on the left."""
    for part in parts:
        if not isinstance(part, ast.Cmp):
            continue
        for term_side, const_side, op in (
            (part.left, part.right, part.op),
            (part.right, part.left, _FLIP.get(part.op, part.op)),
        ):
            key = _bound_key(term_side)
            if key is None:
                continue
            known, value = const_value(const_side)
            if not known or isinstance(value, bool):
                continue
            yield key, op, value, part
            break  # a Cmp constrains through one orientation only


def conjunction_contradictions(
    parts: tuple[ast.Pred, ...], env: TypeEnv
) -> list[tuple[ast.Cmp, str]]:
    """Provably-empty constant intervals implied by a conjunction.

    Returns ``(witness_node, message)`` pairs — one per contradicted
    term, anchored at the comparison that closed the interval.
    """
    bounds: dict[tuple, _Bounds] = {}
    findings: list[tuple[ast.Cmp, str]] = []
    dead: set[tuple] = set()
    for key, op, value, part in _constant_bounds(parts):
        if key in dead:
            continue
        message = bounds.setdefault(key, _Bounds()).add(op, value, part)
        if message is not None:
            findings.append((part, f"{_key_text(key)} {message}"))
            dead.add(key)
    return findings


def bounds_one_term_twice(parts: tuple[ast.Pred, ...]) -> bool:
    """Does some term get two constant bounds in the conjunction ``parts``?

    Only then can :func:`conjunction_contradictions` find anything, and
    whether it does depends on the constants (``<>`` never narrows an
    interval, so it does not count).
    """
    seen: set[tuple] = set()
    for key, op, _, _ in _constant_bounds(parts):
        if op == "<>":
            continue
        if key in seen:
            return True
        seen.add(key)
    return False


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _key_text(key: tuple) -> str:
    if key[0] == "attr":
        return f"{key[1]}.{key[2]}"
    return key[1]
