"""DBPL surface language: lexer, parser, and interactive sessions."""

from .astnodes import (
    ConstructorDecl,
    EnumTypeExpr,
    FieldGroup,
    Module,
    ParamDecl,
    RangeTypeExpr,
    RecordTypeExpr,
    RelationTypeExpr,
    SelectorDecl,
    TypeDecl,
    TypeName,
    VarDecl,
)
from .lexer import Token, tokenize
from .parser import Parser, parse_declarations, parse_expression, parse_module
from ..relational import DatabaseSnapshot
from .serving import (
    DEFAULT_PLAN_CACHE_SIZE,
    PlanCache,
    PreparedPlan,
    PreparedQuery,
    parameterize,
    range_query,
)
from .session import Session
from .subscriptions import ChangeEvent, Subscription, SubscriptionRegistry

__all__ = [
    "ChangeEvent",
    "ConstructorDecl",
    "DEFAULT_PLAN_CACHE_SIZE",
    "DatabaseSnapshot",
    "EnumTypeExpr",
    "FieldGroup",
    "Module",
    "ParamDecl",
    "Parser",
    "PlanCache",
    "PreparedPlan",
    "PreparedQuery",
    "RangeTypeExpr",
    "RecordTypeExpr",
    "RelationTypeExpr",
    "SelectorDecl",
    "Session",
    "Subscription",
    "SubscriptionRegistry",
    "Token",
    "TypeDecl",
    "TypeName",
    "VarDecl",
    "parameterize",
    "parse_declarations",
    "parse_expression",
    "parse_module",
    "range_query",
    "tokenize",
]
