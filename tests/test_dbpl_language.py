"""End-to-end tests of the DBPL surface language: the paper runs verbatim."""

import pytest

from repro.dbpl import Session, parse_expression, parse_module, tokenize
from repro.calculus import ast
from repro.errors import BindingError, DBPLSyntaxError, IntegrityError, PositivityError

#: The paper's full CAD schema and definitions, in DBPL concrete syntax.
PAPER_MODULE = """
MODULE cad;

TYPE parttype    = STRING;
     objectrec   = RECORD part, kind: parttype END;
     objectrel   = RELATION part OF objectrec;
     infrontrec  = RECORD front, back: parttype END;
     infrontrel  = RELATION ... OF infrontrec;
     ontoprec    = RECORD top, base: parttype END;
     ontoprel    = RELATION ... OF ontoprec;
     aheadrec    = RECORD head, tail: parttype END;
     aheadrel    = RELATION ... OF aheadrec;
     aboverec    = RECORD high, low: parttype END;
     aboverel    = RELATION ... OF aboverec;

VAR Objects: objectrel;
    Infront: infrontrel;
    Ontop:   ontoprel;

SELECTOR refint FOR Rel: infrontrel;
BEGIN EACH r IN Rel: SOME r1, r2 IN Objects
      (r.front = r1.part AND r.back = r2.part)
END refint;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

CONSTRUCTOR ahead2 FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <f.front, b.back> OF EACH f, b IN Rel: f.back = b.front
END ahead2;

CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <r.front, ah.tail> OF EACH r IN Rel,
           EACH ah IN Rel{ahead(Ontop)}: r.back = ah.head,
      <r.front, ab.low> OF EACH r IN Rel,
           EACH ab IN Ontop{above(Rel)}: r.back = ab.high
END ahead;

CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;
BEGIN EACH r IN Rel: TRUE,
      <r.top, ab.low> OF EACH r IN Rel,
           EACH ab IN Rel{above(Infront)}: r.base = ab.high,
      <r.top, ah.tail> OF EACH r IN Rel,
           EACH ah IN Infront{ahead(Rel)}: r.base = ah.head
END above;

END cad.
"""

SCENE_OBJECTS = [
    ("table", "furniture"), ("chair", "furniture"), ("door", "fixture"),
    ("rug", "textile"), ("vase", "decor"), ("lamp", "decor"), ("desk", "furniture"),
]
SCENE_INFRONT = [("table", "chair"), ("chair", "door"), ("rug", "table")]
SCENE_ONTOP = [("vase", "table"), ("lamp", "desk")]


@pytest.fixture
def session():
    s = Session()
    s.execute(PAPER_MODULE)
    s.assign("Objects", SCENE_OBJECTS)
    s.assign("Infront", SCENE_INFRONT)
    s.assign("Ontop", SCENE_ONTOP)
    return s


class TestLexer:
    def test_keywords_and_idents(self):
        kinds = [t.kind for t in tokenize("SELECTOR foo FOR Rel")]
        assert kinds == ["SELECTOR", "ident", "FOR", "ident", "eof"]

    def test_nested_comments(self):
        tokens = tokenize("a (* outer (* inner *) still *) b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(DBPLSyntaxError):
            tokenize("(* oops")

    def test_string_literal(self):
        (tok, _eof) = tokenize('"table"')
        assert tok.kind == "string" and tok.text == "table"

    def test_symbols_longest_match(self):
        kinds = [t.kind for t in tokenize("<= <> .. :=")][:-1]
        assert kinds == ["<=", "<>", "..", ":="]

    def test_position_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[1].line == 2 and tokens[1].column == 3

    @pytest.mark.parametrize(
        "source, column",
        [
            ("{EACH r IN R: r.x = ²}", 21),  # was a bare ValueError from int('²')
            ("{EACH r IN R: r.x = ١٢}", 21),  # was silently the integer 12
            ("{EACH r IN R: r.x = 1٢}", 22),  # was silently the integer 12
        ],
    )
    def test_non_ascii_digits_are_syntax_errors(self, source, column):
        with pytest.raises(DBPLSyntaxError) as info:
            tokenize(source)
        assert (info.value.line, info.value.column) == (1, column)
        with pytest.raises(DBPLSyntaxError):
            parse_expression(source)

    def test_non_ascii_digits_in_identifiers_and_strings_stay(self):
        tokens = tokenize('x² "١٢"\n  12')
        assert [(t.kind, t.text) for t in tokens] == [
            ("ident", "x²"), ("string", "١٢"), ("int", "12"), ("eof", "")
        ]
        assert (tokens[2].line, tokens[2].column) == (2, 3)

    def test_check_reports_a_non_ascii_digit_as_dbpl000(self):
        s = Session()
        s.execute("TYPE rec = RECORD x: INTEGER END; rel = RELATION x OF rec; VAR R: rel;")
        diags = s.check("{EACH r IN R:\n r.x = ²}")
        assert diags.codes() == ["DBPL000"]
        assert (diags[0].span.line, diags[0].span.column) == (2, 8)
        with pytest.raises(DBPLSyntaxError):
            s.query("{EACH r IN R: r.x = ²}")


class TestParserShapes:
    def test_module_declarations_counted(self):
        # 11 types + 3 variables + 2 selectors + 3 constructors
        module = parse_module(PAPER_MODULE)
        assert len(module.declarations) == 19

    def test_expression_selected_constructed(self):
        node = parse_expression('Infront[hidden_by("table")]{ahead2}')
        assert isinstance(node, ast.Constructed)
        assert isinstance(node.base, ast.Selected)
        assert node.base.args == (ast.Const("table"),)

    def test_set_former_with_targets(self):
        node = parse_expression(
            "{EACH r IN Infront: TRUE, "
            "<f.front, b.back> OF EACH f, b IN Infront: f.back = b.front}"
        )
        assert isinstance(node, ast.Query)
        assert len(node.branches) == 2
        assert node.branches[1].targets == (
            ast.AttrRef("f", "front"), ast.AttrRef("b", "back"),
        )

    def test_bound_variable_becomes_varref(self):
        node = parse_expression("{EACH r IN E: r IN E}")
        pred = node.branches[0].pred
        assert pred == ast.InRel(ast.VarRef("r"), ast.RelRef("E"))

    def test_unbound_name_becomes_paramref(self):
        node = parse_expression("{EACH r IN E: r.front = Obj}")
        pred = node.branches[0].pred
        assert pred.right == ast.ParamRef("Obj")

    def test_arithmetic_precedence(self):
        node = parse_expression("{EACH r IN E: r.n = 1 + 2 * 3}")
        pred = node.branches[0].pred
        assert pred.right == ast.Arith(
            "+", ast.Const(1), ast.Arith("*", ast.Const(2), ast.Const(3))
        )

    def test_mismatched_end_name(self):
        with pytest.raises(DBPLSyntaxError, match="does not match"):
            parse_module(
                "SELECTOR s FOR Rel: t;\nBEGIN EACH r IN Rel: TRUE END wrong;"
            )

    def test_quantifier_multi_vars(self):
        node = parse_expression(
            "{EACH x IN E: SOME r1, r2 IN Objects (x.front = r1.part)}"
        )
        pred = node.branches[0].pred
        assert pred.vars == ("r1", "r2")


class TestSessionEndToEnd:
    def test_simple_query(self, session):
        rows = session.query('{EACH r IN Infront: r.front = "table"}')
        assert rows == {("table", "chair")}

    def test_ahead2_matches_library(self, session):
        rows = session.query("Infront{ahead2}")
        assert rows == {
            ("table", "chair"), ("chair", "door"), ("rug", "table"),
            ("table", "door"), ("rug", "chair"),
        }

    def test_mutual_recursion_through_syntax(self, session):
        rows = session.query("Ontop{above(Infront)}")
        assert rows == {
            ("vase", "table"), ("lamp", "desk"), ("vase", "chair"), ("vase", "door"),
        }

    def test_selected_range_query(self, session):
        rows = session.query('Infront[hidden_by("table")]')
        assert rows == {("table", "chair")}

    def test_paper_hidden_by_ahead_composition(self, session):
        rows = session.query('Infront[hidden_by("table")]{ahead(Ontop)}')
        assert rows == {("table", "chair")}

    def test_checked_assignment_rejects(self, session):
        with pytest.raises(IntegrityError):
            session.assign("Infront[refint]", [("ghost", "chair")])

    def test_checked_assignment_accepts(self, session):
        session.assign("Infront[refint]", [("chair", "table")])
        assert session.query("Infront") == {("chair", "table")}

    def test_nonsense_rejected_by_positivity(self, session):
        with pytest.raises(PositivityError):
            session.execute(
                """
                TYPE cardrec = RECORD number: CARDINAL END;
                     cardrel = RELATION ... OF cardrec;
                CONSTRUCTOR nonsense FOR Rel: cardrel (): cardrel;
                BEGIN EACH r IN Rel: NOT (r IN Rel{nonsense})
                END nonsense;
                """
            )

    def test_range_type_declaration(self):
        s = Session()
        s.execute("TYPE partidtype = RANGE 1..100;")
        from repro.types import RangeType

        assert isinstance(s.types["partidtype"], RangeType)

    def test_enum_type_declaration(self):
        s = Session()
        s.execute("TYPE colour = (red, green, blue);")
        assert s.types["colour"].labels == ("red", "green", "blue")

    def test_unknown_type_raises(self):
        s = Session()
        with pytest.raises(BindingError, match="unknown type"):
            s.execute("VAR X: mystery;")

    def test_scalar_var_rejected(self):
        s = Session()
        with pytest.raises(BindingError, match="relation-typed"):
            s.execute("VAR n: INTEGER;")

    def test_key_constraint_via_syntax(self, session):
        from repro.errors import KeyConstraintError

        with pytest.raises(KeyConstraintError):
            session.assign("Objects", [("table", "a"), ("table", "b")])
