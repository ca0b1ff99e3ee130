"""Unit tests for the typed-vector layer (PR 8).

The dictionary/encoded-table machinery of
:mod:`repro.relational.vectors`, its incremental maintenance on
``Relation``, and what ``executor="vector"`` does in a process where
numpy does not import.  Cross-backend result agreement lives in
``test_executor_properties.py``; this file pins the data structures
themselves.
"""

import pickle
import random
from array import array

import pytest

from helpers import (
    assert_executors_agree,
    assert_fixpoint_executors_agree,
    random_prop_database,
    transitive_closure,
)
from repro import ExecOptions, paper
from repro.calculus import dsl as d
from repro.compiler import BatchedResidualFilter, Project, ShardConfig, executors as executors_mod
from repro.compiler import lower_branch_vector
from repro.dbpl import Session
from repro.relational import Dictionary, EncodedTable, Relation
from repro.relational import vectors as vectors_mod
from repro.relational.vectors import get_numpy, translation
from repro.types import INTEGER, STRING, record, relation_type

PART = record("partrec", part=STRING, weight=INTEGER)
PARTS = relation_type("partsrel", PART, key=("part",))


class TestDictionary:
    def test_encode_assigns_dense_first_encounter_ids(self):
        dic = Dictionary()
        assert [dic.encode(v) for v in ("b", "a", "b", "c")] == [0, 1, 0, 2]
        assert dic.values == ["b", "a", "c"]
        assert len(dic) == 3

    def test_encode_batch_matches_encode(self):
        dic = Dictionary()
        ids = dic.encode_batch(["x", "y", "x", "z", "y"])
        assert isinstance(ids, array)
        assert list(ids) == [0, 1, 0, 2, 1]

    def test_lookup_miss_is_minus_one(self):
        dic = Dictionary()
        dic.encode("present")
        assert dic.lookup("present") == 0
        assert dic.lookup("absent") == -1

    def test_decode_roundtrip(self):
        dic = Dictionary()
        for v in (1, "two", None, (3, 4)):
            assert dic.decode(dic.encode(v)) == v

    def test_pickle_recreates_lock_and_keeps_ids(self):
        dic = Dictionary()
        dic.encode_batch(["a", "b"])
        clone = pickle.loads(pickle.dumps(dic))
        assert clone.values == ["a", "b"]
        assert clone.lookup("b") == 1
        clone.encode("c")  # the recreated lock must work
        assert clone.lookup("c") == 2


class TestTranslation:
    def test_maps_shared_values_and_marks_misses(self):
        src, dst = Dictionary(), Dictionary()
        src.encode_batch(["a", "b", "c"])
        dst.encode_batch(["c", "a"])
        assert list(translation(src, dst)) == [1, -1, 0]

    def test_same_dictionary_is_identity(self):
        dic = Dictionary()
        dic.encode("a")
        assert translation(dic, dic) is None


def _table(rows):
    dics = (Dictionary(), Dictionary())
    return EncodedTable.from_rows(rows, dics), dics


class TestEncodedTable:
    ROWS = [("a", 1), ("b", 2), ("a", 3), ("c", 1)]

    def test_from_rows_encodes_columnwise(self):
        table, dics = _table(self.ROWS)
        assert table.n == 4
        assert list(table.columns[0].ids) == [0, 1, 0, 2]
        assert list(table.columns[1].ids) == [0, 1, 2, 0]
        assert table.rows is self.ROWS or table.rows == self.ROWS
        assert table.columns[0].dictionary is dics[0]

    def test_extended_appends_without_reencoding(self):
        table, _dics = _table(self.ROWS)
        fresh = [("b", 9), ("d", 1)]
        grown = table.extended(fresh, self.ROWS + fresh)
        assert grown.n == 6
        assert list(grown.columns[0].ids) == [0, 1, 0, 2, 1, 3]
        assert list(grown.columns[1].ids) == [0, 1, 2, 0, 3, 0]
        # The original buffers were copied, not mutated.
        assert table.n == 4
        assert len(table.columns[0].ids) == 4

    def test_csr_matches_brute_force_grouping(self):
        if get_numpy() is None:
            pytest.skip("csr is the numpy kernels' probe table")
        table, _dics = _table(self.ROWS)
        for pos in (0, 1):
            order, starts, counts = table.csr(pos)
            ids = list(table.columns[pos].ids)
            for g in range(len(counts)):
                rows = order[starts[g] : starts[g] + counts[g]].tolist()
                assert sorted(rows) == [i for i, v in enumerate(ids) if v == g]


class TestRelationEncoding:
    def test_encoded_is_version_cached(self):
        rel = Relation("Parts", PARTS, [("table", 30), ("vase", 2)])
        table = rel.encoded()
        assert table is rel.encoded()
        assert table.n == 2

    def test_insert_maintains_encoding_incrementally(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        before = rel.encoded()
        dics = rel.dictionaries()
        rel.insert([("vase", 2)])
        after = rel.encoded()
        assert after is not before
        assert after.n == 2
        assert rel.dictionaries() is dics  # dictionaries persist
        # Ids are stable across versions: "table" keeps id 0.
        assert list(after.columns[0].ids)[0] == list(before.columns[0].ids)[0]

    def test_dictionaries_cover_all_committed_values(self):
        rel = Relation("Parts", PARTS, [("table", 30), ("vase", 2)])
        rel.encoded()
        part_dic = rel.dictionaries()[0]
        assert {part_dic.lookup("table"), part_dic.lookup("vase")} == {0, 1}


class TestVectorFallback:
    def test_uncovered_shape_falls_back_and_agrees(self):
        """A computed-range / residual query is outside the vector
        lowering's coverage; ``executor="vector"`` must still answer via
        the columnar fallback chain."""
        rng = random.Random(23)
        db = random_prop_database(rng)
        query = d.query(
            d.branch(
                d.each("x", "P"),
                d.each("y", "Q"),
                pred=d.and_(
                    d.eq(d.a("x", "f"), d.a("y", "k")),
                    # Column-to-column comparison: not a const/param
                    # filter, so the vector lowering rejects the branch.
                    d.le(d.a("x", "n"), d.a("y", "n")),
                ),
                targets=[d.a("x", "k"), d.a("y", "f")],
            )
        )
        assert_executors_agree(db, query, executors=("vector", "batch"))

    def test_projection_hashes_id_tuples_when_the_packed_key_overflows(
        self, monkeypatch
    ):
        """Dictionaries too wide to pack into one int64 key dedup as id
        tuples instead (forced here: real ones need > 2**62 values)."""
        if get_numpy() is None:
            pytest.skip("the vector kernels need numpy")
        from repro.compiler.operators import VectorProject

        monkeypatch.setattr(
            VectorProject, "_distinct_np", staticmethod(lambda np, arrs, dyn: None)
        )
        db = random_prop_database(random.Random(31))
        query = d.query(
            d.branch(
                d.each("x", "P"),
                d.each("y", "Q"),
                pred=d.eq(d.a("x", "f"), d.a("y", "k")),
                targets=[d.a("x", "k"), d.a("y", "f")],
            )
        )
        assert_executors_agree(db, query, executors=("vector", "batch"))


SCHEMA = """
TYPE prec = RECORD front, back: STRING END;
     prel = RELATION front, back OF prec;
VAR Infront: prel;
CONSTRUCTOR ahead FOR Rel: prel (): prel;
BEGIN EACH r IN Rel: TRUE,
      <r.front, a.back> OF EACH r IN Rel,
           EACH a IN Rel{ahead()}: r.back = a.front
END ahead;
"""

#: Join + filter + projection: a shape the vector lowering covers, so
#: with numpy it runs the int-id kernels end to end.
JOIN = (
    '{<r.front, t.back> OF EACH r IN Infront, EACH t IN Infront: '
    'r.back = t.front AND t.back <> "wall"}'
)
EDGES = [
    ("table", "chair"),
    ("chair", "door"),
    ("vase", "door"),
    ("door", "wall"),
    ("door", "hall"),
]
JOIN_ROWS = {("table", "door"), ("chair", "hall"), ("vase", "hall")}
AHEAD = "Infront{ahead()}"


class TestVectorWithoutNumpy:
    """``executor="vector"`` is the numpy kernels or it is ``batch``.

    With numpy unimportable the vector backend hands every branch to the
    batch pipeline — observably (``Session.fallbacks`` + DBPL906), with
    the reference answers, and without ever running the vector lowering.
    """

    FORCED = dict(workers=3, min_rows=0, rows_per_shard=1)

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        """Poison the cached module (what a failed import leaves behind)
        and record every use of the vector lowering."""
        monkeypatch.setattr(vectors_mod, "_NUMPY_MODULE", False)
        lowered = []
        original = executors_mod.VectorBackend.lowering

        def spy(*args, **kwargs):
            lowered.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(executors_mod.VectorBackend, "lowering", staticmethod(spy))
        assert get_numpy() is None
        return lowered

    def _session(self, diags=None, **options):
        s = Session(
            on_diagnostic=diags.append if diags is not None else None,
            options=ExecOptions(**options),
        )
        s.execute(SCHEMA)
        s.insert("Infront", EDGES)
        return s

    def test_query_runs_on_batch_counts_and_hints(self, no_numpy):
        diags = []
        s = self._session(diags, executor="vector")
        assert s.query(JOIN, mode="interpreted") == JOIN_ROWS
        assert s.query(JOIN, options=ExecOptions(executor="batch")) == JOIN_ROWS
        assert s.fallbacks["vector_numpy"] == 0
        assert s.query(JOIN) == JOIN_ROWS
        assert no_numpy == []
        assert s.fallbacks["vector_numpy"] == 1
        hints = [d_ for d_ in diags if d_.code == "DBPL906"]
        assert len(hints) == 1 and hints[0].severity == "hint"
        assert s.query(JOIN) == JOIN_ROWS  # every execution is counted
        assert s.fallbacks["vector_numpy"] == 2

    def test_constructed_range_counts_and_hints_once_per_query(self, no_numpy):
        """Every branch of every iteration degrades; the query reports
        it once — it used to report nothing."""
        diags = []
        s = self._session(diags, executor="vector")
        closure = transitive_closure(EDGES)
        assert s.query(AHEAD, mode="interpreted") == closure
        assert s.fallbacks["vector_numpy"] == 0
        assert s.query(AHEAD) == closure
        assert no_numpy == []
        assert s.fallbacks["vector_numpy"] == 1
        hints = [d_ for d_ in diags if d_.code == "DBPL906"]
        assert len(hints) == 1 and hints[0].severity == "hint"
        assert s.query(AHEAD) == closure  # every query is counted
        assert s.fallbacks["vector_numpy"] == 2

    def test_fixpoint_subscription_counts_and_hints(self, no_numpy):
        diags = []
        s = self._session(diags, executor="vector")
        sub = s.subscribe(AHEAD)
        assert sub.rows() == transitive_closure(EDGES)
        materialized = s.fallbacks["vector_numpy"]
        assert materialized == 1  # the initial run, once
        s.insert("Infront", [("hall", "yard")])
        assert sub.rows() == transitive_closure([*EDGES, ("hall", "yard")])
        assert sub.delta_batches == 1 and sub.recomputes == 0
        assert s.fallbacks["vector_numpy"] > materialized  # maintenance too
        assert no_numpy == []
        assert {d_.code for d_ in diags} == {"DBPL906"}
        assert len(diags) == s.fallbacks["vector_numpy"]

    @pytest.mark.parametrize(
        "source, maintenance",
        [
            ("{EACH r IN Infront{ahead()}: TRUE}", (1, 0)),
            ('{EACH r IN Infront{ahead()}: r.front <> "yard"}', (0, 1)),
        ],
    )
    def test_set_former_subscription_counts_and_hints(
        self, no_numpy, source, maintenance
    ):
        """A set former over a constructed range compiles with the
        requested executor: its fixpoint runs on "vector", degrades and
        says so — on subscribe and on every maintenance batch."""
        diags = []
        s = self._session(diags, executor="vector")
        sub = s.subscribe(source)
        assert sub.rows() == s.query(source, mode="interpreted")
        materialized = s.fallbacks["vector_numpy"]
        assert materialized == 1  # the initial run, once
        s.insert("Infront", [("hall", "yard")])
        assert sub.rows() == s.query(source, mode="interpreted")
        assert (sub.delta_batches, sub.recomputes) == maintenance
        assert s.fallbacks["vector_numpy"] > materialized  # maintenance too
        assert no_numpy == []
        assert {d_.code for d_ in diags} == {"DBPL906"}
        assert len(diags) == s.fallbacks["vector_numpy"]

    def test_recursive_constructor_agrees(self, no_numpy):
        edges = [(f"n{i}", f"n{i + 1}") for i in range(12)] + [("n12", "n3")]
        assert_fixpoint_executors_agree(
            lambda: paper.cad_database(infront=edges, mutual=False),
            d.constructed("Infront", "ahead"),
            executors=("vector", "batch", "sharded"),
            shard_config=ShardConfig(**self.FORCED),
            oracle=transitive_closure(edges),
        )
        assert no_numpy == []

    def test_counter_stays_zero_with_numpy(self):
        if get_numpy() is None:
            pytest.skip("numpy is not importable here")
        diags = []
        s = self._session(diags, executor="vector")
        assert s.query(JOIN) == JOIN_ROWS
        assert s.fallbacks["vector_numpy"] == 0
        assert "DBPL906" not in {d_.code for d_ in diags}


SHAPES_SCHEMA = """
TYPE node = STRING; edgerec = RECORD src, dst: node END;
     edgerel = RELATION ... OF edgerec;
     wrec = RECORD src, dst: node; w: INTEGER END;
     wrel = RELATION ... OF wrec;
VAR Edge, Block: edgerel; W: wrel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <t.src, r.dst> OF EACH t IN Rel{tc()}, EACH r IN Rel: t.dst = r.src
END tc;
"""
NOT_BLOCKED = "NOT SOME b IN Block (b.src = f.dst AND b.dst = e.src)"

#: (query, covered by the vector lowering, its operator labels).  Binding
#: order is the written one (``optimizer="syntactic"``); an uncovered
#: branch runs on the batch pipeline instead.
VECTOR_SHAPES = [
    # Pure id space: scan + range filter + join, a constant lookup, and
    # a whole-row target.
    (
        "{<e.src, f.dst> OF EACH e IN W, EACH f IN Edge: e.dst = f.src AND e.w > 2}",
        True,
        ("VSCAN W", "VFILTER [e.w > __bind_0]", "VJOIN Edge[0]",
         "VPROJECT <e.src, f.dst>  (id dedup)"),
    ),
    (
        '{<e.src, f.dst> OF EACH e IN Edge, EACH f IN Edge: e.dst = f.src AND e.src = "n3"}',
        True,
        ("VLOOKUP Edge[0]", "VJOIN Edge[0]", "VPROJECT <e.src, f.dst>  (id dedup)"),
    ),
    (
        "{<e, f.dst> OF EACH e IN Edge, EACH f IN Edge: e.dst = f.src}",
        True,
        ("VSCAN Edge", "VJOIN Edge[0]", "VPROJECT <e, f.dst>  (id dedup)"),
    ),
    # A residual on the last step: id space up to the materialize
    # boundary, then the columnar residual and row-space projection.
    (
        f"{{<e.src, f.dst> OF EACH e IN Edge, EACH f IN Edge: e.dst = f.src AND {NOT_BLOCKED}}}",
        True,
        ("VSCAN Edge", "VJOIN Edge[0]", "VMATERIALIZE",
         f"RESIDUAL NOT ({NOT_BLOCKED[4:]})  (grouped index probe)",
         "PROJECT <e.src, f.dst>"),
    ),
    # Outside the coverage rules.
    (  # a step residual on a non-last step
        "{<e.src, f.dst> OF EACH e IN Edge, EACH f IN Edge: "
        "e.dst = f.src AND SOME b IN Block (b.src = e.dst)}",
        False,
        None,
    ),
    (  # a multi-column key
        "{<e.src, f.dst> OF EACH e IN Edge, EACH f IN Edge: e.dst = f.src AND e.src = f.dst}",
        False,
        None,
    ),
    (  # a mid-pipeline cross product
        '{<e.src, f.dst> OF EACH e IN Edge, EACH f IN Edge: e.src = "n1"}',
        False,
        None,
    ),
    (  # an apply source that is not the leading scan
        "{<e.src, t.dst> OF EACH e IN Edge, EACH t IN Edge{tc()}: e.dst = t.src}",
        False,
        None,
    ),
    (  # a computed range
        '{<e.src, r.dst> OF EACH e IN Edge, EACH r IN {EACH x IN Edge: x.src = "n1"}: '
        "e.dst = r.src}",
        False,
        None,
    ),
]


class TestVectorPipelineShapes:
    """What the step walk builds on the id-space kernels, shape by shape."""

    @pytest.fixture
    def session(self):
        if get_numpy() is None:
            pytest.skip("the vector kernels need numpy")
        s = Session(options=ExecOptions(executor="vector", optimizer="syntactic"))
        s.execute(SHAPES_SCHEMA)
        edges = [(f"n{i}", f"n{(i * 3 + 1) % 7}") for i in range(7)]
        s.insert("Edge", edges + [("n3", "n5"), ("n5", "n6")])
        s.insert("Block", [("n2", "n0"), ("n5", "n3")])
        s.insert("W", [(src, dst, i) for i, (src, dst) in enumerate(edges)])
        return s

    @pytest.mark.parametrize("text, covered, labels", VECTOR_SHAPES)
    def test_shape(self, session, text, covered, labels):
        prepared = session.prepare(text)
        (branch,) = prepared.plan.statement.top_plan.branches
        pipeline = branch.lowered(lower_branch_vector)
        assert (pipeline is not None) == covered
        if covered:
            assert tuple(op.label for op in pipeline.operators()) == labels
        assert prepared.execute() == session.query(text, mode="interpreted")

    def test_residual_tail_drops_dead_slots(self, session):
        # The residual reads e and f, the target only e: f's slot does
        # not survive the residual filter.
        text = f"{{<e.src> OF EACH e IN Edge, EACH f IN Edge: e.dst = f.src AND {NOT_BLOCKED}}}"
        prepared = session.prepare(text)
        (branch,) = prepared.plan.statement.top_plan.branches
        ops = list(branch.lowered(lower_branch_vector).operators())
        (residual,) = [op for op in ops if isinstance(op, BatchedResidualFilter)]
        assert [pos for _var, _schema, pos in residual.var_rows] == [0, 1]
        assert residual.keep_slots == (0,)
        assert isinstance(ops[-1], Project)
        assert prepared.execute() == session.query(text, mode="interpreted")
