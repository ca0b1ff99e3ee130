"""What a cold read decodes: pushed predicates on ids, values late.

A fresh handle on a spilled database plans from ``stats.json`` alone,
decides each pushed conjunct once per distinct id of a page, and decodes
only the ids of the rows it keeps (each at most once per store).  Every
answer must equal decode-then-compare on the warm rows.
"""

import sys
import threading
from operator import eq, ge, gt, le, lt, ne

import pytest

from repro.compiler import compile_query
from repro.compiler.plans import CostModel, Source
from repro.compiler.options import ExecOptions
from repro.dbpl import Session, parse_expression
from repro.relational import Database, open_database
from repro.relational.stats import TableStats
from repro.relational.vectors import get_numpy
from repro.types import BOOLEAN, INTEGER, REAL, STRING, record, relation_type

PER_PARTITION = 25
OPS = {"=": eq, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}

#: One column per value-page kind and bound shape: str and int (bounded
#: min/max), bool (never bounded), REAL holding ints and floats (a tagged
#: page, no bounds), and a big int outside int64 (tagged, bounded).
KINDS = relation_type(
    "kinds",
    record("kind", s=STRING, i=INTEGER, b=BOOLEAN, r=REAL, big=INTEGER),
    key=("s",),
)
ROWS = [
    (f"s{k:03d}" + "é" * (k % 10 == 0), k % 13, k % 3 == 0, k / 4 if k % 2 else k % 9, 2**70 + k % 5)
    for k in range(100)
]
CONSTANTS = {"s": "s050", "i": 6, "b": True, "r": 4, "big": 2**70 + 2}

PERSON = record("person", name=STRING, age=INTEGER, city=STRING)
PEOPLE = relation_type("people", PERSON, key=("name",))
FRIENDS = relation_type("friends", record("friend", a=STRING, b=STRING))


def kinds_db() -> Database:
    db = Database("kinds")
    db.declare("K", KINDS, ROWS)
    return db


def people_db(n: int = 500) -> Database:
    db = Database("folk")
    # Ages spread over every partition: no page's bounds exclude an age range.
    db.declare("People", PEOPLE, [(f"p{i:04d}", i * 7 % 37, f"c{i % 7}") for i in range(n)])
    db.declare("Friends", FRIENDS, [(f"p{i:04d}", f"p{(i * 7) % n:04d}") for i in range(0, n, 3)])
    return db


@pytest.fixture
def kinds(tmp_path):
    path = str(tmp_path / "kinds")
    kinds_db().spill(path, rows_per_partition=PER_PARTITION)
    return path


@pytest.fixture
def folk(tmp_path):
    db = people_db()
    path = str(tmp_path / "folk")
    db.spill(path, rows_per_partition=PER_PARTITION)
    return db, path


def fresh_store(path: str, name: str):
    return open_database(path).relation(name).cold_store


def decoded_on_read(store) -> int:
    return store.counters.values_decoded


class TestIdSpaceFiltering:
    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("column", sorted(CONSTANTS))
    def test_equals_decode_then_compare(self, kinds, column, op):
        store = fresh_store(kinds, "K")
        pos = KINDS.element.attribute_names.index(column)
        constant = CONSTANTS[column]
        live = {0, pos}
        want = [
            tuple(v if i in live else None for i, v in enumerate(row))
            for row in fresh_store(kinds, "K").scan()
            if OPS[op](row[pos], constant)
        ]
        got = store.scan((0,), ((pos, op, ("const", constant)),))
        assert got == want
        assert {row[0] for row in got} == {row[0] for row in ROWS if OPS[op](row[pos], constant)}

    def test_conjuncts_compose_and_a_surprise_comparison_filters_nothing(self, kinds):
        store = fresh_store(kinds, "K")
        got = store.scan(None, ((1, ">=", ("const", 6)), (3, "<", ("const", 10)), (2, "<>", ("const", False))))
        assert set(got) == {row for row in ROWS if row[1] >= 6 and row[3] < 10 and row[2]}
        # str against int raises TypeError: the conjunct is left to the
        # compiled filters, so the pre-filter keeps every row.
        assert set(store.scan(None, ((0, "<", ("const", 3)),))) == set(ROWS)

    @pytest.mark.parametrize("executor", ["batch", "vector", "sharded"])
    def test_queries_answer_like_the_warm_database(self, kinds, executor):
        if executor == "vector" and get_numpy() is None:
            pytest.skip("vector needs numpy")
        warm = Session(kinds_db())
        for text in (
            "{<k.s> OF EACH k IN K: k.r > 4}",
            "{EACH k IN K: k.b = TRUE AND k.i <= 3}",
            '{<k.r, k.big> OF EACH k IN K: k.s <> "s001" AND k.r >= 3}',
        ):
            cold = Session(open_database(kinds), options=ExecOptions(executor=executor))
            assert cold.query(text) == warm.query(text), text


class TestFullDictionaries:
    def test_are_the_spilled_dictionaries_after_a_partial_read(self, kinds):
        db = kinds_db()
        warm = db.relation("K").dictionaries()
        db.relation("K").encoded()  # the spill writes the values in encoding order
        path = kinds + "-again"
        db.spill(path, rows_per_partition=PER_PARTITION)
        store = fresh_store(path, "K")
        store.scan((0, 3), ((0, ">=", ("const", "s090")),))
        # The last page's 25 names, to decide the predicate; the kept rows' 10 reals.
        assert decoded_on_read(store) == PER_PARTITION + 10
        for got, want in zip(store.load_dictionaries(), warm):
            assert got.values == want.values and got.ids == want.ids
            assert [type(v) for v in got.values] == [type(v) for v in want.values]

    def test_a_whole_page_decode_racing_cited_reads(self, folk):
        """Readers cite ids while another thread decodes the page whole:
        each sees the values it cited, and each value counts once."""
        _db, path = folk
        reference = fresh_store(path, "People")._values(0).all()
        errors: list = []

        def trial() -> None:
            store = fresh_store(path, "People")
            page = store._values(0)

            def reader(offset: int) -> None:
                try:
                    for start in range(offset, page.count, 7):
                        ids = range(start, min(start + 5, page.count))
                        values = page.cite(ids)
                        assert [values[i] for i in ids] == reference[start : ids.stop]
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)

            def whole() -> None:
                try:
                    assert page.all() == reference
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)

            threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
            threads.append(threading.Thread(target=whole))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert store.counters.values_decoded == page.count

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                trial()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]


class TestNoLiveColumn:
    def test_a_projection_with_no_live_column_keeps_the_row_count(self, kinds):
        store = fresh_store(kinds, "K")
        rows = store.scan((), ())
        assert rows == [(None,) * 5] * len(ROWS)
        assert store.counters.cells_decoded == 0 and decoded_on_read(store) == 0
        table = fresh_store(kinds, "K").encoded_scan((), ())
        assert table.n == len(ROWS) and all(len(col.ids) == len(ROWS) for col in table.columns)

    def test_a_pruned_projection_with_no_live_column(self, kinds):
        # The predicate's column is read for the filter; the others stay None.
        store = fresh_store(kinds, "K")
        rows = store.scan((), ((0, ">=", ("const", "s090")),))
        assert [row[1:] for row in rows] == [(None,) * 4] * 10
        assert store.counters.partitions_pruned == 3


class TestLateDecoding:
    def test_a_selective_read_decodes_at_most_one_partition(self, folk):
        db, path = folk
        cold = open_database(path)
        store = cold.relation("People").cold_store
        text = '{<p.city> OF EACH p IN People: p.name >= "p0480"}'
        assert Session(cold).query(text) == Session(db).query(text)
        assert store.counters.partitions_read == 1
        assert decoded_on_read(store) <= 2 * PER_PARTITION  # names and cities of one page
        assert store._dicts is None  # no full Dictionary was built

    def test_a_filtered_read_decodes_only_the_kept_rows(self, folk):
        db, path = folk
        cold = open_database(path)
        store = cold.relation("People").cold_store
        text = "{<p.name> OF EACH p IN People: p.age >= 35}"
        got = Session(cold).query(text)
        assert got == Session(db).query(text)
        assert store.counters.partitions_read == 20  # no page's bounds exclude it
        assert decoded_on_read(store) == len(got)  # ages are int64: read by index
        again = Session(cold).query("{<p.name> OF EACH p IN People: p.age >= 33}")
        assert decoded_on_read(store) == len(again)  # the first read's names are kept
        assert cold.relation("People").is_cold

    def test_a_page_whose_every_id_is_cited_keeps_a_list(self, folk):
        _db, path = folk
        store = fresh_store(path, "People")
        store.scan((0,), ((0, ">=", ("const", "p0480")),))
        assert type(store._values(0).values) is dict  # one partition's names
        store.scan((0,), ())
        page = store._values(0)
        assert type(page.values) is list
        assert page.values == fresh_store(path, "People")._values(0).all()
        assert decoded_on_read(store) == page.count  # each name decoded once

    def test_the_first_in_bounds_cold_insert_decodes_only_the_admitting_partition(self, folk):
        _db, path = folk
        rel = open_database(path).relation("People")
        store = rel.cold_store
        rel.insert([("p0100x", 3, "c1")])
        assert rel.is_cold and store.counters.partitions_read == 1
        assert decoded_on_read(store) <= 2 * PER_PARTITION
        assert store._dicts is None and store._stats is False


class TestColdEqualities:
    """A one-shot equality on a cold relation scans what the manifest's
    bounds admit: an index would read and decode the whole relation
    first, and leave it warm."""

    @pytest.mark.parametrize("executor", ["batch", "vector", "sharded"])
    @pytest.mark.parametrize(
        "text, restriction",
        [
            ("{<p.name> OF EACH p IN People: p.age = 3}", (1, "=", 3)),
            ('{<p.name> OF EACH p IN People: p.name = "p0042"}', (0, "=", "p0042")),
        ],
    )
    def test_reads_only_the_admitting_partitions_and_stays_cold(
        self, folk, executor, text, restriction
    ):
        if executor == "vector" and get_numpy() is None:
            pytest.skip("vector needs numpy")
        db, path = folk
        cold = open_database(path)
        rel = cold.relation("People")
        store = rel.cold_store
        admitted = round(store.prune_fraction((restriction,)) * len(rel) / PER_PARTITION)
        got = Session(cold, options=ExecOptions(executor=executor)).query(text)
        assert got and got == Session(db).query(text)
        assert store.counters.partitions_read == admitted
        assert store.counters.partitions_pruned == len(rel) // PER_PARTITION - admitted
        assert rel.is_cold

    def test_a_join_still_indexes_its_inner_relation(self, folk):
        """Probed once per outer row, the inner index repays the read."""
        _db, path = folk
        cold = open_database(path)
        plan = compile_query(cold, parse_expression(
            '{<p.name, f.b> OF EACH f IN Friends, EACH p IN People: p.name = f.a}'
        ))
        assert [tuple(step.key_positions) for step in plan.branches[0].steps] == [(), (0,)]

    def test_a_declined_equality_key_explains_as_its_conjunct(self, folk):
        """A fresh handle scans the admitting partition instead of indexing
        on ``age``; the equality it keeps as a filter reads as written."""
        _db, path = folk
        cold = open_database(path)
        plan = compile_query(cold, parse_expression("{<p.name> OF EACH p IN People: p.age = 3}"))
        (step,) = plan.branches[0].steps
        assert step.key_positions == () and step.filter_descs == ("p.age = 3",)
        assert "filter[p.age = 3]" in plan.explain()

    def test_a_constant_key_prunes_the_priced_scan(self, folk):
        """The scan a cold step is priced at reads what the bounds admit
        under its constant keys too, not only under its restrictions."""
        db, path = folk
        cold = open_database(path)
        model = CostModel(cold)
        people = Source("relation", name="People")
        key = ((0, "=", "p0042"),)
        assert model.price_step(people, (), key_constants=key).per_invocation == PER_PARTITION
        est = model.price_step(people, (0,), key_constants=key)
        assert not est.use_index and est.per_invocation == PER_PARTITION
        warm = CostModel(db).price_step(people, (), key_constants=key)
        assert warm.per_invocation == len(db.relation("People"))

    @pytest.mark.parametrize("executor", ["batch", "vector", "sharded"])
    @pytest.mark.parametrize(
        "text, bind",
        [
            ("{<p.name> OF EACH p IN People: p.age = 3}", lambda k: (k % 37,)),
            ('{<p.name> OF EACH p IN People: p.name = "p0042"}', lambda k: (f"p{k * 7 % 500:04d}",)),
        ],
    )
    def test_a_repeated_equality_loads_the_relation_once_its_scans_read_as_much(
        self, folk, executor, text, bind
    ):
        """A prepared equality run over and over on one handle scans until
        its scans have read as many id cells as one load, then the
        relation loads and an index serves the rest: what it reads is
        bounded however often it runs."""
        if executor == "vector" and get_numpy() is None:
            pytest.skip("vector needs numpy")
        db, path = folk
        cold = open_database(path)
        rel = cold.relation("People")
        store = rel.cold_store
        parts = len(rel) // PER_PARTITION
        options = ExecOptions(executor=executor)
        handle = Session(cold, options=options).prepare(text)
        warm = Session(db).prepare(text)
        for k in range(200):
            assert handle.execute(*bind(k)) == warm.execute(*bind(k))
        # Scans up to one load's worth of id cells (the last may overrun
        # it by one whole read), then the load: three loads at most.
        load = len(rel) * store.arity
        assert store.counters.cells_decoded <= 3 * load
        assert store.counters.partitions_read <= 4 * parts  # not 200 reads' worth
        assert "EACH p IN People via index" in handle.explain()

    def test_a_standing_join_re_plans_once_its_inner_relation_loads(self, folk):
        """A subscription's differential joins each inserted row to the
        cold relation by scanning it; once the scans have spent the
        relation's budget it loads, and the differential re-plans to an
        index probe."""
        db, path = folk
        cold = open_database(path)
        session = Session(cold)
        store = cold.relation("People").cold_store
        text = '{<f.b, p.city> OF EACH f IN Friends, EACH p IN People: p.name = f.a AND f.b = "p0007"}'
        sub = session.subscribe(text)
        for i in range(60):
            session.insert("Friends", [(f"p{i * 13 % 500:04d}", "p0007")])
        assert sub.rows() == session.query(text)
        assert store.counters.cells_decoded <= 3 * len(cold.relation("People")) * store.arity
        plan = sub.family.plans["Friends"].plan
        assert "EACH p IN People via index" in plan.explain()


class TestPlanningFromTheSummary:
    QUERY = "{<p.name, f.b> OF EACH p IN People, EACH f IN Friends: p.name = f.a AND p.age > 30}"
    RANGES = '{<p.name, f.b> OF EACH p IN People, EACH f IN Friends: p.age > 30 AND f.b >= "p0400"}'

    @staticmethod
    def shape(plan):
        return [
            ([(s.source.describe(), tuple(s.key_positions)) for s in b.steps], b.est_out)
            for b in plan.branches
        ]

    def test_a_fresh_handle_plans_like_the_warm_database(self, folk):
        """With no index step to price a load for, a fresh handle planned
        from the summary plans a read as the warm database does."""
        db, path = folk
        cold = open_database(path)
        for text in (self.RANGES, '{<p.name> OF EACH p IN People: p.age > 30}'):
            cold_plan = compile_query(cold, parse_expression(text))
            warm_plan = compile_query(db, parse_expression(text))
            assert self.shape(cold_plan) == self.shape(warm_plan)
            assert all(not s.key_positions for b in cold_plan.branches for s in b.steps)
        assert cold.relation("People").is_cold and cold.relation("Friends").is_cold

    def test_planning_from_the_summary_equals_planning_from_full_statistics(self, folk):
        """Both handles cold, so both price an index build's load: the
        summary in ``stats.json`` plans the join as full statistics do."""
        db, path = folk
        summary, full = open_database(path), open_database(path)
        for name in ("People", "Friends"):
            rel = full.relation(name)
            arity = len(rel.element_type.attribute_names)
            rel._stats = TableStats.from_rows(db.relation(name).rows(), arity)
        summary_plan = compile_query(summary, parse_expression(self.QUERY))
        full_plan = compile_query(full, parse_expression(self.QUERY))
        assert self.shape(summary_plan) == self.shape(full_plan)
        for name in ("People", "Friends"):
            rel = summary.relation(name)
            assert rel.is_cold and full.relation(name).is_cold
            for column in rel.stats().columns:
                assert column.histogram_builds == 0 and column.counts is None
        people = summary.relation("People").stats()
        assert people.range_selectivity(1, ">", 30) == db.relation("People").stats().range_selectivity(1, ">", 30)

    def test_stats_after_cold_inserts_equal_a_recount(self, folk):
        db, path = folk
        rel = open_database(path).relation("People")
        summary = rel.stats()  # planned from the summary: no multiset yet
        assert all(column.counts is None for column in summary.columns)
        fresh = [(f"z{i}", i % 50, f"c{i % 9}") for i in range(40)]
        rel.insert(fresh)
        gone = [fresh[0], ("p0003", 21, "c3")]
        rel.delete(gone)
        live = (db.relation("People").rows() | set(fresh)) - set(gone)
        exact = TableStats.from_rows(live, 3)
        got = rel.stats()
        assert got.row_count == exact.row_count
        assert [c.multiset() for c in got.columns] == [c.counts for c in exact.columns]
        assert [c.max_count for c in got.columns] == [c.max_count for c in exact.columns]

    def test_summary_statistics_stay_exact_under_a_threaded_writer(self, folk):
        """Readers price ranges and read ``stats()`` while a writer's
        inserts load the summary's multisets and maintain them: the final
        statistics equal a recount."""
        db, path = folk
        errors: list = []

        def trial(k: int) -> None:
            rel = open_database(path).relation("People")
            rel.stats()
            fresh = [(f"z{k}-{i:03d}", i % 90, f"c{i % 5}") for i in range(30)]
            done = threading.Event()

            def writer():
                try:
                    for row in fresh:
                        rel.insert([row])
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)
                finally:
                    done.set()

            def reader():
                try:
                    while not done.is_set():
                        stats = rel.stats()
                        stats.range_selectivity(1, ">=", 40)
                        stats.eq_selectivity(2)
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(2)]
            threads.append(threading.Thread(target=writer))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            exact = TableStats.from_rows([*db.relation("People").rows(), *fresh], 3)
            got = rel.stats()
            assert got.row_count == exact.row_count, k
            assert [c.multiset() for c in got.columns] == [c.counts for c in exact.columns], k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in range(40):
                trial(k)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
