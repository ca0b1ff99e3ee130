"""Standing queries: Session.subscribe and incremental view maintenance.

The invariant under test everywhere: ``sub.rows()`` equals a fresh
``query()`` of the same source after every mutation batch — counting
maintenance for set formers, fixpoint resumption for constructed
ranges, full recomputation where neither applies.
"""

import random

import pytest
from helpers import (
    assert_subscription_tracks,
    clone_database,
    random_prop_database,
    random_prop_mutations,
    random_prop_query,
    transitive_closure,
)

from repro import ExecOptions
from repro.dbpl import Session
from repro.dbpl.subscriptions import SubscriptionRegistry
from repro.errors import SchemaError

SCHEMA = """
TYPE erec = RECORD name, dept: STRING; sal: INTEGER END;
     erel = RELATION name OF erec;
     prec = RECORD parent, child: STRING END;
     prel = RELATION parent, child OF prec;
     arec = RECORD anc, desc: STRING END;
     arel = RELATION anc, desc OF arec;
VAR Emp: erel; Par: prel; Block: prel;
CONSTRUCTOR tc FOR Rel: prel (): arel;
BEGIN EACH p IN Rel: TRUE,
      <p.parent, a.desc> OF EACH p IN Rel,
           EACH a IN Rel{tc()}: p.child = a.anc
END tc;
CONSTRUCTOR quant FOR Rel: prel (): prel;
BEGIN EACH p IN Rel: TRUE,
      <p.parent, p.child> OF EACH p IN Rel:
           SOME q IN Rel{quant()} (q.parent = p.child)
END quant;
"""

EMPS = [("a", "x", 10), ("b", "x", 20), ("c", "y", 30)]
PARS = [("a", "b"), ("b", "c")]

FILTER = "{EACH e IN Emp: e.sal > 15}"
JOIN = "{<e.name, p.child> OF EACH e IN Emp, EACH p IN Par: e.name = p.parent}"
SELF_JOIN = (
    "{<p.parent, q.child> OF EACH p IN Par, EACH q IN Par: p.child = q.parent}"
)
TC = "Par{tc()}"


def make_session() -> Session:
    s = Session()
    s.execute(SCHEMA)
    s.insert("Emp", EMPS)
    s.insert("Par", PARS)
    return s


def assert_tracks(session: Session, sub, source: str) -> None:
    assert sub.rows() == session.query(source), source


class TestCountingMaintenance:
    def test_filter_tracks_inserts_deletes_and_assign(self):
        s = make_session()
        sub = s.subscribe(FILTER)
        assert_tracks(s, sub, FILTER)
        s.insert("Emp", [("d", "y", 40), ("e", "z", 5)])
        assert_tracks(s, sub, FILTER)
        s.db.relation("Emp").delete([("c", "y", 30)])
        assert_tracks(s, sub, FILTER)
        s.assign("Emp", [("a", "x", 50), ("b", "x", 1)])
        assert_tracks(s, sub, FILTER)
        assert sub.delta_batches == 3
        assert sub.recomputes == 0

    def test_join_tracks_both_sides(self):
        s = make_session()
        sub = s.subscribe(JOIN)
        s.insert("Par", [("a", "c"), ("q", "r")])
        assert_tracks(s, sub, JOIN)
        s.insert("Emp", [("q", "w", 7)])
        assert_tracks(s, sub, JOIN)
        s.db.relation("Par").delete([("a", "b")])
        assert_tracks(s, sub, JOIN)

    def test_self_join_counts_derivations(self):
        # (a,c) via a->b->c survives deleting one of two supporting
        # paths only when its derivation count is tracked, not a flag.
        s = make_session()
        s.insert("Par", [("a", "d"), ("d", "c")])
        sub = s.subscribe(SELF_JOIN)
        assert ("a", "c") in sub.rows()
        s.db.relation("Par").delete([("a", "b")])
        assert_tracks(s, sub, SELF_JOIN)
        assert ("a", "c") in sub.rows()  # still derivable via a->d->c
        s.db.relation("Par").delete([("d", "c")])
        assert_tracks(s, sub, SELF_JOIN)
        assert ("a", "c") not in sub.rows()

    def test_union_branches_share_counts(self):
        source = (
            "{<p.parent> OF EACH p IN Par: TRUE,"
            " <b.parent> OF EACH b IN Block: TRUE}"
        )
        s = make_session()
        s.insert("Block", [("a", "z")])
        sub = s.subscribe(source)
        assert_tracks(s, sub, source)
        # ("a",) is derived by both arms; deleting one keeps the row.
        s.db.relation("Par").delete([("a", "b")])
        assert_tracks(s, sub, source)
        assert ("a",) in sub.rows()
        s.db.relation("Block").delete([("a", "z")])
        assert_tracks(s, sub, source)
        assert ("a",) not in sub.rows()

    def test_no_net_change_emits_no_event(self):
        s = make_session()
        events = []
        sub = s.subscribe(FILTER, on_change=events.append)
        s.insert("Emp", [("f", "z", 3)])  # below the filter threshold
        assert events == []
        assert sub.delta_batches == 1
        s.db.relation("Emp").delete([("nobody", "x", 1)])  # absent row
        assert events == []
        assert sub.delta_batches == 1  # no-op mutations never reach the sink

    def test_events_replay_to_current_rows(self):
        s = make_session()
        sub = s.subscribe(JOIN)
        state = set(sub.rows())
        s.insert("Par", [("a", "c")])
        s.assign("Emp", [("a", "x", 50), ("q", "w", 7)])
        s.db.relation("Par").delete([("b", "c")])
        for event in sub.changes():
            assert event.deleted <= state
            assert not (event.inserted & state)
            state = (state - event.deleted) | event.inserted
        assert state == sub.rows()

    def test_changes_drains_once(self):
        s = make_session()
        sub = s.subscribe(FILTER)
        s.insert("Emp", [("d", "y", 40)])
        assert len(list(sub.changes())) == 1
        assert list(sub.changes()) == []
        s.insert("Emp", [("f", "q", 99)])
        assert len(list(sub.changes())) == 1

    def test_close_stops_maintenance(self):
        s = make_session()
        sub = s.subscribe(FILTER)
        sub.close()
        assert not sub.active
        before = sub.rows()
        s.insert("Emp", [("d", "y", 40)])
        assert sub.rows() == before
        registry = s.db.subscriptions
        assert sub not in registry.subscriptions

    def test_relation_in_predicate_recomputes_exactly(self):
        # Block appears inside a (negated) membership predicate, not as
        # a binding range — its batches cannot be differentiated, so
        # they trigger full recomputation; answers stay exact.
        source = "{EACH p IN Par: NOT (p IN Block)}"
        s = make_session()
        sub = s.subscribe(source)
        assert_tracks(s, sub, source)
        s.insert("Block", [("a", "b")])
        assert_tracks(s, sub, source)
        assert sub.recomputes == 1
        s.insert("Par", [("x", "y")])  # Par is still delta-maintained
        assert_tracks(s, sub, source)
        assert sub.recomputes == 1
        assert sub.delta_batches == 1

    def test_large_batch_triggers_replan(self):
        s = make_session()
        sub = s.subscribe(JOIN)
        s.insert("Par", [("a", "b0")])  # prices the handler for tiny deltas
        big = [(f"n{i}", f"n{i + 1}") for i in range(64)]
        s.insert("Par", big)
        assert_tracks(s, sub, JOIN)
        assert sub.replans >= 1

    def test_bare_range_and_selected_range_subscribe(self):
        s = make_session()
        sub = s.subscribe("Par")
        s.insert("Par", [("x", "y")])
        assert_tracks(s, sub, "Par")
        s.execute(
            "SELECTOR under (P: STRING) FOR Rel: prel;\n"
            "BEGIN EACH r IN Rel: r.parent = P END under;"
        )
        selected = 'Par[under("a")]'
        ssub = s.subscribe(selected)
        s.insert("Par", [("a", "q"), ("z", "q")])
        assert_tracks(s, ssub, selected)

    def test_multiple_subscriptions_one_commit(self):
        s = make_session()
        subs = [s.subscribe(FILTER), s.subscribe(JOIN), s.subscribe(SELF_JOIN)]
        s.insert("Par", [("c", "d")])
        s.assign("Emp", [("a", "x", 90)])
        for sub, source in zip(subs, (FILTER, JOIN, SELF_JOIN)):
            assert_tracks(s, sub, source)

    def test_snapshot_option_is_rejected(self):
        s = make_session()
        with pytest.raises(ValueError, match="snapshot"):
            s.subscribe(FILTER, options=ExecOptions(snapshot=s.snapshot()))

    def test_sessions_share_one_registry_per_database(self):
        s = make_session()
        sub = s.subscribe(FILTER)
        other = Session(db=s.db)
        other_sub = other.subscribe("{EACH p IN Par: TRUE}")
        assert s.db.subscriptions is other.db.subscriptions
        s.insert("Emp", [("d", "y", 40)])
        s.insert("Par", [("x", "y")])
        assert_tracks(s, sub, FILTER)
        assert other_sub.rows() == other.query("{EACH p IN Par: TRUE}")

    def test_attach_sink_rejects_second_registry(self):
        s = make_session()
        s.subscribe(FILTER)
        with pytest.raises(SchemaError, match="already has a subscription"):
            s.db.attach_sink(SubscriptionRegistry(s.db))


class TestFixpointSubscription:
    def test_insert_resumes_without_recompute(self):
        s = make_session()
        sub = s.subscribe(TC)
        assert_tracks(s, sub, TC)
        s.insert("Par", [("c", "d"), ("x", "a")])
        assert_tracks(s, sub, TC)
        s.insert("Par", [("d", "e")])
        assert_tracks(s, sub, TC)
        assert sub.recomputes == 0
        assert sub.delta_batches == 2

    def test_matches_independent_closure_oracle(self):
        s = make_session()
        sub = s.subscribe(TC)
        edges = list(PARS)
        for batch in ([("c", "d")], [("d", "a")], [("q", "r"), ("r", "q")]):
            s.insert("Par", batch)
            edges.extend(batch)
            assert sub.rows() == transitive_closure(edges)

    def test_delete_recomputes(self):
        s = make_session()
        sub = s.subscribe(TC)
        s.insert("Par", [("c", "d")])
        s.db.relation("Par").delete([("b", "c")])
        assert_tracks(s, sub, TC)
        assert sub.recomputes == 1
        assert ("a", "c") not in sub.rows()

    def test_unrelated_relation_is_not_watched(self):
        s = make_session()
        sub = s.subscribe(TC)
        assert sub.watched == ("Par",)
        s.insert("Emp", [("d", "y", 40)])
        assert sub.delta_batches == 0
        assert sub.recomputes == 0

    def test_on_change_sees_only_net_new_rows(self):
        s = make_session()
        events = []
        sub = s.subscribe(TC, on_change=events.append)
        s.insert("Par", [("c", "d")])
        (event,) = events
        assert event.deleted == frozenset()
        assert event.inserted == {("c", "d"), ("b", "d"), ("a", "d")}
        assert event.inserted <= sub.rows()

    def test_quantified_recursion_is_maintained(self):
        # The recursive occurrence sits under SOME: the subscription
        # used to be refused, its program fires that branch whole.
        source = "Par{quant()}"
        s = make_session()
        sub = s.subscribe(source)
        for write in (
            lambda: s.insert("Par", [("c", "d"), ("x", "a")]),
            lambda: s.db.relation("Par").delete([("b", "c")]),
            lambda: s.assign("Par", [("a", "b"), ("q", "r")]),
        ):
            write()
            assert sub.rows() == s.query(source, mode="interpreted")
            assert_tracks(s, sub, source)
        assert (sub.delta_batches, sub.recomputes) == (1, 2)

    @pytest.mark.parametrize("executor", ["batch", "vector", "tuple"])
    def test_set_former_spelling_is_the_same_standing_query(self, executor):
        # The statement, not the syntax, picks the maintenance: the set
        # former used to recount the whole closure on every commit.
        s = make_session()
        spellings = (TC, "{EACH t IN Par{tc()}: TRUE}")
        events = {source: [] for source in spellings}
        subs = {
            source: s.subscribe(
                source,
                on_change=events[source].append,
                options=ExecOptions(executor=executor),
            )
            for source in spellings
        }
        for write in (
            lambda: s.insert("Par", [("c", "d"), ("x", "a")]),
            lambda: s.db.relation("Par").delete([("b", "c")]),
            lambda: s.assign("Par", [("a", "b"), ("q", "r")]),
            lambda: s.insert("Emp", [("d", "y", 40)]),
        ):
            write()
            bare, set_former = subs.values()
            assert bare.rows() == set_former.rows() == s.query(TC, mode="interpreted")
        assert events[spellings[0]] == events[spellings[1]]
        assert len(events[TC]) == 3
        bare, set_former = subs.values()
        assert bare.watched == set_former.watched == ("Par",)
        assert (bare.delta_batches, bare.recomputes) == (1, 2)
        assert (set_former.delta_batches, set_former.recomputes) == (1, 2)


class TestSubscriptionProperties:
    """The standing-query invariant over randomized queries/mutations."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_subscriptions_track_reference(self, seed):
        rng = random.Random(7_000 + seed)
        db = random_prop_database(rng)
        query = random_prop_query(rng)
        initial = clone_database(db)
        mutations = random_prop_mutations(rng, db)
        assert_subscription_tracks(
            lambda: clone_database(initial), query, mutations
        )
