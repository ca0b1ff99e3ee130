"""Standing queries: Session.subscribe and incremental view maintenance.

The invariant under test everywhere: ``sub.rows()`` equals a fresh
``query()`` of the same source after every mutation batch — counting
maintenance for set formers, fixpoint resumption for constructed
ranges, full recomputation where neither applies.
"""

import pathlib
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
from repro.dbpl import Session, subscriptions
from repro.dbpl.subscriptions import SubscriptionRegistry
from repro.errors import SchemaError

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

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
        s.insert("Par", [("a", "b0")])  # prices the plan for tiny deltas
        big = [(f"n{i}", f"n{i + 1}") for i in range(64)]
        s.insert("Par", big)
        assert_tracks(s, sub, JOIN)
        assert sub.family.replans >= 1

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


class TestCallbackIsolation:
    """A raising ``on_change`` never leaves another watcher stale."""

    def test_raising_callback_leaves_later_watchers_current(self):
        low, high = "{EACH e IN Emp: e.sal > 10}", "{EACH e IN Emp: e.sal > 20}"
        s = make_session()

        def boom(event):
            raise RuntimeError("boom")

        first = s.subscribe(low, on_change=boom)
        second = s.subscribe(high)
        with pytest.raises(RuntimeError, match="boom"):
            s.insert("Emp", [("x", "z", 50)])
        assert ("x", "z", 50) in s.query(high)  # the commit stands
        assert_tracks(s, first, low)
        assert_tracks(s, second, high)
        assert [event.inserted for event in second.changes()] == [{("x", "z", 50)}]

    def test_raising_member_inside_a_family(self):
        sources = [f"{{EACH e IN Emp: e.sal > {i}}}" for i in range(50)]
        s = make_session()
        called = []

        def watcher(i):
            def on_change(event):
                called.append(i)
                if i in (10, 20):
                    raise RuntimeError(f"member {i}")
            return on_change

        subs = [s.subscribe(src, on_change=watcher(i)) for i, src in enumerate(sources)]
        assert len({sub.family for sub in subs}) == 1
        with pytest.raises(RuntimeError, match="member 10") as raised:
            s.insert("Emp", [("x", "z", 45)])
        assert raised.value.__notes__ == ["1 more on_change callback(s) raised"]
        assert sorted(called) == list(range(45))  # every callback ran once
        for sub, source in zip(subs, sources):
            assert_tracks(s, sub, source)
        with pytest.raises(RuntimeError, match="member 10"):
            s.db.relation("Emp").delete([("x", "z", 45), ("b", "x", 20)])
        assert sorted(called) == sorted(list(range(45)) * 2)
        called.clear()
        s.insert("Emp", [("y", "z", 5)])
        assert sorted(called) == list(range(5))
        for sub, source in zip(subs, sources):
            assert_tracks(s, sub, source)


class TestFamilyIsolation:
    """A family whose maintenance raises leaves every other family
    current, and recounts whole once its query evaluates again."""

    BAD = "{EACH r IN R: 10 DIV r.b > 1}"
    GOOD = "{EACH r IN R: r.a > 0}"

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_raising_family_leaves_the_others_current(self, bad_first):
        s = Session()
        s.execute(
            "TYPE rrec = RECORD a, b: INTEGER END; rrel = RELATION ... OF rrec; VAR R: rrel;"
        )
        s.insert("R", [(1, 1), (2, 2)])
        order = (self.BAD, self.GOOD) if bad_first else (self.GOOD, self.BAD)
        subs = {source: s.subscribe(source) for source in order}
        good, bad = subs[self.GOOD], subs[self.BAD]
        with pytest.raises(ZeroDivisionError):
            s.insert("R", [(3, 0)])
        assert (3, 0) in s.relation("R").raw()  # the commit stands
        assert_tracks(s, good, self.GOOD)
        assert [(e.inserted, e.deleted) for e in good.changes()] == [({(3, 0)}, set())]
        s.relation("R").delete([(3, 0)])
        assert_tracks(s, bad, self.BAD)
        assert_tracks(s, good, self.GOOD)
        assert [(e.inserted, e.deleted) for e in good.changes()] == [(set(), {(3, 0)})]
        s.insert("R", [(4, 4)])
        assert_tracks(s, bad, self.BAD)
        assert bad.delta_batches and bad.recomputes == 1


class TestFamilies:
    """Clock-free guards: maintenance costs one plan run per watching
    family, not one per subscriber."""

    @pytest.fixture
    def standing(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        from workloads import EMP_JOIN, REACH, StandingWrites

        compiles = []
        real_compile = subscriptions.compile_statement
        monkeypatch.setattr(
            subscriptions, "compile_statement",
            lambda *a, **kw: compiles.append(a) or real_compile(*a, **kw),
        )
        wl = StandingWrites(0, "quick")
        s = wl.loaded_session()
        subs = [s.subscribe(source) for source in wl.sources]
        assert len(compiles) == len(s.db.subscriptions.families) == 4
        runs = []
        real_run = subscriptions._execute_bag
        monkeypatch.setattr(
            subscriptions, "_execute_bag",
            lambda plan, ctx, executor: runs.append(plan) or real_run(plan, ctx, executor),
        )
        prefix = EMP_JOIN.partition("%")[0]
        join = next(sub for src, sub in zip(wl.sources, subs) if src.startswith(prefix))
        reach = subs[wl.sources.index(REACH)]
        return wl, s, subs, runs, join.family, reach.family

    def test_one_plan_run_per_watching_family(self, standing):
        wl, s, subs, runs, _, _ = standing
        rows = [(f"y{i}", wl.depts[i % len(wl.depts)], 20 * i) for i in range(8)]
        s.insert("Emp", rows)
        assert len(runs) == 3  # the sal, dept and join families; 19 subscribers
        runs.clear()
        s.db.relation("Emp").delete(rows[:5])
        assert len(runs) == 3
        for source, sub in zip(wl.sources, subs):
            assert sub.rows() == s.query(source), source

    def test_par_commit_touches_only_join_and_reach_families(self, standing):
        wl, s, subs, runs, join, reach = standing
        for write in (
            lambda: s.insert("Par", [(wl.depts[0], "t_new"), ("t_new", "o0")]),
            lambda: s.db.relation("Par").delete([(wl.depts[0], "t_new")]),
        ):
            before = [(sub.delta_batches, sub.recomputes) for sub in subs]
            runs.clear()
            write()
            touched = {
                sub.family
                for sub, counters in zip(subs, before)
                if (sub.delta_batches, sub.recomputes) != counters
            }
            assert touched == {join, reach}
            assert len(runs) == 1  # the join family's; reach advances its held value
            for source, sub in zip(wl.sources, subs):
                assert sub.rows() == s.query(source), source

    def test_closing_last_member_drops_family(self, standing):
        wl, s, subs, runs, join, _ = standing
        registry = s.db.subscriptions
        members = [sub for sub in subs if sub.family is join]
        for sub in members[:-1]:
            sub.close()
            assert registry.families[join.key] is join
        members[-1].close()
        assert join.key not in registry.families
        assert all(join not in families for families in registry._by_relation.values())
        runs.clear()
        s.insert("Par", [(wl.depts[0], "t_new")])
        assert runs == []  # nobody counts over Par any more
        for source, sub in zip(wl.sources, subs):
            if sub.active:
                assert sub.rows() == s.query(source), source

    def test_equality_slot_sees_members_joining_later(self):
        # The second commit probes the parameter relation's hash index,
        # which must cover the member that joined after the first one.
        source = '{EACH e IN Emp: e.dept = "%s"}'
        s = make_session()
        subs = {dept: s.subscribe(source % dept) for dept in ("x", "y", "w", "v")}
        s.insert("Emp", [("d", "x", 1), ("e", "y", 2)])
        subs["z"] = s.subscribe(source % "z")
        s.insert("Emp", [("f", "z", 3), ("g", "x", 4)])
        subs.pop("y").close()
        s.insert("Emp", [("h", "z", 5), ("i", "y", 6)])
        for dept, sub in subs.items():
            assert_tracks(s, sub, source % dept)
        (family,) = {sub.family for sub in subs.values()}
        (plan,) = (differential.plan for differential in family.plans.values())
        assert "HASHJOIN @new:__params" in plan.explain()

    def test_identity_members_share_the_held_value(self):
        s = make_session()
        early = s.subscribe(TC)
        s.insert("Par", [("c", "d")])
        late = s.subscribe(TC)
        assert late.family is early.family
        s.insert("Par", [("d", "e")])
        assert early.rows() == late.rows() == s.query(TC)
        gained = {("d", "e"), ("c", "e"), ("b", "e"), ("a", "e")}
        assert [event.inserted for event in early.changes()] == [
            {("c", "d"), ("b", "d"), ("a", "d")}, gained
        ]
        (event,) = late.changes()
        assert event.inserted == gained
        early.close()
        s.db.relation("Par").delete([("a", "b")])
        assert_tracks(s, late, TC)
        assert late.recomputes == 1


class TestSubscriptionProperties:
    """The standing-query invariant over randomized queries/mutations,
    for the query's whole family (>= 50 same-shape members, subscribed
    and closed between batches)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_subscriptions_track_reference(self, seed):
        rng = random.Random(7_000 + seed)
        db = random_prop_database(rng)
        query = random_prop_query(rng)
        initial = clone_database(db)
        mutations = random_prop_mutations(rng, db)
        assert_subscription_tracks(
            lambda: clone_database(initial), query, mutations, seed=seed
        )
