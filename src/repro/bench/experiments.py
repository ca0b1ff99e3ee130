"""The thirteen reproduction experiments (see DESIGN.md section 4).

Each ``eNN_*`` function runs one experiment sweep and returns a
:class:`~repro.bench.harness.Table`.  The benchmark files under
``benchmarks/`` wrap representative points with pytest-benchmark and
regenerate these tables; ``python -m repro.bench.run_all`` renders all of
them for EXPERIMENTS.md.

The paper reports no absolute numbers, so each table is designed to make
a *shape* visible — who wins, by what factor, where crossovers fall —
and the accompanying assertion-style checks (result equality across
engines) run inside the sweeps themselves.
"""

from __future__ import annotations

from .. import paper
from ..calculus import Evaluator, dsl as d
from ..compiler import (
    ExecOptions,
    ExecutionContext,
    LogicalAccessPath,
    PhysicalAccessPath,
    PlanStats,
    ShardConfig,
    SpecializedStats,
    bound_query,
    build_interconnectivity_graph,
    compile_fixpoint,
    compile_query,
    construct_compiled,
    detect_linear_tc,
    inline_nonrecursive,
    run_query,
)
from ..constructors import (
    apply_constructor,
    construct_bounded,
    define_constructor,
    instantiate,
)
from ..datalog import DatalogEngine, parse_atom, parse_program, system_to_program
from ..dbpl import Session
from ..errors import ConvergenceError, DBPLError, IntegrityError, PositivityError
from ..prolog import DepthLimitExceeded, KnowledgeBase, SLDEngine, TabledEngine
from ..relational import Database
from ..selectors import selected
from ..workloads import (
    binary_tree,
    bom_database,
    chain,
    cycle,
    generate_bom,
    generate_scene,
    grid,
    random_digraph,
    sg_database,
    generate_family,
)
from .harness import Table, measure, ratio

TC_PROGRAM = parse_program(
    """
    ahead(X, Y) :- infront(X, Y).
    ahead(X, Y) :- infront(X, Z), ahead(Z, Y).
    """
)


def _tc_db(edges) -> Database:
    return paper.cad_database(infront=edges, mutual=False)


# ---------------------------------------------------------------------------
# E1 — selectors (Fig. 1)
# ---------------------------------------------------------------------------


def e01_selectors(sizes=(2, 8, 16)) -> Table:
    table = Table(
        "E1  Selector semantics and checked assignment (Fig. 1)",
        ["rooms", "|Infront|", "read sel (s)", "checked ok (s)", "checked reject (s)",
         "equiv"],
    )
    for rooms in sizes:
        scene = generate_scene(rooms=rooms, row_length=6)
        db = scene.database(mutual=False)
        target = scene.infront[0][0]
        view = selected(db, "Infront", "hidden_by", target)
        read_rows, t_read = measure(view.value, repeat=3)

        # equivalence with the expansion {EACH r IN Infront: r.front = obj}
        q = d.query(
            d.branch(d.each("r", "Infront"), pred=d.eq(d.a("r", "front"), target))
        )
        equiv = Evaluator(db).eval_query(q) == read_rows

        refint = selected(db, "Infront", "refint")
        good = list(db["Infront"].rows())
        _, t_ok = measure(lambda: refint.assign(good))
        bad = good + [("ghost", good[0][0])]

        def rejected():
            try:
                refint.assign(bad)
            except IntegrityError:
                return True
            return False

        ok, t_reject = measure(rejected)
        table.add(rooms, len(scene.infront), t_read, t_ok, t_reject, equiv and ok)
    table.note("equiv: Rel[sel] equals its conditional-assignment expansion")
    return table


# ---------------------------------------------------------------------------
# E2 — constructor basics (Fig. 2, ahead_2)
# ---------------------------------------------------------------------------


def e02_constructor_basics(sizes=(2, 8, 32)) -> Table:
    table = Table(
        "E2  ahead_2 constructor vs explicit union expression (Fig. 2)",
        ["rooms", "|Infront|", "|ahead2|", "constructor (s)", "expression (s)", "equal"],
    )
    for rooms in sizes:
        db = generate_scene(rooms=rooms, row_length=6).database(mutual=False)
        res, t_con = measure(lambda: apply_constructor(db, "Infront", "ahead2"), repeat=3)
        q = d.query(
            d.branch(d.each("r", "Infront")),
            d.branch(
                d.each("f", "Infront"), d.each("b", "Infront"),
                pred=d.eq(d.a("f", "back"), d.a("b", "front")),
                targets=[d.a("f", "front"), d.a("b", "back")],
            ),
        )
        rows, t_expr = measure(lambda: Evaluator(db).eval_query(q), repeat=3)
        table.add(rooms, len(db["Infront"]), len(res.rows), t_con, t_expr,
                  res.rows == rows)
    return table


# ---------------------------------------------------------------------------
# E3 — LFP convergence: ahead = lim ahead_n (section 3.1)
# ---------------------------------------------------------------------------


def e03_lfp_convergence() -> Table:
    table = Table(
        "E3  Infront{ahead} = lim ahead_n: convergence of the bounded sequence",
        ["workload", "edges", "|closure|", "iters naive", "iters semi", "loop=engine"],
    )
    workloads = [
        ("chain(32)", chain(32)),
        ("chain(64)", chain(64)),
        ("tree(d=7)", binary_tree(7)),
        ("grid(6x6)", grid(6, 6)),
        ("cycle(48)", cycle(48)),
    ]
    for name, edges in workloads:
        db = _tc_db(edges)
        naive = apply_constructor(db, "Infront", "ahead", mode="naive")
        semi = apply_constructor(db, "Infront", "ahead", mode="seminaive")
        # the paper's REPEAT/UNTIL program
        base = db["Infront"].rows()
        ahead: set = set()
        while True:
            old = set(ahead)
            ahead = set(base) | {(f, t) for (f, b) in base for (h, t) in old if b == h}
            if ahead == old:
                break
        table.add(name, len(edges), len(naive.rows), naive.stats.iterations,
                  semi.stats.iterations, ahead == set(naive.rows) == set(semi.rows))
    table.note("bounded prefixes are monotone; limit reached after finitely many steps")
    return table


# ---------------------------------------------------------------------------
# E4 — mutual recursion (section 3.1)
# ---------------------------------------------------------------------------


def e04_mutual_recursion(sizes=(2, 5, 8)) -> Table:
    table = Table(
        "E4  Mutually recursive ahead/above: simultaneous fixpoint",
        ["rooms", "|Infront|", "|Ontop|", "|ahead|", "|above|",
         "naive (s)", "semi (s)", "agree"],
    )
    for rooms in sizes:
        scene = generate_scene(rooms=rooms, row_length=5, stack_height=3)
        db = scene.database(mutual=True)
        res_n, t_n = measure(
            lambda: apply_constructor(db, "Infront", "ahead", "Ontop", mode="naive")
        )
        res_s, t_s = measure(
            lambda: apply_constructor(db, "Infront", "ahead", "Ontop", mode="seminaive")
        )
        above = apply_constructor(db, "Ontop", "above", "Infront")
        table.add(rooms, len(scene.infront), len(scene.ontop), len(res_n.rows),
                  len(above.rows), t_n, t_s, res_n.rows == res_s.rows)
    return table


# ---------------------------------------------------------------------------
# E5 — formal semantics (section 3.2)
# ---------------------------------------------------------------------------


def e05_semantics() -> Table:
    table = Table(
        "E5  The bounded sequence apply^k is monotone and reaches the LFP",
        ["k", "|apply^k| chain(12)", "|apply^k| grid(4x4)", "monotone so far"],
    )
    db1 = _tc_db(chain(12))
    db2 = _tc_db(grid(4, 4))
    node = d.constructed("Infront", "ahead")
    prev1 = prev2 = -1
    monotone = True
    for k in range(0, 14, 2):
        n1 = len(construct_bounded(db1, node, k).rows)
        n2 = len(construct_bounded(db2, node, k).rows)
        monotone = monotone and n1 >= prev1 and n2 >= prev2
        prev1, prev2 = n1, n2
        table.add(k, n1, n2, monotone)
    full = len(apply_constructor(db1, "Infront", "ahead").rows)
    table.note(f"limit on chain(12): {full} tuples; fixpoint f(lfp)=lfp verified in tests")
    return table


# ---------------------------------------------------------------------------
# E6 — positivity and convergence (section 3.3)
# ---------------------------------------------------------------------------


def e06_positivity() -> Table:
    table = Table(
        "E6  Positivity: compiler verdicts and iteration behaviour",
        ["constructor", "positivity check", "override iteration", "result"],
    )
    # ahead: accepted
    db = paper.cad_database(infront=chain(8), mutual=False)
    table.add("ahead", "accepted", "converges",
              f"{len(apply_constructor(db, 'Infront', 'ahead').rows)} tuples")
    # nonsense: rejected; oscillates under override
    db2 = Database()
    db2.declare("Base", paper.CARDREL, [(i,) for i in range(3)])
    try:
        paper.define_nonsense(db2, check_positivity=True)
        verdict = "accepted (BUG)"
    except PositivityError:
        verdict = "rejected"
    paper.define_nonsense(db2, check_positivity=False)
    try:
        apply_constructor(db2, "Base", "nonsense", allow_nonmonotonic=True)
        behaviour, outcome = "converges (BUG)", "?"
    except ConvergenceError:
        behaviour, outcome = "oscillation detected", "no limit"
    table.add("nonsense", verdict, behaviour, outcome)
    # strange: rejected; converges to {0,2,4,6} under override
    db3 = Database()
    db3.declare("Base", paper.CARDREL, [(i,) for i in range(7)])
    try:
        paper.define_strange(db3, check_positivity=True)
        verdict = "accepted (BUG)"
    except PositivityError:
        verdict = "rejected"
    paper.define_strange(db3, check_positivity=False)
    res = apply_constructor(db3, "Base", "strange", allow_nonmonotonic=True)
    values = sorted(v for (v,) in res.rows)
    table.add("strange", verdict, f"converges in {res.stats.iterations} iters",
              f"limit {values}")
    table.note("paper's worked limit for strange on {0..6} is [0, 2, 4, 6]")
    return table


# ---------------------------------------------------------------------------
# E7 — equivalence lemma (section 3.4)
# ---------------------------------------------------------------------------


def e07_equivalence() -> Table:
    table = Table(
        "E7  Constructors = function-free PROLOG: four engines, same answers",
        ["workload", "constructor", "datalog", "SLD", "tabled", "all equal"],
    )
    cases = [
        ("chain(24)", chain(24)),
        ("tree(d=5)", binary_tree(5)),
        ("random dag", [e for e in random_digraph(20, 40, seed=5)
                        if e[0] < e[1]]),
    ]
    for name, edges in cases:
        db = _tc_db(edges)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        con = set(apply_constructor(db, "Infront", "ahead").rows)
        program, edb, root = system_to_program(db, system)
        dlg = set(DatalogEngine(program, edb).solve()[root])
        kb = KnowledgeBase.from_program(TC_PROGRAM, {"infront": edges})
        sld = SLDEngine(kb).all_answers(parse_atom("ahead(X, Y)"))
        tab = TabledEngine(kb).all_answers(parse_atom("ahead(X, Y)"))
        table.add(name, len(con), len(dlg), len(sld), len(tab),
                  con == dlg == sld == tab)
    # same-generation through the datalog->constructor direction
    family = generate_family(roots=2, depth=4, children=2)
    db_sg = sg_database(family)
    sg = apply_constructor(db_sg, "Sibling", "samegen", "Parent")
    table.note(f"same-generation via constructors: {len(sg.rows)} tuples "
               f"(non-linear recursion)")
    return table


# ---------------------------------------------------------------------------
# E8 — HEADLINE: set-oriented vs proof-oriented (sections 3.4, 4, 5)
# ---------------------------------------------------------------------------


def e08_set_vs_proof(quick: bool = False) -> Table:
    table = Table(
        "E8  All-pairs recursive query: set-construction vs proof-oriented",
        ["workload", "edges", "|closure|", "naive (s)", "semi (s)", "compiled (s)",
         "SLD (s)", "tabled (s)", "semi/SLD speedup"],
    )
    workloads = [
        ("chain(32)", chain(32)),
        ("chain(64)", chain(64)),
        ("tree(d=6)", binary_tree(6)),
        ("grid(4x4)", grid(4, 4)),
        ("cycle(32)", cycle(32)),
    ]
    if not quick:
        workloads.insert(2, ("chain(128)", chain(128)))
    goal = parse_atom("ahead(X, Y)")
    for name, edges in workloads:
        db = _tc_db(edges)
        if len(edges) <= 96:
            res_n, t_naive = measure(
                lambda: apply_constructor(db, "Infront", "ahead", mode="naive")
            )
            naive_cell: object = t_naive
        else:
            res_n, naive_cell = None, "-"  # interpreted naive is quadratic+
        res_s, t_semi = measure(
            lambda: apply_constructor(db, "Infront", "ahead", mode="seminaive")
        )
        res_c, t_comp = measure(
            lambda: construct_compiled(db, d.constructed("Infront", "ahead"))
        )
        kb = KnowledgeBase.from_program(TC_PROGRAM, {"infront": edges})

        def run_sld():
            try:
                return SLDEngine(kb, max_depth=2000).all_answers(goal)
            except DepthLimitExceeded:
                return None

        sld_rows, t_sld = measure(run_sld)
        tab_rows, t_tab = measure(lambda: TabledEngine(kb).all_answers(goal))
        agree = set(res_s.rows) == set(res_c.rows) == tab_rows
        if res_n is not None:
            agree = agree and set(res_n.rows) == set(res_s.rows)
        assert agree, f"engines disagree on {name}"
        sld_cell = f"{t_sld:.4f}" if sld_rows is not None else "loops"
        speedup = f"{ratio(t_sld, t_semi):.1f}x" if sld_rows is not None else "inf"
        table.add(name, len(edges), len(res_s.rows), naive_cell, t_semi, t_comp,
                  sld_cell, t_tab, speedup)
    table.note("SLD on cycles exceeds any depth budget: 'endless loops eliminated'")
    table.note("all engines verified to produce identical closures")
    return table


def e08b_point_query(quick: bool = False) -> Table:
    table = Table(
        "E8b Single-source point query: where proof-orientation pays off",
        ["workload", "full LFP (s)", "LFP+filter rows", "SLD point (s)",
         "tabled point (s)", "seeded BFS (s)"],
    )
    workloads = [("chain(64)", chain(64)), ("tree(d=7)", binary_tree(7))]
    if not quick:
        workloads.append(("chain(256)", chain(256)))
    for name, edges in workloads:
        db = _tc_db(edges)
        source = edges[0][0]
        res, t_full = measure(
            lambda: construct_compiled(db, d.constructed("Infront", "ahead"))
        )
        filtered = {r for r in res.rows if r[0] == source}
        kb = KnowledgeBase.from_program(TC_PROGRAM, {"infront": edges})
        goal = parse_atom(f"ahead({source}, Y)")
        sld_rows, t_sld = measure(lambda: SLDEngine(kb).all_answers(goal))
        tab_rows, t_tab = measure(lambda: TabledEngine(kb).all_answers(goal))
        system = instantiate(db, d.constructed("Infront", "ahead"))
        shape = detect_linear_tc(db, system)
        seed_rows, t_seed = measure(lambda: bound_query(db, shape, "head", source))
        assert filtered == sld_rows == tab_rows == seed_rows
        table.add(name, t_full, len(filtered), t_sld, t_tab, t_seed)
    table.note("goal-directed strategies beat the full LFP on selective queries —")
    table.note("the motivation for constraint propagation (E9) and capture rules (E13)")
    return table


# ---------------------------------------------------------------------------
# E9 — constraint propagation, Cases 1-3 (section 4)
# ---------------------------------------------------------------------------


def e09_pushdown(sizes=(4, 16, 48)) -> Table:
    table = Table(
        "E9  Cases 1-3: propagating restrictions into non-recursive bodies",
        ["rooms", "|Infront|", "materialize+filter (s)", "inlined compiled (s)",
         "speedup", "equal"],
    )
    for rooms in sizes:
        db = generate_scene(rooms=rooms, row_length=8).database(mutual=False)
        target = db["Infront"].sorted_rows()[0][0]
        query = d.query(
            d.branch(
                d.each("r", d.constructed("Infront", "ahead2")),
                pred=d.eq(d.a("r", "head"), target),
                targets=[d.a("r", "tail")],
            )
        )

        def materialize_then_filter():
            full = apply_constructor(db, "Infront", "ahead2").rows
            result_schema = paper.AHEADREC
            return {(r[1],) for r in full if r[0] == target}

        rows_slow, t_slow = measure(materialize_then_filter, repeat=3)

        def inlined():
            return run_query(db, inline_nonrecursive(db, query))

        rows_fast, t_fast = measure(inlined, repeat=3)
        table.add(rooms, len(db["Infront"]), t_slow, t_fast,
                  f"{ratio(t_slow, t_fast):.1f}x", rows_slow == rows_fast)
    table.note("Case 1 applies N1-N3, Case 2 substitutes target terms, Case 3 unions")
    return table


# ---------------------------------------------------------------------------
# E10 — augmented quant graphs (section 4, Fig. 3)
# ---------------------------------------------------------------------------


def e10_quantgraph(family_sizes=(2, 8, 24)) -> Table:
    table = Table(
        "E10 Augmented quant graphs: structure and compile-time cost",
        ["constructors", "nodes", "arcs", "components", "recursive heads",
         "build (s)"],
    )
    # Fig. 3 itself first
    db = paper.cad_database(mutual=False)
    from ..compiler import build_constructor_graph

    graph = build_constructor_graph(db, db.constructor("ahead"))
    table.add("Fig.3 ahead", len(graph.nodes), len(graph.arcs),
              len(graph.components()), len(graph.recursive_heads()), 0.0)

    for m in family_sizes:
        fam_db = Database("family")
        fam_db.declare("Base", paper.INFRONTREL, chain(4))
        # m constructors in a ring: c_i's recursive branch applies c_{i+1}
        for i in range(m):
            nxt = (i + 1) % m
            body = d.query(
                d.branch(d.each("r", "Rel")),
                d.branch(
                    d.each("f", "Rel"),
                    d.each("b", d.constructed("Rel", f"c{nxt}")),
                    pred=d.eq(d.a("f", "back"), d.a("b", "head")),
                    targets=[d.a("f", "front"), d.a("b", "tail")],
                ),
            )
            define_constructor(
                fam_db, f"c{i}", "Rel", paper.INFRONTREL, paper.AHEADREL, body
            )
        constructors = list(fam_db.constructors.values())
        graph, t_build = measure(
            lambda: build_interconnectivity_graph(fam_db, constructors)
        )
        table.add(f"ring of {m}", len(graph.nodes), len(graph.arcs),
                  len(graph.components()), len(graph.recursive_heads()), t_build)
    table.note("a ring of m constructors forms one component with m recursive heads")
    return table


# ---------------------------------------------------------------------------
# E11 — logical vs physical access paths (section 4, runtime level)
# ---------------------------------------------------------------------------


def e11_access_paths(query_counts=(1, 2, 8, 32)) -> Table:
    table = Table(
        "E11 Repeated parameterized queries: logical vs physical access paths",
        ["queries", "logical recompute (s)", "logical seeded (s)",
         "physical (s)", "winner"],
    )
    edges = chain(192)
    db = _tc_db(edges)
    constants = [f"n{i * 3}" for i in range(64)]
    node = d.constructed("Infront", "ahead")
    for count in query_counts:
        plain = LogicalAccessPath(db, node, "head", allow_specialization=False)
        _, t_plain = measure(
            lambda p=plain, n=count: [p.lookup(c) for c in constants[:n]]
        )
        seeded = LogicalAccessPath(db, node, "head")
        _, t_seeded = measure(
            lambda p=seeded, n=count: [p.lookup(c) for c in constants[:n]]
        )
        physical = PhysicalAccessPath(db, node, "head")
        _, t_physical = measure(
            lambda p=physical, n=count: [p.lookup(c) for c in constants[:n]]
        )
        best = min(
            ("logical recompute", t_plain),
            ("logical seeded", t_seeded),
            ("physical", t_physical),
            key=lambda kv: kv[1],
        )
        table.add(count, t_plain, t_seeded, t_physical, best[0])
    table.note("the plain logical path recomputes the LFP per call: physical wins")
    table.note("after one call; the seeded special case stays competitive throughout")
    return table


# ---------------------------------------------------------------------------
# E12 — range nesting and execution ablation (section 4, N1-N3)
# ---------------------------------------------------------------------------


def e12_range_nesting(sizes=(60, 240, 960)) -> Table:
    table = Table(
        "E12 Join execution: interpreted nested-loop vs compiled index plans",
        ["edges", "|join|", "reference (s)", "compiled (s)", "speedup", "equal"],
    )
    for n in sizes:
        edges = random_digraph(max(8, n // 8), n, seed=13)
        db = _tc_db(edges)
        q = d.query(
            d.branch(
                d.each("f", "Infront"), d.each("b", "Infront"),
                pred=d.eq(d.a("f", "back"), d.a("b", "front")),
                targets=[d.a("f", "front"), d.a("b", "back")],
            )
        )
        ref, t_ref = measure(lambda: Evaluator(db).eval_query(q))
        fast, t_fast = measure(lambda: run_query(db, q), repeat=3)
        table.add(len(edges), len(fast), t_ref, t_fast,
                  f"{ratio(t_ref, t_fast):.1f}x", ref == fast)
    table.note("N1-N3 rewrites are semantics-preserving (property-tested);")
    table.note("their payoff is early filtering, realized by the compiled plans")
    return table


# ---------------------------------------------------------------------------
# E13 — capture rules: bound-argument specialization (section 4)
# ---------------------------------------------------------------------------


def e13_specialization(sizes=(64, 256, 1024)) -> Table:
    table = Table(
        "E13 Bound-head recursive query: full LFP vs seeded traversal vs tabling",
        ["chain n", "full LFP (s)", "seeded (s)", "tabled (s)",
         "LFP/seeded", "edges touched"],
    )
    for n in sizes:
        edges = chain(n)
        db = _tc_db(edges)
        source = "n0"
        _, t_full = measure(
            lambda: construct_compiled(db, d.constructed("Infront", "ahead"))
        )
        system = instantiate(db, d.constructed("Infront", "ahead"))
        shape = detect_linear_tc(db, system)
        stats = SpecializedStats()
        seeded, t_seed = measure(lambda: bound_query(db, shape, "head", source, stats))
        kb = KnowledgeBase.from_program(TC_PROGRAM, {"infront": edges})
        goal = parse_atom(f"ahead({source}, Y)")
        tabled, t_tab = measure(lambda: TabledEngine(kb).all_answers(goal))
        assert seeded == tabled
        table.add(n, t_full, t_seed, t_tab, f"{ratio(t_full, t_seed):.0f}x",
                  stats.edges_touched)
    table.note("the detected shape is the paper's 'special case' capture rule;")
    table.note("seeded bottom-up matches goal-directed top-down on selectivity")
    return table


# ---------------------------------------------------------------------------
# E14 — cost-based query planning with table statistics
# ---------------------------------------------------------------------------


def e14_planner_cases():
    """The three skewed join workloads E14 compares optimizers on.

    Each query writes the *selective* relation last, so a syntactic
    (written-order) loop nest scans the large relation in full while the
    cost-based order starts from the restricted side.
    """
    cases = []

    bom_edges = generate_bom(assemblies=6, depth=5, fanout=3, seed=9)
    bom_db = bom_database(bom_edges)
    leaf = bom_edges[-1][1]
    cases.append((
        "BOM grandparents",
        bom_db,
        d.query(
            d.branch(
                d.each("c", "Contains"), d.each("p", "Contains"),
                pred=d.and_(
                    d.eq(d.a("c", "sub"), d.a("p", "part")),
                    d.eq(d.a("p", "sub"), leaf),
                ),
                targets=[d.a("c", "part"), d.a("p", "sub")],
            )
        ),
    ))

    scene = generate_scene(rooms=48, row_length=8)
    cases.append((
        "CAD gallery",
        scene.database(mutual=False),
        d.query(
            d.branch(
                d.each("f", "Infront"), d.each("b", "Infront"),
                d.each("o", "Objects"),
                pred=d.and_(
                    d.eq(d.a("f", "back"), d.a("b", "front")),
                    d.and_(
                        d.eq(d.a("o", "part"), d.a("b", "back")),
                        d.eq(d.a("o", "kind"), "cabinet"),
                    ),
                ),
                targets=[d.a("f", "front"), d.a("o", "part")],
            )
        ),
    ))

    family = generate_family(roots=3, depth=6, children=3, seed=4)
    person = family[0][0]
    cases.append((
        "genealogy siblings",
        sg_database(family),
        d.query(
            d.branch(
                d.each("px", "Parent"), d.each("py", "Parent"),
                pred=d.and_(
                    d.eq(d.a("px", "parent"), d.a("py", "parent")),
                    d.eq(d.a("py", "child"), person),
                ),
                targets=[d.a("px", "child"), d.a("py", "child")],
            )
        ),
    ))
    return cases


def e14_planner() -> Table:
    table = Table(
        "E14 Cost-based vs syntactic join ordering (statistics-driven planner)",
        ["workload", "|result|", "syntactic (s)", "cost (s)", "scan syn",
         "scan cost", "speedup", "equal"],
    )
    for name, db, query in e14_planner_cases():
        plan_syn = compile_query(db, query, options=ExecOptions(optimizer="syntactic"))
        plan_cost = compile_query(db, query, options=ExecOptions(optimizer="cost"))
        stats_syn, stats_cost = PlanStats(), PlanStats()
        rows_syn, t_syn = measure(
            lambda p=plan_syn, d_=db, s=stats_syn: p.execute(
                ExecutionContext(d_, stats=s)
            ),
            repeat=5,
        )
        rows_cost, t_cost = measure(
            lambda p=plan_cost, d_=db, s=stats_cost: p.execute(
                ExecutionContext(d_, stats=s)
            ),
            repeat=5,
        )
        table.add(name, len(rows_cost), t_syn, t_cost, stats_syn.rows_scanned // 5,
                  stats_cost.rows_scanned // 5, f"{ratio(t_syn, t_cost):.1f}x",
                  rows_syn == rows_cost)

    # The recursive variant: the same comparison inside the generated
    # differential fixpoint program (delta-driven vs written-order nests).
    bom_db = bom_database(generate_bom(assemblies=6, depth=5, fanout=3, seed=9))
    system = instantiate(bom_db, d.constructed("Contains", "explode"))
    prog_syn = compile_fixpoint(bom_db, system, options=ExecOptions(optimizer="syntactic"))
    prog_cost = compile_fixpoint(bom_db, system, options=ExecOptions(optimizer="cost"))
    vals_syn, t_syn = measure(prog_syn.run)
    vals_cost, t_cost = measure(prog_cost.run)
    table.add("BOM explode (fixpoint)", len(vals_cost[system.root]), t_syn, t_cost,
              prog_syn.plan_stats.rows_scanned, prog_cost.plan_stats.rows_scanned,
              f"{ratio(t_syn, t_cost):.1f}x",
              vals_syn[system.root] == vals_cost[system.root])
    table.metric("fixpoint_rows_scanned_cost", prog_cost.plan_stats.rows_scanned)
    table.metric(
        "fixpoint_scan_ratio",
        ratio(prog_syn.plan_stats.rows_scanned, prog_cost.plan_stats.rows_scanned),
    )

    # Estimation quality straight from the winning plan's explain().
    diff_branch = prog_cost.diff_plans[system.root].plan.branches[0]
    last_step = diff_branch.steps[-1]
    actual = diff_branch.actual_rows[-1] / max(1, diff_branch.executions)
    table.note("plans carry estimates: explain() reports est vs act per step, e.g. "
               f"differential inner step est~{last_step.est_cumulative:.1f} "
               f"act~{actual:.1f} per iteration")
    table.note("the cost-based order starts from the restricted/delta side; the")
    table.note("syntactic order scans the first-written relation in full")
    return table


# ---------------------------------------------------------------------------
# E15 — histogram range pricing and mid-fixpoint re-optimization
# ---------------------------------------------------------------------------


def e15_range_case(rows=2000, partner_rows=10_000, keys=500, hot_keys=50, seed=11):
    """A skewed range workload: ``Readings`` carries an exponentially
    distributed measurement column, ``Samples`` is a large join partner
    over a hot subset of the keys.  The query keeps only the extreme
    tail of the measurements (far less than the uniform-constant guess),
    so the histogram-priced plan drives the join from the restricted
    side while constant pricing starts from the big partner."""
    import random as _random

    from ..types import INTEGER, STRING, record, relation_type

    rng = _random.Random(seed)
    reading = record("readingrec", sensor=STRING, value=INTEGER)
    sample = record("samplerec", sensor=STRING, label=STRING)
    db = Database("e15")
    db.declare(
        "Readings",
        relation_type("readingrel", reading),
        {
            (f"k{i % keys}", min(int(rng.expovariate(0.005)), 1200) + i % 3)
            for i in range(rows)
        },
    )
    db.declare(
        "Samples",
        relation_type("samplerel", sample),
        {(f"k{rng.randrange(hot_keys)}", f"w{i}") for i in range(partner_rows)},
    )
    query = d.query(
        d.branch(
            d.each("s", "Samples"),
            d.each("r", "Readings"),
            pred=d.and_(
                d.eq(d.a("r", "sensor"), d.a("s", "sensor")),
                d.gt(d.a("r", "value"), 990),
            ),
            targets=[d.a("r", "sensor"), d.a("s", "label")],
        )
    )
    return db, query


def e15_drift_edges(comps=6, sources=50, leaves=50):
    """Staggered dead-end fans for transitive closure: early deltas are
    tiny chain advances, then each component's source-by-leaf wave
    explodes far beyond the compile-time delta estimate — one component
    per iteration, so the drift keeps paying off."""
    edges = []
    for j in range(comps):
        edges += [(f"s{j}_{i}", f"c{j}_0") for i in range(sources)]
        edges += [(f"c{j}_{k}", f"c{j}_{k+1}") for k in range(j + 1)]
        edges += [(f"c{j}_{j+1}", f"b{j}_{n}") for n in range(leaves)]
    return edges


def e15_reopt() -> Table:
    from ..compiler import CostModel, compile_fixpoint

    table = Table(
        "E15 Histogram range pricing + mid-fixpoint re-optimization",
        ["workload", "|result|", "baseline (s)", "informed (s)", "scan base",
         "scan informed", "scan ratio", "equal"],
    )

    # (a) range pricing: equi-depth histograms vs the uniform constant.
    db, query = e15_range_case()
    plan_const = compile_query(
        db, query, cost_model=CostModel(db, use_histograms=False)
    )
    plan_hist = compile_query(db, query, cost_model=CostModel(db))
    stats_const, stats_hist = PlanStats(), PlanStats()
    rows_const, t_const = measure(
        lambda: plan_const.execute(ExecutionContext(db, stats=stats_const)), repeat=5
    )
    rows_hist, t_hist = measure(
        lambda: plan_hist.execute(ExecutionContext(db, stats=stats_hist)), repeat=5
    )
    table.add(
        "skewed range join", len(rows_hist), t_const, t_hist,
        stats_const.rows_scanned // 5, stats_hist.rows_scanned // 5,
        f"{ratio(stats_const.rows_scanned, stats_hist.rows_scanned):.1f}x",
        rows_const == rows_hist,
    )

    # (b) re-optimization: frozen differential plans vs drift-triggered
    # re-planning on TC over staggered exploding deltas.
    edges = e15_drift_edges()
    frozen_db = _tc_db(edges)
    frozen_sys = instantiate(frozen_db, d.constructed("Infront", "ahead"))
    frozen = compile_fixpoint(frozen_db, frozen_sys, replan_drift=None)
    frozen_vals, t_frozen = measure(frozen.run)
    adaptive_db = _tc_db(edges)
    adaptive_sys = instantiate(adaptive_db, d.constructed("Infront", "ahead"))
    adaptive = compile_fixpoint(adaptive_db, adaptive_sys)
    adaptive_vals, t_adaptive = measure(adaptive.run)
    table.add(
        "TC drifting deltas", len(adaptive_vals[adaptive_sys.root]),
        t_frozen, t_adaptive,
        frozen.plan_stats.rows_scanned, adaptive.plan_stats.rows_scanned,
        f"{ratio(frozen.plan_stats.rows_scanned, adaptive.plan_stats.rows_scanned):.1f}x",
        frozen_vals[frozen_sys.root] == adaptive_vals[adaptive_sys.root],
    )
    table.note("(a) equi-depth histograms price the range filter's true tail "
               "fraction; the constant 1/3 drives the join from the wrong side")
    table.note(f"(b) re-planning fired {adaptive.replans} time(s) when observed "
               "deltas drifted >4x from the priced estimates")
    table.metric(
        "range_scan_ratio",
        ratio(stats_const.rows_scanned, stats_hist.rows_scanned),
    )
    table.metric("reopt_rows_scanned", adaptive.plan_stats.rows_scanned)
    return table


# ---------------------------------------------------------------------------
# E16 — batched physical-operator executor vs tuple-at-a-time interpretation
# ---------------------------------------------------------------------------


def e16_bom_paths_case(assemblies=24, depth=7, fanout=4, seed=16):
    """The E14-style headline workload at ~19k rows: all four-level
    containment paths through a BOM forest — a selective multi-way
    self-join where per-tuple interpretation overhead dominates."""
    edges = generate_bom(assemblies=assemblies, depth=depth, fanout=fanout,
                         seed=seed)
    db = bom_database(edges)
    query = d.query(
        d.branch(
            d.each("c1", "Contains"), d.each("c2", "Contains"),
            d.each("c3", "Contains"), d.each("c4", "Contains"),
            pred=d.and_(
                d.eq(d.a("c1", "sub"), d.a("c2", "part")),
                d.and_(
                    d.eq(d.a("c2", "sub"), d.a("c3", "part")),
                    d.eq(d.a("c3", "sub"), d.a("c4", "part")),
                ),
            ),
            targets=[d.a("c1", "part"), d.a("c4", "sub")],
        )
    )
    return db, query


def e16_batched() -> Table:
    """Identical plans, two executors: the lowered operator pipeline
    (Scan/IndexLookup/HashJoin/Filter/Project over row batches) against
    the tuple-at-a-time interpreted loop nest it replaced."""
    table = Table(
        "E16 Batched operator pipeline vs tuple-at-a-time interpretation",
        ["workload", "rows in", "|result|", "tuple (s)", "batch (s)",
         "speedup", "equal"],
    )

    def compare(name, db, query, repeat=3):
        plan = compile_query(db, query)
        rows_in = sum(len(r) for r in db.relations.values())
        rows_tuple, t_tuple = measure(
            lambda: plan.execute(ExecutionContext(db), executor="tuple"),
            repeat=repeat,
        )
        rows_batch, t_batch = measure(
            lambda: plan.execute(ExecutionContext(db), executor="batch"),
            repeat=repeat,
        )
        table.add(name, rows_in, len(rows_batch), t_tuple, t_batch,
                  f"{ratio(t_tuple, t_batch):.1f}x", rows_tuple == rows_batch)
        return ratio(t_tuple, t_batch)

    # (a) the headline: E14-style selective multi-way join at ~19k rows.
    db, query = e16_bom_paths_case()
    headline = compare("BOM 4-level paths", db, query)

    # (b) the E15 histogram workload (10k-row join partner).
    db, query = e15_range_case()
    compare("E15 skewed range join", db, query)

    # (c) the same comparison inside the generated fixpoint program:
    # semi-naive differentials with deltas as pre-built hash-join sides.
    edges = e15_drift_edges()
    tuple_db = _tc_db(edges)
    tuple_sys = instantiate(tuple_db, d.constructed("Infront", "ahead"))
    tuple_prog = compile_fixpoint(tuple_db, tuple_sys, options=ExecOptions(executor="tuple"))
    tuple_vals, t_tuple = measure(tuple_prog.run)
    batch_db = _tc_db(edges)
    batch_sys = instantiate(batch_db, d.constructed("Infront", "ahead"))
    batch_prog = compile_fixpoint(batch_db, batch_sys, options=ExecOptions(executor="batch"))
    batch_vals, t_batch = measure(batch_prog.run)
    table.add(
        "TC fixpoint (drift edges)", len(edges),
        len(batch_vals[batch_sys.root]), t_tuple, t_batch,
        f"{ratio(t_tuple, t_batch):.1f}x",
        tuple_vals[tuple_sys.root] == batch_vals[batch_sys.root],
    )

    table.note("same optimizer, same plans — only the executor differs; "
               "answers byte-identical")
    table.note(f"headline speedup {headline:.1f}x (acceptance bar: 5x at "
               ">=10k rows)")
    table.note("explain() reports per-operator actual row counts "
               "(SCAN/INDEXLOOKUP/HASHJOIN/FILTER/PROJECT/DEDUP/DELTAAPPLY)")
    table.metric("headline_speedup", headline)
    return table


# ---------------------------------------------------------------------------
# E17 — columnar (struct-of-arrays) carries + operator fusion vs row-major
# ---------------------------------------------------------------------------


def e17_wide_case(rows=20_000, partners=9_000, fan_keys=300, part_keys=7_000,
                  seed=17):
    """A wide-carry 3-way join: 8-column relations, nine projected
    attributes, a mid-pipeline range filter — the shape where row-major
    batches rebuild wide carry tuples at every step while the columnar
    executor only expands row slots and materializes once, fused."""
    import random as _random

    from ..types import INTEGER, STRING, record, relation_type

    rng = _random.Random(seed)
    wide = record(
        "widerec", a0=STRING, a1=INTEGER, a2=INTEGER, a3=INTEGER,
        a4=INTEGER, a5=INTEGER, a6=INTEGER, a7=STRING,
    )

    def rel(n, keys, prefix):
        nxt = chr(ord(prefix) + 1)
        return {
            (f"{prefix}k{rng.randrange(keys)}", i, rng.randrange(1000),
             rng.randrange(1000), rng.randrange(1000), rng.randrange(1000),
             rng.randrange(1000), f"{nxt}k{rng.randrange(keys)}")
            for i in range(n)
        }

    db = Database("e17wide")
    db.declare("W1", relation_type("w1", wide), rel(rows, fan_keys, "a"))
    db.declare("W2", relation_type("w2", wide), rel(partners, part_keys, "b"))
    db.declare("W3", relation_type("w3", wide), rel(partners, part_keys, "c"))
    query = d.query(
        d.branch(
            d.each("x", "W1"), d.each("y", "W2"), d.each("z", "W3"),
            pred=d.and_(
                d.eq(d.a("x", "a7"), d.a("y", "a0")),
                d.and_(
                    d.eq(d.a("y", "a7"), d.a("z", "a0")),
                    d.gt(d.a("y", "a2"), 500),
                ),
            ),
            targets=[d.a("x", "a1"), d.a("x", "a2"), d.a("x", "a3"),
                     d.a("x", "a4"), d.a("y", "a1"), d.a("y", "a3"),
                     d.a("z", "a2"), d.a("z", "a4"), d.a("z", "a5")],
        )
    )
    return db, query


def e17_quantifier_case(links=24_000, parts=4_000, approved=300, seed=18):
    """The headline: a wide join whose predicate is quantifier-heavy —
    an existential over approvals plus a negated membership against a
    recall list.  Row-major batches check both through the reference
    evaluator once per joined row; the columnar executor groups rows by
    their bindings and answers each distinct group with one index probe
    per batch."""
    import random as _random

    from ..types import INTEGER, STRING, record, relation_type

    rng = _random.Random(seed)
    part = record("partrec", pid=STRING, kind=STRING, wt=INTEGER)
    link = record("linkrec", parent=STRING, child=STRING, qty=INTEGER)
    approval = record("apprec", pid=STRING, grade=INTEGER)
    recall = record("recrec", pid=STRING)

    db = Database("e17quant")
    db.declare("Parts", relation_type("partsrel", part),
               {(f"p{i}", f"k{i % 40}", i % 97) for i in range(parts)})
    db.declare("Links", relation_type("linksrel", link),
               {(f"p{rng.randrange(parts)}", f"p{rng.randrange(parts)}", i % 7)
                for i in range(links)})
    db.declare("Approved", relation_type("apprel", approval),
               {(f"p{rng.randrange(parts)}", i % 5) for i in range(approved)})
    db.declare("Recalled", relation_type("recrel", recall),
               {(f"p{rng.randrange(parts)}",) for i in range(parts // 20)})
    query = d.query(
        d.branch(
            d.each("l", "Links"), d.each("p", "Parts"),
            pred=d.and_(
                d.eq(d.a("l", "child"), d.a("p", "pid")),
                d.and_(
                    d.some("a", "Approved",
                           d.eq(d.a("a", "pid"), d.a("l", "parent"))),
                    d.not_(d.in_(d.tup(d.a("p", "pid")), "Recalled")),
                ),
            ),
            targets=[d.a("l", "parent"), d.a("p", "kind"), d.a("p", "wt")],
        )
    )
    return db, query


def e17_columnar() -> Table:
    """Columnar (struct-of-arrays) executor vs PR 3's row-major batches.

    Identical plans, two batched executors: ``executor="batch"`` (slot
    carries, C-level kernels, fused projection, grouped residual probes)
    against ``executor="rowbatch"`` (flat row-major carries).  The
    acceptance bar is >=2x on the quantifier-heavy workloads at 10k+
    rows with byte-identical answers.
    """
    table = Table(
        "E17 Columnar carries + operator fusion vs row-major batches",
        ["workload", "rows in", "|result|", "rowbatch (s)", "columnar (s)",
         "speedup", "equal"],
    )

    def compare(name, db, query, metric, repeat=3, repeat_slow=None):
        plan = compile_query(db, query)
        rows_in = sum(len(r) for r in db.relations.values())
        rows_col, t_col = measure(
            lambda: plan.execute(ExecutionContext(db), executor="batch"),
            repeat=repeat,
        )
        rows_row, t_row = measure(
            lambda: plan.execute(ExecutionContext(db), executor="rowbatch"),
            repeat=repeat_slow or repeat,
        )
        speedup = ratio(t_row, t_col)
        table.add(name, rows_in, len(rows_col), t_row, t_col,
                  f"{speedup:.1f}x", rows_col == rows_row)
        table.metric(metric, speedup)
        return speedup

    # (a) the wide-carry join chain (fused projection, compress filters).
    db, query = e17_wide_case()
    compare("wide-carry 3-way join", db, query, "wide_speedup", repeat=5)

    # (b) HEADLINE: the same join shape under quantifier-heavy predicates.
    db, query = e17_quantifier_case()
    headline = compare("quantifier-heavy join", db, query,
                       "headline_speedup", repeat_slow=1)

    # (c) the semi-naive fixpoint on both executors (delta hash sides).
    # Each repetition recompiles against a fresh database so mid-fixpoint
    # re-planning fires identically; best-of-3 drowns codegen noise.
    edges = e15_drift_edges()

    def run_fixpoint(executor):
        db = _tc_db(edges)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(db, system, options=ExecOptions(executor=executor))
        return program, program.run()[system.root]

    (row_prog, row_rows), t_row = measure(lambda: run_fixpoint("rowbatch"), repeat=3)
    (col_prog, col_rows), t_col = measure(lambda: run_fixpoint("batch"), repeat=3)
    table.add("TC fixpoint (drift edges)", len(edges), len(col_rows),
              t_row, t_col, f"{ratio(t_row, t_col):.1f}x", row_rows == col_rows)
    table.metric("fixpoint_speedup", ratio(t_row, t_col))
    table.metric("fixpoint_rows_scanned", col_prog.plan_stats.rows_scanned)

    table.note("same cost-based plans; the executors differ only in carry "
               "layout (slots vs flat tuples) and fusion")
    table.note(f"headline speedup {headline:.1f}x on the quantifier-heavy "
               "join (acceptance bar: 2x at >=10k rows)")
    table.note("columnar residuals: grouped per distinct binding, one index "
               "probe per batch; row-major checks per joined row")
    return table


# ---------------------------------------------------------------------------
# E18 — sharded parallel executor vs single-worker columnar execution
# ---------------------------------------------------------------------------


def e18_sharded_case(rows=100_000, dim=5_000, aux=1_200, seed=21):
    """A 100k-row skewed fact/dimension join, the sharding headline.

    Fact keys are drawn with cubic skew over the dimension's key space —
    heavy head buckets, exactly where hash-partitioned build and probe
    sides pay off.  The cost-based order scans the dimension, checks a
    range filter plus a universal quantifier against a rule table (the
    memoized evaluator fallback: per-distinct-group compute, the
    CPU-bound part), and probes the 100k-row fact side — which the
    sharded backend partitions on the join key, so each worker builds an
    index over ``rows/k`` fact rows and evaluates ``1/k`` of the
    residual groups.  The result set stays small relative to the probe
    work (the parallel win is compute-bound, not merge-bound).
    """
    import random as _random

    from ..types import INTEGER, STRING, record, relation_type

    rng = _random.Random(seed)
    fact = record("factrec", fk=STRING, seq=INTEGER, v=INTEGER)
    dimension = record("dimrec", k=STRING, grp=STRING, w=INTEGER)
    rule = record("rulerec", grp=STRING, w=INTEGER)

    db = Database("e18shard")
    db.declare(
        "Fact",
        relation_type("factrel", fact),
        {
            (f"p{int(dim * rng.random() ** 3)}", i, rng.randrange(1000))
            for i in range(rows)
        },
    )
    db.declare(
        "Dim",
        relation_type("dimrel", dimension),
        {(f"p{i}", f"g{i % 50}", rng.randrange(1000)) for i in range(dim)},
    )
    db.declare(
        "Rules",
        relation_type("rulesrel", rule),
        {(f"g{rng.randrange(50)}", rng.randrange(1000)) for _ in range(aux)},
    )
    query = d.query(
        d.branch(
            d.each("f", "Fact"), d.each("g", "Dim"),
            pred=d.and_(
                d.eq(d.a("f", "fk"), d.a("g", "k")),
                d.and_(
                    d.ge(d.a("g", "w"), 450),
                    # "no rule for g's group demands more weight": a
                    # disjunction with a range arm, so the residual takes
                    # the memoized evaluator fallback — real per-group
                    # compute that the shards split.
                    d.all_("s", "Rules", d.or_(
                        d.ne(d.a("s", "grp"), d.a("g", "grp")),
                        d.le(d.a("s", "w"), d.a("g", "w")),
                    )),
                ),
            ),
            targets=[d.a("f", "seq"), d.a("g", "w"), d.a("f", "v")],
        )
    )
    return db, query


def e18_sharded() -> Table:
    """Sharded parallel executor vs the single-worker columnar default.

    The same plan runs three ways: ``executor="batch"`` (one worker),
    ``executor="sharded"`` on the default thread pool, and
    ``executor="sharded"`` on the opt-in fork-based process pool — the
    configuration that scales with cores (threads interleave under the
    GIL; the acceptance bar of >=2x at >=4 workers is a multi-core
    number, single-core boxes report parity).  A large-delta transitive
    closure measures the fixpoint path: each iteration's delta is
    partitioned once and the per-shard deltas merge through a
    dedup-aware union before DeltaApply.
    """
    import os as _os

    table = Table(
        "E18 Sharded parallel executor vs single-worker columnar",
        ["workload", "rows in", "|result|", "batch (s)", "sharded (s)",
         "pool", "workers", "speedup", "equal"],
    )
    cpu = _os.cpu_count() or 1

    db, query = e18_sharded_case()
    rows_in = sum(len(r) for r in db.relations.values())
    plan = compile_query(db, query)
    rows_batch, t_batch = measure(
        lambda: plan.execute(ExecutionContext(db), executor="batch"), repeat=3
    )

    def run_sharded(config):
        ctx = ExecutionContext(db)
        ctx.shard_config = config
        return plan.execute(ctx, executor="sharded")

    thread_workers = max(2, min(8, cpu))
    thread_config = ShardConfig(workers=thread_workers)
    rows_thr, t_thr = measure(lambda: run_sharded(thread_config), repeat=3)
    table.add("skewed join 100k", rows_in, len(rows_thr), t_batch, t_thr,
              "thread", thread_workers, f"{ratio(t_batch, t_thr):.1f}x",
              rows_thr == rows_batch)

    process_workers = max(4, cpu)
    process_config = ShardConfig(workers=process_workers, pool="process")
    rows_proc, t_proc = measure(lambda: run_sharded(process_config), repeat=3)
    table.add("skewed join 100k", rows_in, len(rows_proc), t_batch, t_proc,
              "process", process_workers, f"{ratio(t_batch, t_proc):.1f}x",
              rows_proc == rows_batch)

    headline = ratio(t_batch, min(t_thr, t_proc))
    table.metric("sharded_speedup", headline)

    # Large-delta fixpoint: the drift workload's waves keep deltas big.
    edges = e15_drift_edges(comps=5, sources=30, leaves=30)

    def run_fixpoint(executor, config=None):
        db2 = _tc_db(edges)
        system = instantiate(db2, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(
            db2, system, options=ExecOptions(executor=executor, shard_config=config)
        )
        return program.run()[system.root]

    fp_batch, t_fp_batch = measure(lambda: run_fixpoint("batch"), repeat=3)
    fix_config = ShardConfig(workers=thread_workers, min_rows=256,
                             rows_per_shard=256)
    fp_sharded, t_fp_sharded = measure(
        lambda: run_fixpoint("sharded", fix_config), repeat=3
    )
    table.add("large-delta TC fixpoint", len(edges), len(fp_sharded),
              t_fp_batch, t_fp_sharded, "thread", thread_workers,
              f"{ratio(t_fp_batch, t_fp_sharded):.1f}x",
              fp_sharded == fp_batch)
    table.metric("sharded_fixpoint_speedup", ratio(t_fp_batch, t_fp_sharded))

    table.note(f"cpu_count={cpu}; the >=2x acceptance bar applies at >=4 "
               "workers on >=4 cores (process pool) — single-core boxes "
               "report parity")
    table.note("thread pool is the zero-setup default (GIL-interleaved); "
               "the fork-based process pool is the multi-core knob")
    table.note("fixpoint deltas are partitioned once per iteration; "
               "per-shard deltas merge dedup-aware before DeltaApply")
    return table


E19_SCHEMA = """
MODULE serving;

TYPE name    = STRING;
     factrec = RECORD seq: INTEGER; fk, tag: name END;
     factrel = RELATION seq OF factrec;
     dimrec  = RECORD k, grp: name; w: INTEGER END;
     dimrel  = RELATION k OF dimrec;
     annrec  = RECORD grp, note: name END;
     annrel  = RELATION grp, note OF annrec;

VAR Fact: factrel;
    Dim:  dimrel;
    Ann:  annrel;

END serving.
"""

#: The 3-step join the serving clients hammer (Fact–Dim–Ann–Dim, three
#: join edges); the two ``%d`` are the predicate constants — the
#: prepared path rebinds them as slots, the compile-per-call path
#: splices them into fresh query text.
E19_JOIN = (
    "{<f.seq, g.w, h.note, g2.k> OF "
    "EACH f IN Fact, EACH g IN Dim, EACH h IN Ann, EACH g2 IN Dim: "
    "f.fk = g.k AND g.grp = h.grp AND h.grp = g2.grp "
    "AND g.w >= %d AND g2.w < %d}"
)


def e19_serving_case(facts=1_500, dims=60, anns=9, seed=23, **session_kwargs):
    """A populated serving session: Fact (fat) joins Dim joins Ann."""
    import random as _random

    rng = _random.Random(seed)
    session = Session(name="e19", **session_kwargs)
    session.execute(E19_SCHEMA)
    session.assign(
        "Fact",
        [(i, f"k{rng.randrange(dims)}", f"t{rng.randrange(6)}")
         for i in range(facts)],
    )
    session.assign("Dim", [(f"k{j}", f"g{j % anns}", j) for j in range(dims)])
    session.assign("Ann", [(f"g{j}", f"note{j}") for j in range(anns)])
    return session


def _e19_percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _e19_serve(session, clients, ops, prepared: bool,
               thresholds=((45, 10), (50, 8), (55, 12), (40, 6))):
    """Run the mixed workload; returns (read latencies, wall seconds).

    Each client thread performs ``ops`` operations: ~90% reads of the
    3-step join (rotating the threshold constant), ~10% single-row
    inserts.  ``prepared=True`` clients prepare once and rebind the
    constant per call; otherwise every read goes through
    ``session.query`` with fresh text (and the session's cache disabled,
    that is a full re-parse/re-compile per call).
    """
    import random as _random
    import threading as _threading
    import time as _time

    per_client: list[list[float]] = [[] for _ in range(clients)]
    errors: list[Exception] = []

    def worker(cid: int) -> None:
        rng = _random.Random(97 + cid)
        lats = per_client[cid]
        handle = session.prepare(E19_JOIN % thresholds[0]) if prepared else None
        seq = 1_000_000 * (cid + 1)
        try:
            for _ in range(ops):
                if rng.random() < 0.1:
                    seq += 1
                    session.insert(
                        "Fact",
                        [(seq, f"k{rng.randrange(60)}", f"t{rng.randrange(6)}")],
                    )
                    continue
                bound = thresholds[rng.randrange(len(thresholds))]
                start = _time.perf_counter()
                if prepared:
                    handle.execute(*bound)
                else:
                    session.query(E19_JOIN % bound)
                lats.append(_time.perf_counter() - start)
        except DBPLError as exc:  # pragma: no cover - surfaced by caller
            errors.append(exc)

    threads = [_threading.Thread(target=worker, args=(c,)) for c in range(clients)]
    wall = _time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = _time.perf_counter() - wall
    if errors:
        raise errors[0]
    return [lat for lats in per_client for lat in lats], wall


def e19_serving(clients=4, ops=150) -> Table:
    """Prepared+cached serving vs compile-per-call under client threads.

    N client threads hammer one session with a mixed workload (~90%
    3-step-join reads with a rotating predicate constant, ~10% inserts).
    The compile-per-call mode disables the plan cache, so every read
    pays parse + optimize + lower; the prepared mode compiles the shape
    once and rebinds the constant per call.  The acceptance bar is
    prepared p50 >= 5x better; the inserts stay under the stats-epoch
    staleness threshold, so the cache is never invalidated mid-run
    (that path is exercised separately by the tier-1 tests).
    """
    table = Table(
        "E19 Serving: prepared+cached vs compile-per-call "
        f"({clients} client threads, mixed read/write)",
        ["mode", "reads", "writes", "p50 (ms)", "p99 (ms)",
         "reads/s", "hit rate", "equal"],
    )

    # Correctness gate on a small instance (the interpreted evaluator is
    # tuple-at-a-time nested loops — running it on the full serving case
    # would dwarf the measurement): compile-per-call, prepared/rebound,
    # and the reference evaluator must all agree.
    check = e19_serving_case(facts=120, dims=20, anns=6)
    check_prepared = check.prepare(E19_JOIN % (5, 4))
    equal = all(
        check.query(E19_JOIN % pair, mode="interpreted")
        == check.query(E19_JOIN % pair)
        == check_prepared.execute(*pair)
        for pair in ((5, 4), (10, 8), (2, 15))
    )

    compile_session = e19_serving_case(plan_cache_size=0)
    lat_compile, wall_compile = _e19_serve(
        compile_session, clients, ops, prepared=False
    )
    equal_compile = equal
    p50_compile = _e19_percentile(lat_compile, 0.50)
    p99_compile = _e19_percentile(lat_compile, 0.99)
    writes_compile = clients * ops - len(lat_compile)
    table.add("compile-per-call", len(lat_compile), writes_compile,
              p50_compile * 1e3, p99_compile * 1e3,
              len(lat_compile) / wall_compile,
              f"{compile_session.plan_cache.hit_rate:.2f}", equal_compile)

    prepared_session = e19_serving_case()
    lat_prepared, wall_prepared = _e19_serve(
        prepared_session, clients, ops, prepared=True
    )
    equal_prepared = equal
    p50_prepared = _e19_percentile(lat_prepared, 0.50)
    p99_prepared = _e19_percentile(lat_prepared, 0.99)
    writes_prepared = clients * ops - len(lat_prepared)
    hit_rate = prepared_session.plan_cache.hit_rate
    table.add("prepared+cached", len(lat_prepared), writes_prepared,
              p50_prepared * 1e3, p99_prepared * 1e3,
              len(lat_prepared) / wall_prepared,
              f"{hit_rate:.2f}", equal_prepared)

    # p99 is displayed but deliberately not a gated metric: under the
    # GIL both modes' tails are contention-dominated and the quotient is
    # too noisy for even the gate's wide margin.
    table.metric("prepared_p50_speedup", ratio(p50_compile, p50_prepared))
    table.metric("cache_hit_rate", hit_rate)
    table.metric("p50_prepared_ms", p50_prepared * 1e3)
    table.metric("p50_compile_ms", p50_compile * 1e3)

    table.note("acceptance bar: prepared+cached p50 >= 5x better than "
               "compile-per-call on the 3-step join")
    table.note("the ~10% inserts stay below the stats-epoch staleness "
               "threshold, so plans are reused, not re-optimized; bulk "
               "drift invalidation is covered by tests/test_serving.py")
    table.note("`equal`: compile-per-call, prepared/rebound, and the "
               "interpreted reference evaluator agree on a small instance "
               "of the same shape")
    return table


def e20_vectors_case(rows=100_000, dim=4_000, seed=27):
    """A skewed equality join + range filter + dedup, vector-coverable.

    Every piece sits inside the vector lowering's coverage rules: both
    steps are stored relations, the join keys on one column each side,
    the filter compares one column against a constant, and the distinct
    projection reads plain attributes — so ``executor="vector"`` runs it
    end to end in id space (int-id hash probe, LUT filter, id-tuple
    dedup) while ``batch`` and ``rowbatch`` run the same plan over
    object rows.  Fact keys are cubically skewed and the projection is
    narrow, so dedup does real work.
    """
    import random as _random

    from ..types import INTEGER, STRING, record, relation_type

    rng = _random.Random(seed)
    fact = record("vfactrec", fk=STRING, seq=INTEGER, v=INTEGER)
    dimension = record("vdimrec", k=STRING, grp=STRING, w=INTEGER)

    db = Database("e20vec")
    db.declare(
        "Fact",
        relation_type("vfactrel", fact),
        {
            (f"p{int(dim * rng.random() ** 3)}", i, rng.randrange(200))
            for i in range(rows)
        },
    )
    db.declare(
        "Dim",
        relation_type("vdimrel", dimension),
        {(f"p{i}", f"g{i % 64}", rng.randrange(1000)) for i in range(dim)},
    )
    query = d.query(
        d.branch(
            d.each("f", "Fact"), d.each("g", "Dim"),
            pred=d.and_(
                d.eq(d.a("f", "fk"), d.a("g", "k")),
                d.ge(d.a("g", "w"), 500),
            ),
            targets=[d.a("g", "grp"), d.a("f", "v")],
        )
    )
    return db, query


def e20_vectors(sizes=(10_000, 100_000, 1_000_000)) -> Table:
    """Typed vectors vs the object-row executors on a join/filter grid.

    The same compiled plan runs per grid size under ``rowbatch``
    (row-major pipelines), ``batch`` (columnar object rows — the
    default) and ``vector`` (the numpy int-id kernels) — identical
    answers required everywhere.  The acceptance bar is >=3x for
    ``vector`` over ``batch`` at >=100k rows.  Where numpy does not
    import, ``vector`` *is* the batch pipeline and the ratio reads ~1;
    ``numpy_available`` records which of the two was measured.
    """
    from ..relational.vectors import get_numpy

    table = Table(
        "E20 Typed vectors: dictionary-encoded kernels vs object rows",
        ["rows", "|result|", "rowbatch (s)", "batch (s)", "vector (s)",
         "speedup vs batch", "equal"],
    )

    for rows in sizes:
        db, query = e20_vectors_case(rows=rows)
        plan = compile_query(db, query)
        repeat = 3 if rows <= 100_000 else 2

        def run(executor):
            return plan.execute(ExecutionContext(db), executor=executor)

        rows_rb, t_rb = measure(lambda: run("rowbatch"), repeat=repeat)
        rows_batch, t_batch = measure(lambda: run("batch"), repeat=repeat)
        rows_vec, t_vec = measure(lambda: run("vector"), repeat=repeat)
        equal = rows_vec == rows_batch == rows_rb
        speedup = ratio(t_batch, t_vec)
        table.add(rows, len(rows_vec), t_rb, t_batch, t_vec,
                  f"{speedup:.1f}x", equal)
        if rows == 100_000:
            table.metric("vector_speedup_100k", speedup)
    table.metric("numpy_available", 1.0 if get_numpy() is not None else 0.0)

    table.note("acceptance bar: vector >= 3x over batch at >= 100k rows "
               "with identical results across all three executors")
    table.note("per-size plans are compiled once and shared across "
               "executors; encoded tables and dictionaries are the "
               "relations' version-cached views, so vector timings "
               "include translation/LUT/probe-structure build")
    return table


E21_SCHEMA = """
TYPE erec = RECORD name, dept: STRING; sal: INTEGER END;
     erel = RELATION name OF erec;
     prec = RECORD parent, child: STRING END;
     prel = RELATION parent, child OF prec;
VAR Emp: erel; Par: prel;
"""

E21_SAL = "{EACH e IN Emp: e.sal > %d}"
E21_DEPT = '{EACH e IN Emp: e.dept = "d%d"}'
E21_JOIN = (
    "{<e.name, p.child> OF EACH e IN Emp, EACH p IN Par: "
    "e.dept = p.parent AND e.sal > %d}"
)


def _e21_emp_rows(rows: int, depts: int, seed: int = 31) -> list[tuple]:
    import random as _random

    rng = _random.Random(seed)
    return [
        (f"e{i:05d}", f"d{i % depts}", rng.randrange(200))
        for i in range(rows)
    ]


def e21_ivm_case(rows=3_000, depts=40, seed=31):
    """A session with an employee table sized for many standing filters.

    ``Emp`` carries ``rows`` employees over ``depts`` departments with
    salaries in [0, 200); ``Par`` maps each department to a small set of
    teams so join-shaped subscriptions have a second (unmutated) side.
    """
    session = Session()
    session.execute(E21_SCHEMA)
    session.insert("Emp", _e21_emp_rows(rows, depts, seed))
    session.insert(
        "Par", [(f"d{i}", f"t{i % 7}") for i in range(depts)]
    )
    return session


def e21_sources(count: int) -> list[str]:
    """``count`` distinct standing-query sources over the E21 schema.

    A 10-query cycle: six salary filters with rotating thresholds, three
    department filters, one department join with a salary bound — the
    shapes a serving tier would keep alive per dashboard panel.
    """
    sources = []
    for i in range(count):
        slot = i % 10
        if slot < 6:
            sources.append(E21_SAL % ((i * 7) % 200))
        elif slot < 9:
            sources.append(E21_DEPT % (i % 40))
        else:
            sources.append(E21_JOIN % ((i * 13) % 200))
    return sources


def e21_stream(rows=3_000, depts=40, batches=13, k=8, seed=87):
    """A deterministic mixed insert/delete stream over the E21 table.

    Each batch inserts ``k`` fresh employees and deletes ``k`` live ones
    (later batches may delete earlier batches' inserts).  The same list
    replays identically on twin sessions.
    """
    import random as _random

    rng = _random.Random(seed)
    live = _e21_emp_rows(rows, depts)
    stream = []
    next_id = rows
    for _ in range(batches):
        inserted = [
            (f"e{next_id + j:05d}", f"d{rng.randrange(depts)}",
             rng.randrange(200))
            for j in range(k)
        ]
        next_id += k
        deleted = rng.sample(live, k)
        for row in deleted:
            live.remove(row)
        live.extend(inserted)
        stream.append((inserted, deleted))
    return stream


def e21_ivm(sub_counts=(100, 1_000), rows=3_000, batches=13, k=8) -> Table:
    """Standing queries: incremental maintenance vs re-execute-per-batch.

    ``sub_counts`` standing queries subscribe against twin sessions; the
    same mixed insert/delete stream replays on both.  The maintained
    side pays only the write path (counting deltas inside the commit,
    one differential run per family of same-shape sources rather than
    per subscription); the re-execute side re-runs every source through
    ``Session.query`` after every batch — what a serving tier without
    subscriptions would do to keep the same panels fresh.  Batch 0 is an
    untimed warm-up on both sides (differential-plan compilation there,
    plan-cache priming here), so the quotient compares steady states.
    The acceptance bar is >=5x at 1k standing queries with bit-identical
    final answers.
    """
    import time as _time

    table = Table(
        "E21 Standing queries: incremental maintenance vs re-execution "
        f"({batches - 1} timed batches of +{k}/-{k} rows)",
        ["standing queries", "|Emp|", "ivm (s)", "re-exec (s)",
         "ms/batch ivm", "ms/batch re-exec", "speedup", "recomputes",
         "equal"],
    )

    for count in sub_counts:
        sources = e21_sources(count)
        stream = e21_stream(rows=rows, batches=batches, k=k)
        warmup, timed = stream[0], stream[1:]

        ivm = e21_ivm_case(rows=rows)
        subs = [ivm.subscribe(source) for source in sources]
        ivm.insert("Emp", warmup[0])
        ivm.db.relation("Emp").delete(warmup[1])
        start = _time.perf_counter()
        for inserted, deleted in timed:
            ivm.insert("Emp", inserted)
            ivm.db.relation("Emp").delete(deleted)
        t_ivm = _time.perf_counter() - start

        reexec = e21_ivm_case(rows=rows)
        reexec.insert("Emp", warmup[0])
        reexec.db.relation("Emp").delete(warmup[1])
        answers = [reexec.query(source) for source in sources]
        start = _time.perf_counter()
        for inserted, deleted in timed:
            reexec.insert("Emp", inserted)
            reexec.db.relation("Emp").delete(deleted)
            answers = [reexec.query(source) for source in sources]
        t_reexec = _time.perf_counter() - start

        equal = all(
            sub.rows() == answer for sub, answer in zip(subs, answers)
        )
        recomputes = sum(sub.recomputes for sub in subs)
        speedup = ratio(t_reexec, t_ivm)
        table.add(count, rows, t_ivm, t_reexec,
                  t_ivm * 1e3 / len(timed), t_reexec * 1e3 / len(timed),
                  f"{speedup:.1f}x", recomputes, equal)
        if count == max(sub_counts):
            table.metric("ivm_speedup", speedup)
            table.metric("ivm_ms_per_batch", t_ivm * 1e3 / len(timed))
            table.metric("reexec_ms_per_batch",
                         t_reexec * 1e3 / len(timed))
        for sub in subs:
            sub.close()

    table.note("acceptance bar: maintaining 1k standing queries under "
               "the mixed stream >= 5x faster than re-executing each "
               "per batch, final answers bit-identical")
    table.note("sources differing only in compared constants form one "
               "family: one DeltaState per commit, one differential run per "
               "family over the delta joined with its parameter relation "
               "(one row per subscriber's constants); per-subscription "
               "work is folding that subscriber's derivations into its "
               "counts, so the maintained side scales with delta size and "
               "matches, not |Emp| or the subscriber count")
    table.note("`recomputes` stays 0: every source is delta-maintainable "
               "(binding ranges only), so no subscription fell back to "
               "full re-evaluation")
    return table


def e22_storage_db(rows=20_000, seed=43) -> Database:
    """The E22 on-disk table: ``People(name, age, city)``.

    Rows are generated sorted by name, so the spiller's partitioner
    produces clustered per-partition name ranges and min/max pruning
    has something to bite on — the layout a sorted bulk load leaves
    behind.
    """
    import random as _random

    from ..types import INTEGER, STRING, record, relation_type

    rng = _random.Random(seed)
    person = record("e22person", name=STRING, age=INTEGER, city=STRING)
    db = Database("e22")
    db.declare(
        "People",
        relation_type("e22people", person, key=("name",)),
        [
            (f"p{i:06d}", rng.randrange(90), f"c{rng.randrange(50)}")
            for i in range(rows)
        ],
    )
    return db


def e22_storage(rows=20_000, rows_per_partition=1_000) -> Table:
    """Out-of-core columnar storage: scan-time pushdown vs materialize.

    One table is spilled into ``rows // rows_per_partition`` columnar
    partitions, reopened cold, and scanned three ways — full
    materialization (every page of every partition), a selective
    identity scan (min/max pruning skips partitions), and a selective
    single-column projection (pruning plus dead-column page skips).
    The reader's decode counters are deterministic, so the ratios gate
    byte-identically across machines.  The sweep also checks the
    persisted-statistics acceptance bar: a freshly reopened database
    compiles the same join shape as the warm one without a single scan.
    """
    import shutil as _shutil
    import tempfile as _tempfile
    import time as _time

    from ..relational import open_database

    selective = rows - rows_per_partition  # the last partition only
    ident = f'{{EACH p IN People: p.name >= "p{selective:06d}"}}'
    proj = f'{{<p.city> OF EACH p IN People: p.name >= "p{selective:06d}"}}'

    table = Table(
        f"E22 Out-of-core storage: pushdown vs materialize "
        f"({rows} rows, {rows // rows_per_partition} partitions)",
        ["scan", "parts read", "parts pruned", "rows decoded",
         "cells decoded", "bytes read", "ms", "rows out"],
    )

    warm = e22_storage_db(rows=rows)
    tmp = _tempfile.mkdtemp(prefix="repro-e22-")
    try:
        path = f"{tmp}/e22"
        warm.spill(path, rows_per_partition=rows_per_partition)

        def timed_scan(label, run):
            cold = open_database(path)
            store = cold.relation("People").cold_store
            store.counters.reset()
            start = _time.perf_counter()
            out = run(cold)
            elapsed = _time.perf_counter() - start
            counters = store.counters.snapshot()
            table.add(label, counters["partitions_read"],
                      counters["partitions_pruned"],
                      counters["rows_decoded"], counters["cells_decoded"],
                      counters["bytes_read"], elapsed * 1e3, len(out))
            return out, counters

        _, full = timed_scan(
            "full materialize", lambda db: db.relation("People").rows()
        )
        expected = Session(warm).query(ident)
        ident_rows, _pruned = timed_scan(
            "selective scan", lambda db: Session(db).query(ident)
        )
        assert ident_rows == expected, "pruned scan diverged"
        proj_rows, projected = timed_scan(
            "selective projection", lambda db: Session(db).query(proj)
        )
        assert proj_rows == Session(warm).query(proj), "projection diverged"

        # Persisted stats: the reopened database plans the same join
        # shape as the warm one, and planning touches no partition.
        join = d.query(
            d.branch(
                d.each("a", "People"), d.each("b", "People"),
                pred=d.eq(d.a("a", "city"), d.a("b", "city")),
                targets=[d.a("a", "name"), d.a("b", "name")],
            )
        )

        def shape(plan):
            return [
                [step.source.describe() for step in branch.steps]
                for branch in plan.branches
            ]

        reopened = open_database(path)
        cold_plan = compile_query(reopened, join)
        plans_match = (
            shape(cold_plan) == shape(compile_query(warm, join))
            and reopened.relation("People").is_cold
        )
        assert plans_match, "reopened database planned differently"
    finally:
        _shutil.rmtree(tmp, ignore_errors=True)

    table.metric("storage_cells_scan_ratio",
                 ratio(full["cells_decoded"], projected["cells_decoded"]))
    table.metric("storage_rows_scan_ratio",
                 ratio(full["rows_decoded"], projected["rows_decoded"]))
    table.metric("storage_bytes_scan_ratio",
                 ratio(full["bytes_read"], projected["bytes_read"]))
    table.metric("storage_pushdown_rows_scanned", projected["rows_decoded"])
    table.metric("storage_plans_match", 1.0 if plans_match else 0.0)
    table.note("acceptance bar: the selective projection decodes >= 5x "
               "fewer rows, cells, and bytes than full materialization; "
               "decode counters are deterministic, so the *_scan_ratio "
               "metrics gate exactly")
    table.note("a freshly reopened database compiled the same join "
               "shape as the warm one from persisted statistics alone — "
               "every relation still cold afterwards")
    return table


#: Registry used by run_all and the benchmark files.
ALL_EXPERIMENTS = {
    "e01": e01_selectors,
    "e02": e02_constructor_basics,
    "e03": e03_lfp_convergence,
    "e04": e04_mutual_recursion,
    "e05": e05_semantics,
    "e06": e06_positivity,
    "e07": e07_equivalence,
    "e08": e08_set_vs_proof,
    "e08b": e08b_point_query,
    "e09": e09_pushdown,
    "e10": e10_quantgraph,
    "e11": e11_access_paths,
    "e12": e12_range_nesting,
    "e13": e13_specialization,
    "e14": e14_planner,
    "e15": e15_reopt,
    "e16": e16_batched,
    "e17": e17_columnar,
    "e18": e18_sharded,
    "e19": e19_serving,
    "e20": e20_vectors,
    "e21": e21_ivm,
    "e22": e22_storage,
}
