"""The five workloads of the lifecycle benchmark.

Each workload owns its seeded input generator, one fixed list of
operations (a *chunk*) described as plain tuples, the binding of those
tuples to the system's **public** API, and a hand-written pure-Python
model that says what every read must return.  Nothing here imports the
repo's own generators (``repro.workloads``, ``repro.bench``): a refactor
of ``src/`` must not be able to change the traffic.

Inputs are built so that the *amount of work* does not depend on the
seed: structures (fan-outs, group sizes, graph shapes) are fixed and the
seed permutes labels, row order and the drawn constants.  Two seeds give
different inputs but statistically the same load, which is what keeps
the seed-to-seed spread of the metrics small.

A chunk always ends in the state it started from (writes are undone by
``restore``), so every repetition of a chunk sees identical data and
every count repeats exactly.

Op tuples (first two fields are ``op`` and ``label``):

``("query", label, text, key)``
    ``Session.query(text)`` — a fresh text through the front door.
``("prepared", label, handle, constants, key)``
    ``PreparedQuery.execute(*constants)`` on ``Session.prepare(...)``.
``("insert" | "delete", label, relation, rows)``
    One commit: ``Session.insert`` / ``Relation.delete``.
``("datalog", label, edges, key)``
    ``DatalogEngine(program, {"edge": edges}).solve(mode="compiled")``.
``("cold", label, text, key)``
    ``Session(open_database(path)).query(text)`` on a fresh handle.
``("coldinsert", label, relation, rows)``
    The first commit on a fresh cold handle.

``key`` names the read for the model (``Workload.model_read``).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import partial

from repro.compiler.options import ExecOptions
from repro.datalog.engine import DatalogEngine
from repro.datalog.parser import parse_program
from repro.dbpl import Session
from repro.relational import open_database

from harness import Op

SIZES = ("full", "quick", "small")


@dataclass
class Instance:
    """One set-up of a workload: a loaded session plus what rides on it."""

    session: Session
    handles: dict = field(default_factory=dict)
    subs: list = field(default_factory=list)
    path: str | None = None
    #: Change-feed events drained so far (standing_writes).
    events: int = 0


def _index(rows, pos: int) -> dict:
    out: dict = {}
    for row in rows:
        out.setdefault(row[pos], []).append(row)
    return out


def _zipf_quota(keys: list[str], draws: int) -> list[str]:
    """``draws`` keys in rank order, rank r taking a share ∝ 1/(r+1) —
    exact quotas (largest remainders), not random draws."""
    weights = [1.0 / (rank + 1) for rank in range(len(keys))]
    scale = draws / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(keys)), key=lambda r: counts[r] - weights[r] * scale)
    for rank in by_remainder[: draws - sum(counts)]:
        counts[rank] += 1
    return [key for key, count in zip(keys, counts) for _ in range(count)]


class Workload:
    """Seeded inputs + one chunk of ops + the model of its reads."""

    name = ""
    why = ""
    #: Fresh instances set up per run (samples of ``setup_s`` and of
    #: ``first_query_p50_ms``).
    setups = 3
    schema = ""
    #: Relations in bulk-load order.
    load_order: tuple[str, ...] = ()
    #: What the single-layer probes of the traced run aim at (set by
    #: ``generate``): ``(relation, attrs)`` to index and encode,
    #: ``(relation, fresh rows)`` to insert and delete, and ``(relation,
    #: projection, selection)`` for a selective ``RelationStore.scan``.
    probe_index: tuple = ()
    probe_rows: tuple = ()
    probe_scan: tuple = ()

    def __init__(self, seed: int, size: str = "full", options: ExecOptions | None = None):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        self.seed = seed
        self.size = size
        #: Session-level execution options (None = the default path;
        #: ``ExecOptions(executor="tuple")`` when writing ``expected/``).
        self.options = options
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tables: dict[str, list[tuple]] = {}
        self.specs: list[tuple] = []
        self.generate()

    # -- to override ---------------------------------------------------------

    def generate(self) -> None:
        """Fill ``self.tables`` and ``self.specs`` from ``self.rng``."""
        raise NotImplementedError

    def model_reset(self) -> None:
        """(Re)build the model's indexed state from ``self.tables``."""
        raise NotImplementedError

    def model_write(self, op: str, relation: str, rows) -> None:
        raise NotImplementedError

    def model_read(self, key) -> set:
        raise NotImplementedError

    def first_calls(self, inst: Instance) -> list[tuple[str, object]]:
        """``(label, callable)`` per distinct shape: its first call ever on
        a freshly set-up instance (cold plan cache, no index built)."""
        raise NotImplementedError

    def after_load(self, inst: Instance, workdir: str) -> None:
        """Set-up steps after the bulk load (prepare / subscribe / spill)."""

    def finish(self, inst: Instance) -> tuple[int, list[str]]:
        """End-of-run checks on the live instance: ``(checks made,
        failure notes)``."""
        return 0, []

    def scans(self, key) -> list[tuple]:
        """The pushed-down ``RelationStore.scan`` calls behind one cold read
        (``(relation, projection, selection)``): the traced run's estimate
        of the store's share of plan execution.  Only cold_scan reads cold."""
        return []

    # -- shared machinery ----------------------------------------------------

    def new_session(self) -> Session:
        return Session(options=self.options)

    def loaded_session(self) -> Session:
        """A fresh session with the schema declared and the tables loaded."""
        session = self.new_session()
        session.execute(self.schema)
        for name in self.load_order:
            session.assign(name, self.tables[name])
        return session

    def setup(self, workdir: str) -> Instance:
        """Schema + bulk load + workload-specific set-up, public API only.
        This whole call is what ``setup_s`` times."""
        inst = Instance(self.loaded_session())
        self.after_load(inst, workdir)
        return inst

    def bind(self, inst: Instance, spec: tuple) -> Op:
        op, label = spec[0], spec[1]
        session = inst.session
        if op == "query":
            return Op("read", label, partial(session.query, spec[2]))
        if op == "prepared":
            return Op("read", label, partial(inst.handles[spec[2]].execute, *spec[3]))
        if op == "insert":
            return Op("write", label, partial(session.insert, spec[2], spec[3]))
        if op == "delete":
            return Op("write", label, partial(session.relation(spec[2]).delete, spec[3]))
        if op == "datalog":
            return Op("read", label, partial(self._datalog, spec[2]))
        if op == "cold":
            return Op("read", label, partial(self._cold_query, inst.path, spec[2]))
        if op == "coldinsert":
            return Op("write", label, partial(self._cold_insert, inst.path, spec[2], spec[3]))
        raise ValueError(f"unknown op {op!r}")

    def chunk(self, inst: Instance) -> list[Op]:
        return [self.bind(inst, spec) for spec in self.specs]

    def _datalog(self, edges):
        engine = DatalogEngine(self.program, {"edge": edges})
        return engine.solve(mode="compiled", options=self.options)["path"]

    def _cold_session(self, path: str) -> Session:
        return Session(open_database(path), options=self.options)

    def _cold_query(self, path: str, text: str):
        return self._cold_session(path).query(text)

    def _cold_insert(self, path: str, relation: str, rows) -> None:
        self._cold_session(path).insert(relation, rows)

    def expected(self) -> list:
        """The model's answer per op of the chunk (None for writes), plus —
        as ``self.net`` — the net effect of the chunk's writes per relation
        (``(to_delete, to_insert)``) that ``restore`` undoes."""
        self.model_reset()
        written = {spec[2] for spec in self.specs if spec[0] in ("insert", "delete")}
        initial = {relation: set(self.tables[relation]) for relation in written}
        live = {relation: set(rows) for relation, rows in initial.items()}
        out: list = []
        for spec in self.specs:
            op = spec[0]
            if op in ("insert", "delete"):
                relation, rows = spec[2], spec[3]
                self.model_write(op, relation, rows)
                (live[relation].update if op == "insert" else live[relation].difference_update)(rows)
                out.append(None)
            elif op == "coldinsert":
                out.append(None)  # the handle is discarded: no lasting effect
            else:
                out.append(self.model_read(spec[-1]))
        self.net = {
            relation: (sorted(live[relation] - initial[relation]),
                       sorted(initial[relation] - live[relation]))
            for relation in sorted(written)
        }
        return out

    def restore(self, inst: Instance) -> None:
        """Undo the chunk's net writes (untimed), so the next repetition
        starts from the loaded state."""
        for relation, (extra, missing) in sorted(self.net.items()):
            if extra:
                inst.session.relation(relation).delete(extra)
            if missing:
                inst.session.insert(relation, missing)

    def oracle_check(self, workdir: str) -> tuple[int, list[str]]:
        """Default path vs the reference evaluator on this (small) instance.

        Returns ``(reads compared, failure notes)``.  Only meaningful at
        ``size="small"``: the interpreted evaluator is tuple-at-a-time
        nested loops (≈400x slower on fixpoints).
        """
        inst = self.setup(workdir)
        session = inst.session
        notes: list[str] = []
        seen: set = set()
        for spec in self.specs:
            op, label = spec[0], spec[1]
            if op in ("insert", "delete"):
                self.bind(inst, spec).call()
                continue
            if op == "coldinsert" or (op, spec[-1]) in seen:
                continue
            seen.add((op, spec[-1]))
            got = self.bind(inst, spec).call()
            if op == "query":
                want = session.query(spec[2], mode="interpreted")
            elif op == "prepared":
                want = session.query(self.templates[spec[2]] % spec[3], mode="interpreted")
            elif op == "datalog":
                want = DatalogEngine(self.program, {"edge": spec[2]}).solve(mode="seminaive")["path"]
            else:
                want = self._cold_session(inst.path).query(spec[2], mode="interpreted")
            if set(got) != set(want):
                notes.append(f"oracle mismatch on {label} {spec[-1]!r}")
        for sub in inst.subs:
            sub.close()
        return len(seen), notes


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

SERVE_SCHEMA = """
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

POINT = '{<f.seq, f.tag> OF EACH f IN Fact: f.fk = "%s"}'
JOIN2 = (
    '{<f.seq, g.grp, g.w> OF EACH f IN Fact, EACH g IN Dim: '
    'f.fk = g.k AND g.k = "%s"}'
)
JOIN3 = (
    "{<f.seq, g.w, h.note, g2.k> OF "
    "EACH f IN Fact, EACH g IN Dim, EACH h IN Ann, EACH g2 IN Dim: "
    'f.fk = g.k AND g.grp = h.grp AND h.grp = g2.grp '
    'AND f.fk = "%s" AND g2.w < %d}'
)


class ServeMixed(Workload):
    name = "serve_mixed"
    why = (
        "served point/2-way/3-step reads as fresh text with 15% single-row "
        "inserts: the front door (parser, analysis, serving) does the work"
    )
    setups = 12
    schema = SERVE_SCHEMA
    load_order = ("Fact", "Dim", "Ann")
    dims = {"full": (1600, 400, 20, 2400), "quick": (400, 40, 10, 120), "small": (90, 12, 4, 30)}

    def generate(self) -> None:
        rng = self.rng
        facts, dims, anns, ops = self.dims[self.size]
        keys = [f"k{i}" for i in range(dims)]
        rng.shuffle(keys)
        self.keys = keys
        fact = [(i, keys[i % dims], f"t{rng.randrange(6)}") for i in range(facts)]
        rng.shuffle(fact)
        self.tables = {
            "Fact": fact,
            "Dim": [(key, f"g{j % anns}", rng.randrange(100)) for j, key in enumerate(keys)],
            "Ann": [(f"g{j}", f"note{j}") for j in range(anns)],
        }
        # 36/32/17/15 with exact counts in a seeded order.  Constants follow
        # a Zipf law over the keys by *quota* (rank r is used ~1/(r+1) of
        # the time, the same number of times under every seed), so the
        # number of distinct texts - what the text-keyed analysis cache
        # sees - does not depend on the seed.
        #
        # Why 15 % inserts and not 10: an insert drops Fact's index, so the
        # read after it pays the rebuild.  With w % inserts, w % of the
        # reads are such reads; at w = 10 the 90th percentile sits exactly
        # on the cliff between the two populations and flips between them
        # from run to run.  At 15 % read_p90_ms is firmly "a read right
        # after a write", which is what it is meant to show.
        seq = 1_000_000
        self.specs = []
        for kind, share in (("point", 36), ("join2", 32), ("join3", 17), ("insert", 15)):
            for n, key in enumerate(_zipf_quota(keys, ops * share // 100)):
                if kind == "point":
                    self.specs.append(("query", kind, POINT % key, ("point", key)))
                elif kind == "join2":
                    self.specs.append(("query", kind, JOIN2 % key, ("join2", key)))
                elif kind == "join3":
                    bound = (20, 30, 40)[n % 3]
                    self.specs.append(("query", kind, JOIN3 % (key, bound), ("join3", key, bound)))
                else:
                    seq += 1
                    row = (seq, key, f"t{rng.randrange(6)}")
                    self.specs.append(("insert", "insert", "Fact", [row]))
        rng.shuffle(self.specs)
        self.probe_index = ("Fact", ("fk",))
        self.probe_rows = ("Fact", [(2_000_000 + i, keys[0], "t0") for i in range(8)])
        self.probe_scan = ("Fact", (0, 2), ((1, "=", ("const", keys[0])),))

    def first_calls(self, inst):
        k0, k1, k2 = self.keys[:3]
        query = inst.session.query
        return [
            ("point", partial(query, POINT % k0)),
            ("join2", partial(query, JOIN2 % k1)),
            ("join3", partial(query, JOIN3 % (k2, 30))),
        ]

    def model_reset(self) -> None:
        self.m_fact = {}
        for seq, fk, tag in self.tables["Fact"]:
            self.m_fact.setdefault(fk, set()).add((seq, tag))
        self.m_dim = {k: (grp, w) for k, grp, w in self.tables["Dim"]}
        self.m_dim_by_grp = _index(self.tables["Dim"], 1)
        self.m_ann = _index(self.tables["Ann"], 0)

    def model_write(self, op, relation, rows) -> None:
        for seq, fk, tag in rows:
            bucket = self.m_fact.setdefault(fk, set())
            (bucket.add if op == "insert" else bucket.discard)((seq, tag))

    def model_read(self, key) -> set:
        shape, fk = key[0], key[1]
        facts = self.m_fact.get(fk, ())
        if shape == "point":
            return set(facts)
        grp, w = self.m_dim[fk]
        if shape == "join2":
            return {(seq, grp, w) for seq, _ in facts}
        bound = key[2]
        return {
            (seq, w, note, k2)
            for seq, _ in facts
            for _, note in self.m_ann.get(grp, ())
            for k2, _, w2 in self.m_dim_by_grp.get(grp, ())
            if w2 < bound
        }


# ---------------------------------------------------------------------------
# analytic_join
# ---------------------------------------------------------------------------

ANALYTIC_SCHEMA = """
MODULE analytic;
TYPE name    = STRING;
     factrec = RECORD fk: name; seq, v: INTEGER END;
     factrel = RELATION seq OF factrec;
     dimrec  = RECORD k, grp: name; w: INTEGER END;
     dimrel  = RELATION k OF dimrec;
     linkrec = RECORD parent, child: name; qty: INTEGER END;
     linkrel = RELATION ... OF linkrec;
     partrec = RECORD pid, kind: name; wt: INTEGER END;
     partrel = RELATION pid OF partrec;
     rulerec = RECORD kind: name; wt: INTEGER END;
     rulerel = RELATION ... OF rulerec;
     bomrec  = RECORD part, sub: name; qty: INTEGER END;
     bomrel  = RELATION ... OF bomrec;
VAR Fact: factrel; Dim: dimrel;
    Links: linkrel; Parts: partrel; Rules: rulerel;
    Contains: bomrel;
END analytic.
"""

SKEW_JOIN = (
    "{<g.grp, f.v> OF EACH f IN Fact, EACH g IN Dim: "
    "f.fk = g.k AND g.w >= %d}"
)
QUANT_JOIN = (
    "{<l.parent, p.kind, p.wt> OF EACH l IN Links, EACH p IN Parts: "
    "l.child = p.pid AND p.wt >= %d AND "
    "ALL r IN Rules (r.kind <> p.kind OR r.wt <= p.wt)}"
)
BOM_PATHS = (
    "{<c1.part, c4.sub> OF EACH c1 IN Contains, EACH c2 IN Contains, "
    "EACH c3 IN Contains, EACH c4 IN Contains: "
    "c1.sub = c2.part AND c2.sub = c3.part AND c3.sub = c4.part "
    "AND c1.qty >= %d}"
)


def skewed_fact(rng, rows: int, keys: list[str], v_range: int, first_seq: int = 0):
    """``(fk, seq, v)`` rows with cubically skewed keys: rank r of ``keys``
    is drawn with density ∝ r^(-2/3) (about 6 % of rows on rank 0)."""
    n = len(keys)
    return [
        (keys[int(n * rng.random() ** 3)], first_seq + i, rng.randrange(v_range))
        for i in range(rows)
    ]


def ranked_dim(keys: list[str], groups: int):
    """``(k, grp, w)`` with ``w`` a fixed function of the key's skew rank,
    so which heavy keys pass a ``w >=`` filter does not depend on the seed."""
    return [(key, f"g{r % groups}", (r * 617 + 311) % 1000) for r, key in enumerate(keys)]


def bom_forest(rng, assemblies: int, depth: int, fanout: int = 4):
    """``(part, sub, qty)`` edges of a forest whose *shape* is fixed
    (fan-out 1..``fanout`` by a fixed function of the node counter) and
    whose part labels and quantities are seeded."""
    shape: list[tuple[int, int]] = []
    counter = 0
    frontier = list(range(assemblies))
    counter = assemblies
    for level in range(depth):
        nxt = []
        for node in frontier:
            for _ in range(1 + (node * 7 + level * 3) % fanout):
                shape.append((node, counter))
                nxt.append(counter)
                counter += 1
        frontier = nxt
    labels = [f"p{i}" for i in range(counter)]
    rng.shuffle(labels)
    edges = [(labels[a], labels[b], rng.randrange(10)) for a, b in shape]
    rng.shuffle(edges)
    return edges


class AnalyticJoin(Workload):
    name = "analytic_join"
    why = (
        "three prepared plans over 100k/24k/24k-row inputs re-executed with "
        "rotating constants: operators, executors, indexes do the work; "
        "the front door does none"
    )
    setups = 4
    schema = ANALYTIC_SCHEMA
    load_order = ("Fact", "Dim", "Links", "Parts", "Rules", "Contains")
    # fact rows, dim rows, links, parts, rules, (bom assemblies, depth), read rounds, write batch
    dims = {
        "full": (100_000, 4000, 24_000, 4000, 12, (24, 7), 2, 32),
        "quick": (4000, 200, 1200, 200, 12, (6, 5), 1, 16),
        "small": (120, 12, 60, 16, 8, (1, 4), 1, 4),
    }
    templates = {"skew": SKEW_JOIN, "quant": QUANT_JOIN, "bom": BOM_PATHS}
    constants = {
        "skew": ((300,), (400,), (500,), (600,)),
        "quant": ((4,), (8,), (12,)),
        "bom": ((0,), (2,), (4,)),
    }
    #: Batch appends to Fact at the tail of the chunk.
    writes = 8

    def generate(self) -> None:
        rng = self.rng
        facts, dims, links, parts, rules, (assemblies, depth), rounds, batch = self.dims[self.size]
        keys = [f"p{i}" for i in range(dims)]
        rng.shuffle(keys)
        self.keys = keys
        pids = [f"q{i}" for i in range(parts)]
        rng.shuffle(pids)
        kinds = 40
        self.tables = {
            "Fact": skewed_fact(rng, facts, keys, 200),
            "Dim": ranked_dim(keys, 64),
            "Links": sorted({
                (pids[rng.randrange(parts)], pids[rng.randrange(parts)], i % 7)
                for i in range(links)
            }),
            # The ALL residual is evaluated once per part that passes the
            # weight filter, against every rule: parts x rules sizes the
            # quantifier's share of the op (kept below the join's).
            "Parts": [(pid, f"k{r % kinds}", (r * 7) % 20) for r, pid in enumerate(pids)],
            "Rules": sorted({(f"k{rng.randrange(kinds)}", rng.randrange(16)) for _ in range(rules)}),
            # The reference evaluator runs the 4-way self-join as four
            # nested loops: the oracle instance gets a dozen edges.
            "Contains": bom_forest(rng, assemblies, depth, 3 if self.size == "small" else 4),
        }
        # Reads round-robin over the three plans with rotating constants:
        # per round 4 skew + 3 quant + 3 bom executions.
        self.specs = []
        for _ in range(rounds):
            for i in range(4):
                for handle in ("skew", "quant", "bom"):
                    consts = self.constants[handle]
                    if i < len(consts):
                        self.specs.append(
                            ("prepared", handle, handle, consts[i], (handle,) + consts[i])
                        )
        seq = 10_000_000
        for _ in range(self.writes):
            rows = skewed_fact(rng, batch, keys, 200, first_seq=seq)
            seq += batch
            self.specs.append(("insert", "append", "Fact", rows))
        self.probe_index = ("Fact", ("fk",))
        self.probe_rows = ("Fact", [(keys[0], 20_000_000 + i, 1) for i in range(8)])
        self.probe_scan = ("Fact", (0, 2), ((0, "=", ("const", keys[0])),))

    def after_load(self, inst, workdir) -> None:
        for handle, template in self.templates.items():
            inst.handles[handle] = inst.session.prepare(template % self.constants[handle][0])

    def first_calls(self, inst):
        # after_load already compiled the shapes on this instance; the
        # cold start of a shape is prepare + first execute on a session
        # whose plan cache is empty, so use a second session over the
        # same (index-less until now) database.
        session = Session(inst.session.db, options=self.options)
        return [
            (handle, partial(self._prepare_and_run, session, template % self.constants[handle][1]))
            for handle, template in self.templates.items()
        ]

    @staticmethod
    def _prepare_and_run(session, text):
        return session.prepare(text).execute()

    def restore(self, inst) -> None:
        super().restore(inst)
        # The appends dropped Fact's indexes and row list; rebuild them
        # outside the timed window so reads measure the executors only.
        inst.handles["skew"].execute()

    def model_reset(self) -> None:
        self.m_fact = list(self.tables["Fact"])
        self.m_version = 0
        self.m_cache = {}
        t = self.tables
        self.m_parts = {pid: (kind, wt) for pid, kind, wt in t["Parts"]}
        self.m_rule_max = {}
        for kind, wt in t["Rules"]:
            self.m_rule_max[kind] = max(wt, self.m_rule_max.get(kind, wt))
        self.m_bom = _index(t["Contains"], 0)

    def model_write(self, op, relation, rows) -> None:
        if op == "insert":
            self.m_fact.extend(rows)
        else:
            gone = set(rows)
            self.m_fact = [row for row in self.m_fact if row not in gone]
        self.m_version += 1

    def model_read(self, key) -> set:
        cached = self.m_cache.get((key, self.m_version))
        if cached is None:
            cached = self.m_cache[(key, self.m_version)] = self._model(key)
        return cached

    def _model(self, key) -> set:
        shape, bound = key
        t = self.tables
        if shape == "skew":
            grp_of = {k: grp for k, grp, w in t["Dim"] if w >= bound}
            return {(grp_of[fk], v) for fk, _, v in self.m_fact if fk in grp_of}
        if shape == "quant":
            out = set()
            for parent, child, _ in t["Links"]:
                kind, wt = self.m_parts[child]
                if wt >= bound and self.m_rule_max.get(kind, wt) <= wt:
                    out.add((parent, kind, wt))
            return out
        bom = self.m_bom
        return {
            (c1[0], c4[1])
            for c1 in t["Contains"] if c1[2] >= bound
            for c2 in bom.get(c1[1], ())
            for c3 in bom.get(c2[1], ())
            for c4 in bom.get(c3[1], ())
        }


# ---------------------------------------------------------------------------
# recursive_construct
# ---------------------------------------------------------------------------

RECURSIVE_SCHEMA = """
MODULE recursive;
TYPE node       = STRING;
     edgerec    = RECORD src, dst: node END;
     edgerel    = RELATION ... OF edgerec;
     infrontrec = RECORD front, back: node END;
     infrontrel = RELATION ... OF infrontrec;
     ontoprec   = RECORD top, base: node END;
     ontoprel   = RELATION ... OF ontoprec;
     aheadrec   = RECORD head, tail: node END;
     aheadrel   = RELATION ... OF aheadrec;
     aboverec   = RECORD high, low: node END;
     aboverel   = RELATION ... OF aboverec;
     parentrec  = RECORD child, parent: node END;
     parentrel  = RELATION ... OF parentrec;
     sgrec      = RECORD left, right: node END;
     sgrel      = RELATION ... OF sgrec;

VAR Edge, Cyc: edgerel;
    Infront: infrontrel;
    Ontop: ontoprel;
    Parent: parentrel;
    Sibling: sgrel;

CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <r.src, t.dst> OF EACH r IN Rel, EACH t IN Rel{tc}: r.dst = t.src
END tc;

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

CONSTRUCTOR samegen FOR Rel: sgrel (Parent: parentrel): sgrel;
BEGIN EACH s IN Rel: TRUE,
      <px.child, py.child> OF EACH px IN Parent,
           EACH g IN Rel{samegen(Parent)}, EACH py IN Parent:
           px.parent = g.left AND py.parent = g.right
END samegen;
END recursive.
"""

TC_PROGRAM = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""

RECURSIVE_QUERIES = {
    "tc_dag": "Edge{tc}",
    "tc_cyclic": "Cyc{tc}",
    "ahead": "Infront{ahead(Ontop)}",
    "above": "Ontop{above(Infront)}",
    "samegen": "Sibling{samegen(Parent)}",
}
#: What each read depends on (model cache key).
RECURSIVE_DEPS = {
    "tc_dag": ("Edge",),
    "datalog": ("Edge",),
    "tc_cyclic": ("Cyc",),
    "ahead": ("Infront", "Ontop"),
    "above": ("Infront", "Ontop"),
    "samegen": ("Parent", "Sibling"),
}


def transitive_closure(edges) -> set:
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    out = set()
    for start in succ:
        seen: set = set()
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        out.update((start, node) for node in seen)
    return out


def cad_closure(infront, ontop) -> tuple[set, set]:
    """Least fixpoint of the paper's mutually recursive ahead/above."""
    ahead, above = set(infront), set(ontop)
    while True:
        ah = _index(ahead, 0)
        ab = _index(above, 0)
        new_ahead = set(infront)
        for front, back in infront:
            new_ahead.update((front, tail) for _, tail in ah.get(back, ()))
            new_ahead.update((front, low) for _, low in ab.get(back, ()))
        new_above = set(ontop)
        for top, base in ontop:
            new_above.update((top, low) for _, low in ab.get(base, ()))
            new_above.update((top, tail) for _, tail in ah.get(base, ()))
        if new_ahead == ahead and new_above == above:
            return ahead, above
        ahead, above = new_ahead, new_above


def same_generation(parent, sibling) -> set:
    by_parent = _index(parent, 1)
    out = set(sibling)
    frontier = set(sibling)
    while frontier:
        fresh = set()
        for left, right in frontier:
            for px, _ in by_parent.get(left, ()):
                for py, _ in by_parent.get(right, ()):
                    if (px, py) not in out:
                        fresh.add((px, py))
        out |= fresh
        frontier = fresh
    return out


class RecursiveConstruct(Workload):
    name = "recursive_construct"
    why = (
        "the paper's feature through the front door: recursive and mutually "
        "recursive constructor applications plus compiled Datalog, re-run "
        "after small inserts: fixpoint compile + semi-naive loop do the work"
    )
    setups = 6
    schema = RECURSIVE_SCHEMA
    load_order = ("Edge", "Cyc", "Infront", "Ontop", "Parent", "Sibling")
    # (dag layers, width), (ring, chords), (chain, stack every, stack height), (roots, depth), rounds
    dims = {
        "full": ((10, 30), (200, 400), (48, 4, 3), (4, 6), 2),
        "quick": ((5, 8), (24, 30), (12, 4, 2), (2, 3), 1),
        "small": ((4, 4), (8, 6), (6, 3, 2), (1, 3), 1),
    }
    #: Read order within one round; every read is preceded by a one-row
    #: insert (commits here take ~1 ms against reads of 10-80 ms: thirty
    #: samples per repetition keep their percentiles steady).  The shares keep both percentiles inside one population of
    #: ops instead of on the edge between two: the median read is a DAG
    #: closure (5 of 15), the 90th percentile a cyclic closure (3 of 15,
    #: the slowest fifth).
    round_ops = (
        "tc_dag", "tc_cyclic", "ahead", "tc_dag", "samegen", "datalog",
        "tc_dag", "above", "tc_cyclic", "tc_dag", "ahead", "datalog",
        "tc_dag", "samegen", "tc_cyclic",
    )

    def generate(self) -> None:
        rng = self.rng
        (layers, width), (ring, chords), (chain, every, height), (roots, depth), rounds = self.dims[self.size]
        self.program = parse_program(TC_PROGRAM)

        names = [f"n{i}" for i in range(layers * width)]
        rng.shuffle(names)
        self.dag_layers = [names[l * width:(l + 1) * width] for l in range(layers)]
        edge = set()
        for l in range(layers - 1):
            for i, src in enumerate(self.dag_layers[l]):
                for dst in rng.sample(self.dag_layers[l + 1], min(3, width)):
                    edge.add((src, dst))
                if i % 3 == 0 and l + 2 < layers:
                    edge.add((src, rng.choice(self.dag_layers[l + 2])))

        ring_names = [f"c{i}" for i in range(ring)]
        rng.shuffle(ring_names)
        self.ring = ring_names
        cyc = {(ring_names[i], ring_names[(i + 1) % ring]) for i in range(ring)}
        while len(cyc) < ring + chords:
            a, b = rng.sample(ring_names, 2)
            cyc.add((a, b))

        pieces = [f"f{i}" for i in range(chain)]
        rng.shuffle(pieces)
        self.pieces = pieces
        infront = [(pieces[i], pieces[i + 1]) for i in range(chain - 1)]
        ontop = []
        for s, base in enumerate(pieces[::every]):
            below = base
            for level in range(height):
                item = f"o{s}_{level}"
                ontop.append((item, below))
                below = item

        people = 0
        parent = []
        level_nodes = [f"r{i}" for i in range(roots)]
        for _ in range(depth):
            nxt = []
            for node in level_nodes:
                for _ in range(2):
                    child = f"h{people}"
                    people += 1
                    parent.append((child, node))
                    nxt.append(child)
            level_nodes = nxt
        relabel = [f"h{i}" for i in range(people)]
        rng.shuffle(relabel)
        rename = {f"h{i}": relabel[i] for i in range(people)}
        parent = [(rename[c], rename.get(p, p)) for c, p in parent]
        by_parent = _index(parent, 1)
        sibling = [
            (a, b) for kids in by_parent.values() for a, _ in kids for b, _ in kids if a != b
        ]

        tables = {
            "Edge": sorted(edge), "Cyc": sorted(cyc), "Infront": infront,
            "Ontop": ontop, "Parent": parent, "Sibling": sibling,
        }
        for rows in tables.values():
            rng.shuffle(rows)
        self.tables = tables

        # The op list; edge lists for the Datalog ops are snapshots of
        # the model's Edge at that point of the stream.
        live_edge = set(edge)

        def fresh_row(taken: set, draw) -> tuple:
            """A row the relation does not hold yet: a no-op insert would be
            a cheaper commit, and only under some seeds."""
            row = draw()
            while row in taken:
                row = draw()
            taken.add(row)
            return row

        def draw_edge():
            l = rng.randrange(layers - 1)
            return (rng.choice(self.dag_layers[l]), rng.choice(self.dag_layers[l + 1]))

        self.specs = []
        for n, label in enumerate(self.round_ops * rounds):
            if n % 3 < 2:
                self.specs.append(("insert", "insert", "Edge", [fresh_row(live_edge, draw_edge)]))
            else:
                row = fresh_row(cyc, lambda: tuple(rng.sample(ring_names, 2)))
                self.specs.append(("insert", "insert", "Cyc", [row]))
            if label == "datalog":
                self.specs.append(("datalog", label, sorted(live_edge), ("datalog",)))
            else:
                self.specs.append(("query", label, RECURSIVE_QUERIES[label], (label,)))
        self.probe_index = ("Edge", ("src",))
        self.probe_rows = ("Edge", [(f"y{i}", f"y{i + 1}") for i in range(8)])
        self.probe_scan = ("Edge", (1,), ((0, "=", ("const", names[0])),))

    def first_calls(self, inst):
        calls = [
            (label, partial(inst.session.query, text))
            for label, text in RECURSIVE_QUERIES.items()
        ]
        calls.append(("datalog", partial(self._datalog, self.tables["Edge"])))
        return calls

    def model_reset(self) -> None:
        self.m_state = {name: set(rows) for name, rows in self.tables.items()}
        self.m_version = dict.fromkeys(self.tables, 0)
        self.m_cache = {}

    def model_write(self, op, relation, rows) -> None:
        state = self.m_state[relation]
        (state.update if op == "insert" else state.difference_update)(rows)
        self.m_version[relation] += 1

    def model_read(self, key) -> set:
        label = key[0]
        stamp = (label,) + tuple(self.m_version[r] for r in RECURSIVE_DEPS[label])
        cached = self.m_cache.get(stamp)
        if cached is None:
            cached = self.m_cache[stamp] = self._model(label)
        return cached

    def _model(self, label) -> set:
        s = self.m_state
        if label in ("tc_dag", "datalog"):
            return transitive_closure(s["Edge"])
        if label == "tc_cyclic":
            return transitive_closure(s["Cyc"])
        if label in ("ahead", "above"):
            # One fixpoint yields both relations; keep the sibling too.
            ahead, above = cad_closure(s["Infront"], s["Ontop"])
            stamp = tuple(self.m_version[r] for r in RECURSIVE_DEPS["ahead"])
            self.m_cache[("ahead",) + stamp] = ahead
            self.m_cache[("above",) + stamp] = above
            return ahead if label == "ahead" else above
        return same_generation(s["Parent"], s["Sibling"])


# ---------------------------------------------------------------------------
# standing_writes
# ---------------------------------------------------------------------------

STANDING_SCHEMA = """
MODULE standing;
TYPE name = STRING;
     erec = RECORD name, dept: name; sal: INTEGER END;
     erel = RELATION name OF erec;
     prec = RECORD parent, child: name END;
     prel = RELATION parent, child OF prec;
VAR Emp: erel; Par: prel;

CONSTRUCTOR reach FOR Rel: prel (): prel;
BEGIN EACH r IN Rel: TRUE,
      <r.parent, t.child> OF EACH r IN Rel, EACH t IN Rel{reach}: r.child = t.parent
END reach;
END standing.
"""

SAL = "{EACH e IN Emp: e.sal > %d}"
DEPT = '{EACH e IN Emp: e.dept = "%s"}'
EMP_JOIN = (
    "{<e.name, p.child> OF EACH e IN Emp, EACH p IN Par: "
    "e.dept = p.parent AND e.sal > %d}"
)
REACH = "Par{reach}"


class StandingWrites(Workload):
    name = "standing_writes"
    why = (
        "200 standing queries maintained under 8-row insert and 12-row "
        "delete commits: subscriptions, copy-on-write relations and "
        "stats maintenance do the work (the write-side counterweight)"
    )
    setups = 5
    schema = STANDING_SCHEMA
    load_order = ("Emp", "Par")
    # emp rows, depts, subscriptions, commit groups x 1.5, insert batch rows
    dims = {"full": (3000, 40, 200, 36, 8), "quick": (300, 10, 20, 6, 4), "small": (60, 5, 10, 3, 2)}

    def generate(self) -> None:
        rng = self.rng
        rows, depts, subs, pairs, batch = self.dims[self.size]
        dept_names = [f"d{i}" for i in range(depts)]
        rng.shuffle(dept_names)
        self.depts = dept_names
        emp = [(f"e{i:05d}", dept_names[i % depts], rng.randrange(200)) for i in range(rows)]
        rng.shuffle(emp)
        teams = 7
        par = [(dept, f"t{i % teams}") for i, dept in enumerate(dept_names)]
        par += [(f"t{i}", f"o{i % 3}") for i in range(teams)]
        self.tables = {"Emp": emp, "Par": par}

        # E21's 6:3:1 cycle of standing filters/joins, plus one
        # constructed range.
        self.sources = [REACH]
        for i in range(subs - 1):
            slot = i % 10
            if slot < 6:
                self.sources.append(SAL % ((i * 7) % 200))
            elif slot < 9:
                self.sources.append(DEPT % dept_names[i % depts])
            else:
                self.sources.append(EMP_JOIN % ((i * 13) % 200))

        # A self-restoring commit stream.  First half: groups of three
        # 8-row inserts of fresh employees and two 12-row deletes of loaded
        # ones; second half (seeded group order): the same rows the other
        # way round.  Every delete hits live rows and the chunk ends where
        # it began.  Inserts cost more than deletes, and 3:2 rather than
        # 1:1 puts the median commit inside the insert population instead
        # of on the edge between the two.
        groups = pairs // 3 * 2
        per_group = 3 * batch
        victims = rng.sample(emp, groups * per_group)
        fresh = [
            (f"z{i:05d}", dept_names[i % depts], rng.randrange(200))
            for i in range(groups * per_group)
        ]

        def group(i: int, forward: bool) -> list[tuple]:
            new = fresh[i * per_group:(i + 1) * per_group]
            old = victims[i * per_group:(i + 1) * per_group]
            add, drop = (new, old) if forward else (old, new)
            half = per_group // 2
            return [
                ("insert", "insert", "Emp", add[:batch]),
                ("delete", "delete", "Emp", drop[:half]),
                ("insert", "insert", "Emp", add[batch:2 * batch]),
                ("delete", "delete", "Emp", drop[half:]),
                ("insert", "insert", "Emp", add[2 * batch:]),
            ]

        commits = []
        for i in range(groups):
            commits += group(i, True)
        order = list(range(groups))
        rng.shuffle(order)
        for i in order:
            commits += group(i, False)
        # Two commits on the join/fixpoint side, undone later in the chunk.
        edge = [(dept_names[0], "t_new"), ("t_new", "o0")]
        commits.insert(len(commits) // 4, ("insert", "insert", "Par", edge))
        commits.insert(3 * len(commits) // 4, ("delete", "delete", "Par", edge))

        # One fresh-text read per 10 commits, 6:3:1 like the standing
        # sources; the salary bounds stay near the middle so the reads of
        # one kind do similar work under every seed.
        kinds = ["sal"] * 6 + ["dept"] * 3 + ["join"]
        self.specs = []
        reads = 0
        for i, commit in enumerate(commits):
            self.specs.append(commit)
            if i % 10 == 9:
                kind = kinds[reads % 10]
                bound = 90 + (reads * 7) % 20
                reads += 1
                if kind == "sal":
                    self.specs.append(("query", "filter_sal", SAL % bound, ("sal", bound)))
                elif kind == "dept":
                    dept = dept_names[reads % depts]
                    self.specs.append(("query", "filter_dept", DEPT % dept, ("dept", dept)))
                else:
                    self.specs.append(("query", "join", EMP_JOIN % bound, ("join", bound)))
        self.probe_index = ("Emp", ("dept",))
        self.probe_rows = ("Emp", [(f"y{i:05d}", dept_names[0], 100) for i in range(8)])
        self.probe_scan = ("Emp", (0,), ((1, "=", ("const", dept_names[0])),))

    def after_load(self, inst, workdir) -> None:
        inst.subs = [inst.session.subscribe(source) for source in self.sources]

    def restore(self, inst) -> None:
        """The stream undoes itself; what is left to do is what a consumer
        does: read the change feeds, which otherwise grow without bound."""
        for sub in inst.subs:
            inst.events += sum(1 for _ in sub.changes())

    def first_calls(self, inst):
        query = inst.session.query
        return [
            ("filter_sal", partial(query, SAL % 100)),
            ("filter_dept", partial(query, DEPT % self.depts[0])),
            ("join", partial(query, EMP_JOIN % 100)),
        ]

    def finish(self, inst) -> tuple[int, list[str]]:
        """Every standing result must equal a fresh query of its source."""
        notes = []
        for source, sub in zip(self.sources, inst.subs):
            if set(sub.rows()) != set(inst.session.query(source)):
                notes.append(f"subscription diverged from fresh query: {source}")
        return len(self.sources), notes

    def model_reset(self) -> None:
        self.m_emp = set(self.tables["Emp"])
        self.m_par = set(self.tables["Par"])

    def model_write(self, op, relation, rows) -> None:
        state = self.m_emp if relation == "Emp" else self.m_par
        (state.update if op == "insert" else state.difference_update)(rows)

    def model_read(self, key) -> set:
        shape, arg = key
        if shape == "sal":
            return {row for row in self.m_emp if row[2] > arg}
        if shape == "dept":
            return {row for row in self.m_emp if row[1] == arg}
        children = _index(self.m_par, 0)
        return {
            (name, child)
            for name, dept, sal in self.m_emp if sal > arg
            for _, child in children.get(dept, ())
        }


# ---------------------------------------------------------------------------
# cold_scan
# ---------------------------------------------------------------------------

COLD_SCHEMA = """
MODULE cold;
TYPE name    = STRING;
     person  = RECORD name: name; age: INTEGER; city: name END;
     people  = RELATION name OF person;
     factrec = RECORD fk: name; seq, v: INTEGER END;
     factrel = RELATION seq OF factrec;
     dimrec  = RECORD k, grp: name; w: INTEGER END;
     dimrel  = RELATION k OF dimrec;
VAR People: people; Fact: factrel; Dim: dimrel;
END cold.
"""

COLD_PROJ = '{<p.city> OF EACH p IN People: p.name >= "%s"}'
COLD_IDENT = '{EACH p IN People: p.name >= "%s"}'
COLD_AGE = "{<p.name> OF EACH p IN People: p.age >= %d}"
COLD_FULL = "People"


class ColdScan(Workload):
    name = "cold_scan"
    why = (
        "every read opens the spilled database on a fresh handle: partition "
        "pruning, page decode and manifest loading (storage) do the work; "
        "the only workload whose data is not resident"
    )
    setups = 4
    schema = COLD_SCHEMA
    load_order = ("People", "Fact", "Dim")
    # partitions, rows per partition, fact rows, dim rows, read rounds,
    # cold writes per round
    dims = {
        "full": (24, 2048, 50_000, 2000, 2, 2),
        "quick": (6, 128, 1500, 100, 1, 1),
        "small": (3, 16, 60, 8, 1, 1),
    }

    def generate(self) -> None:
        rng = self.rng
        parts, per_part, facts, dims, rounds, writes = self.dims[self.size]
        self.rows_per_partition = per_part
        total = parts * per_part
        cities = [f"c{i}" for i in range(50)]
        rng.shuffle(cities)
        # Names ascend, so the spiller's sorted partitions carry tight
        # min/max bounds on ``name`` (what pruning bites on) and none
        # worth anything on ``age``.
        people = [(f"p{i:06d}", rng.randrange(90), rng.choice(cities)) for i in range(total)]
        keys = [f"k{i}" for i in range(dims)]
        rng.shuffle(keys)
        self.tables = {
            "People": people,
            "Fact": skewed_fact(rng, facts, keys, 200),
            "Dim": ranked_dim(keys, 64),
        }
        last = total - per_part  # first row of the last partition
        self.specs = []
        for r in range(rounds):
            start = f"p{last + r * max(1, per_part // 8):06d}"
            age = 60 + r
            bound = 400 + 100 * r
            reads = [
                ("cold", "select_project", COLD_PROJ % start, ("proj", start)),
                ("cold", "select_rows", COLD_IDENT % start, ("ident", start)),
                ("cold", "filter_age", COLD_AGE % age, ("age", age)),
                ("cold", "full_scan", COLD_FULL, ("full",)),
                ("cold", "join", SKEW_JOIN % bound, ("join", bound)),
                # The non-prunable filter runs twice per round: it is the
                # read that is almost pure page decoding.
                ("cold", "filter_age", COLD_AGE % (age + 10), ("age", age + 10)),
            ]
            for n in range(writes):
                row = (f"z{r}{n:05d}", rng.randrange(90), rng.choice(cities))
                reads.insert(2 + 3 * n, ("coldinsert", "cold_insert", "People", [row]))
            self.specs += reads
        self.probe_index = ("Fact", ("fk",))
        self.probe_rows = ("People", [(f"y{i:06d}", 30, cities[0]) for i in range(8)])
        self.probe_scan = ("People", (2,), ((0, ">=", ("const", f"p{last:06d}")),))

    def scans(self, key) -> list[tuple]:
        shape = key[0]
        if shape == "proj":
            return [("People", (2,), ((0, ">=", ("const", key[1])),))]
        if shape == "ident":
            return [("People", None, ((0, ">=", ("const", key[1])),))]
        if shape == "age":
            return [("People", (0,), ((1, ">=", ("const", key[1])),))]
        if shape == "full":
            return [("People", None, ())]
        return [("Dim", (0, 1), ((2, ">=", ("const", key[1])),)), ("Fact", (0, 2), ())]

    def after_load(self, inst, workdir) -> None:
        inst.path = os.path.join(workdir, f"cold-{len(os.listdir(workdir))}")
        inst.session.db.spill(inst.path, rows_per_partition=self.rows_per_partition)

    def first_calls(self, inst):
        return [
            (spec[1], partial(self._cold_query, inst.path, spec[2]))
            for spec in self.specs[:5]
        ]

    def finish(self, inst) -> tuple[int, list[str]]:
        """Cold answers must equal the warm (never spilled) session's."""
        notes = []
        texts = sorted({spec[2] for spec in self.specs if spec[0] == "cold"})
        for text in texts:
            if set(self._cold_query(inst.path, text)) != set(inst.session.query(text)):
                notes.append(f"cold result differs from warm: {text}")
        return len(texts), notes

    def model_reset(self) -> None:
        self.m_cache = {}

    def model_write(self, op, relation, rows) -> None:  # pragma: no cover - no lasting writes
        raise AssertionError("cold_scan has no lasting writes")

    def model_read(self, key) -> set:
        cached = self.m_cache.get(key)
        if cached is None:
            cached = self.m_cache[key] = self._model(key)
        return cached

    def _model(self, key) -> set:
        people = self.tables["People"]
        shape = key[0]
        if shape == "proj":
            return {(city,) for name, _, city in people if name >= key[1]}
        if shape == "ident":
            return {row for row in people if row[0] >= key[1]}
        if shape == "age":
            return {(name,) for name, age, _ in people if age >= key[1]}
        if shape == "full":
            return set(people)
        grp_of = {k: grp for k, grp, w in self.tables["Dim"] if w >= key[1]}
        return {(grp_of[fk], v) for fk, _, v in self.tables["Fact"] if fk in grp_of}


WORKLOADS = {
    cls.name: cls
    for cls in (ServeMixed, AnalyticJoin, RecursiveConstruct, StandingWrites, ColdScan)
}
