"""Executor backends: the one registry every physical layer plugs into.

An :class:`ExecutorBackend` knows how to run one compiled
:class:`~.plans.BranchPlan` against an execution context; backends are
looked up by name in one registry, and every entry point
(``QueryPlan.execute``, the fixpoint driver, ``DatalogEngine.solve``)
dispatches through :func:`get_backend`.

The registry is the architectural seam for parallel and distributed
execution: the sharded backend (:mod:`repro.compiler.sharded`) registers
itself here, and a future async or distributed backend only has to
implement :meth:`ExecutorBackend.execute_branch` — the compiler, the
fixpoint driver, and Datalog inherit it with no further changes.

Built-in backends:

``batch``
    The columnar struct-of-arrays pipelines with operator fusion — the
    default everywhere.
``vector``
    Dictionary-encoded int-id pipelines over typed column buffers
    (PR 8), run by numpy kernels and lowered by the same step walk as
    ``batch`` (residual filters run on its row-slot kernels after a
    materialize boundary); runs a branch on ``batch``'s pipeline when
    the branch is outside the vector coverage rules (computed ranges,
    multi-column keys, a step residual before the last step) — and
    every branch when numpy does not import, which is the one place
    that question is asked (:meth:`VectorBackend.pipeline_for`).
``sharded``
    Hash-partitioned parallel execution of the columnar pipelines in a
    worker pool (see :mod:`repro.compiler.sharded`), registered when
    the :mod:`repro.compiler` package imports (with a lazy fallback in
    :func:`get_backend` for bare uses of this module).
``tuple``
    The original interpreted loop nest (benchmark E16's baseline) and
    the oracle the property suites check the pipelines against: it
    runs only when asked for by name.
``rowbatch``
    PR 3's row-major flat-carry operator pipelines: a measurement
    baseline (E17) that runs only when asked for by name.

Each backend names its one :attr:`~ExecutorBackend.lowering` function
(memoized per branch by ``BranchPlan.lowered``).  The columnar and
row-major lowerings are total — every branch gets a pipeline — so the
one fallback edge is data on ``vector``
(:attr:`~ExecutorBackend.fallback`): ``vector → batch``, the vector
coverage rule, which is not a degradation.  ``vector`` running without
numpy is one, reported through ``ctx.note_fallback("vector_numpy", ...)``
— never silent.
"""

from __future__ import annotations

from ..relational.vectors import get_numpy
from .operators import lower_branch, lower_branch_columnar, lower_branch_vector

#: Every accepted executor mode, in preference order.  Kept in sync with
#: the registry below (the sharded backend registers lazily, so the name
#: is listed here even before its module is imported).
EXECUTOR_NAMES = ("batch", "vector", "rowbatch", "tuple", "sharded")


class ExecutorBackend:
    """One physical execution strategy for compiled branch plans.

    A backend receives the *logical* plan objects — it decides how their
    lowered pipelines (or the interpreter) actually run.  ``dedup`` is
    the owning query plan's duplicate-elimination operator; backends
    that produce whole batches route them through it so the union
    counters stay correct, while the tuple interpreter adds rows to
    ``out`` directly.
    """

    #: Registry key; subclasses override.
    name: str = "?"
    #: The lowering function that turns a branch into this backend's
    #: pipeline, memoized per branch by ``BranchPlan.lowered`` (None: the
    #: tuple interpreter, which needs no pipeline).
    lowering = None
    #: The backend whose pipeline runs a branch ``lowering`` declines
    #: (only the vector lowering declines any).
    fallback: str | None = None

    def pipeline_for(self, branch, ctx=None):
        """The pipeline this backend runs ``branch`` on, or None for the
        tuple interpreter.  ``ctx`` (absent when ``explain()`` asks what
        would run) receives degradation reports."""
        return None if self.lowering is None else branch.lowered(self.lowering)

    def execute_branch(self, branch, ctx, out: set, dedup) -> None:
        """Run ``branch`` under ``ctx``, adding result tuples to ``out``."""
        self.run_on(branch, ctx, self.pipeline_for(branch, ctx), out, dedup)

    @staticmethod
    def run_on(branch, ctx, pipeline, out: set, dedup) -> None:
        """Run ``branch`` on ``pipeline`` (None: the tuple interpreter)."""
        if pipeline is None:
            branch.execute_tuple(ctx, out)
        else:
            dedup.absorb(branch.execute_batch(ctx, pipeline), out)

    def describe(self) -> str:
        return self.name


class TupleBackend(ExecutorBackend):
    """The interpreted loop nest: one recursive call per binding."""

    name = "tuple"


class RowBatchBackend(ExecutorBackend):
    """Row-major flat-carry batched pipelines (PR 3's layout)."""

    name = "rowbatch"
    lowering = staticmethod(lower_branch)


class BatchBackend(ExecutorBackend):
    """Columnar struct-of-arrays pipelines with fusion — the default."""

    name = "batch"
    lowering = staticmethod(lower_branch_columnar)


class VectorBackend(ExecutorBackend):
    """Dictionary-encoded int-id pipelines (PR 8's typed vectors).

    Branches the vector lowering covers run over encoded column buffers;
    everything else drops to ``batch``, so ``executor="vector"`` is
    always safe to request.  The kernels are numpy code: where numpy
    does not import, every branch is ``batch``'s — decided here, once,
    so set formers, the fixpoint driver and Datalog inherit it and the
    vector lowering never runs.
    """

    name = "vector"
    lowering = staticmethod(lower_branch_vector)
    fallback = "batch"

    def pipeline_for(self, branch, ctx=None):
        if get_numpy() is None:
            if ctx is not None:
                ctx.note_fallback(
                    "vector_numpy",
                    "numpy is not importable; executor='vector' ran a branch "
                    "on the batch pipeline",
                )
        else:
            pipeline = branch.lowered(self.lowering)
            if pipeline is not None:
                return pipeline
        return get_backend(self.fallback).pipeline_for(branch, ctx)


_BACKENDS: dict[str, ExecutorBackend] = {}


def register_backend(backend: ExecutorBackend) -> ExecutorBackend:
    """Install ``backend`` under its :attr:`~ExecutorBackend.name`.

    Re-registration replaces the previous instance (tests swap in
    configured sharded backends); returns the backend for chaining.
    """
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutorBackend:
    """The backend registered under ``name``.

    Raises ``ValueError`` for unknown names, listing the accepted modes
    — the registry is the single validation point for every entry
    ``executor=`` argument in the library.
    """
    backend = _BACKENDS.get(name)
    if backend is None and name == "sharded":
        # Fallback registration: the repro.compiler package __init__
        # imports .sharded eagerly (so in normal use the backend is
        # already present); this branch keeps bare uses of this module
        # working should that import order ever change — the sharded
        # module itself imports plan machinery, so it cannot be
        # imported at registry-definition time.
        from . import sharded  # noqa: F401  (import registers the backend)

        backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}"
        )
    return backend


def executor_names() -> tuple[str, ...]:
    """Every accepted executor name (registered or lazily registrable)."""
    return EXECUTOR_NAMES


register_backend(TupleBackend())
register_backend(RowBatchBackend())
register_backend(BatchBackend())
register_backend(VectorBackend())
