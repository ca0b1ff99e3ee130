"""One execution-options surface for every compilation entry point.

Every front door (``Session``/``Session.query``/``prepare``/
``subscribe``, ``compile_query``, ``run_query``, ``compile_statement``,
``compile_fixpoint``, ``construct_compiled``,
``DatalogEngine.solve``/``solve_compiled``)
takes its execution knobs — executor, optimizer, shard configuration,
analysis policy, snapshot — one way: a frozen :class:`ExecOptions`
passed as ``options=``.  ``None`` fields mean "inherit the caller's
default", so partial options compose — a session can fix the executor
while a single call overrides the optimizer.  There is no second
spelling: a loose ``executor=`` (or any other knob) on one of those
entry points is Python's own ``TypeError``.

Frozen and hashable on purpose: :meth:`ExecOptions.cache_key` is the
normalized plan-cache fingerprint — two calls that resolve to the same
executor/optimizer/shard configuration share one cached plan
(``snapshot`` and ``analysis`` are per-execution concerns and
deliberately excluded from the key).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

#: The default optimizer for every compilation entry point.
DEFAULT_OPTIMIZER = "cost"

#: The default executor: "batch" runs the columnar (struct-of-arrays)
#: operator pipeline with fused projection; see
#: :mod:`repro.compiler.executors` for the full registry.
DEFAULT_EXECUTOR = "batch"

#: The static-analyzer gate policies ``ExecOptions.analysis`` accepts.
ANALYSIS_MODES = ("strict", "lint", "off")


@dataclass(frozen=True)
class ExecOptions:
    """How a query (or fixpoint, or Datalog program) should execute.

    Every field defaults to ``None`` — "no opinion, inherit" — so
    options objects compose: :meth:`over` layers call-level options
    over session-level ones, and the consumers resolve what is still
    ``None`` against the module defaults.

    ``executor``
        A backend name from the :mod:`repro.compiler.executors`
        registry (``batch``, ``vector``, ``rowbatch``, ``tuple``,
        ``sharded``).
    ``optimizer``
        Join-order strategy: ``cost`` (default) or ``syntactic`` (the
        written binding order — E14's baseline).
    ``shard_config``
        A :class:`~repro.compiler.sharded.ShardConfig` (``workers``,
        ``pool``, ``min_rows``, ``rows_per_shard``) carried onto the
        execution context (consulted by the sharded backend only).
    ``analysis``
        Static-analyzer gate policy for session front doors:
        ``strict`` | ``lint`` | ``off``.
    ``snapshot``
        A :class:`~repro.dbpl.serving.DatabaseSnapshot` pinning the
        relation state compiled set formers read (session front doors
        only; refused with ``ValueError`` where it cannot be honoured —
        subscriptions, a statement that runs a fixpoint, the
        interpreted mode).
    """

    executor: str | None = None
    optimizer: str | None = None
    shard_config: object | None = None
    analysis: str | None = None
    snapshot: object | None = None

    def __post_init__(self) -> None:
        # Validated here, not at one front door: a misspelt policy must
        # never reach the gate, which would read it as "lint".
        if self.analysis is not None and self.analysis not in ANALYSIS_MODES:
            raise ValueError(
                f"analysis must be one of {ANALYSIS_MODES}, got {self.analysis!r}"
            )

    # -- composition --------------------------------------------------------

    def over(self, base: "ExecOptions | None") -> "ExecOptions":
        """These options layered over ``base``: set fields win."""
        if base is None:
            return self
        merged = {
            field.name: (
                own if (own := getattr(self, field.name)) is not None
                else getattr(base, field.name)
            )
            for field in dataclasses.fields(self)
        }
        return ExecOptions(**merged)

    def replace(self, **changes) -> "ExecOptions":
        return dataclasses.replace(self, **changes)

    # -- resolution ---------------------------------------------------------

    @property
    def resolved_executor(self) -> str:
        return self.executor if self.executor is not None else DEFAULT_EXECUTOR

    @property
    def resolved_optimizer(self) -> str:
        return self.optimizer if self.optimizer is not None else DEFAULT_OPTIMIZER

    def cache_key(self) -> tuple:
        """The normalized plan-cache fingerprint of these options.

        Only the fields that change what ``compile_query`` produces (or
        how its pipelines run) participate; ``analysis`` and
        ``snapshot`` are per-execution concerns, so two calls differing
        only there still share a plan.
        """
        return (self.resolved_executor, self.resolved_optimizer, self.shard_config)


#: The all-defaults options object (shared: ExecOptions is frozen).
DEFAULT_OPTIONS = ExecOptions()
