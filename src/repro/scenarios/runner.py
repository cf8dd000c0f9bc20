"""The scenario runner: dynamic workloads on both simulation engines.

:class:`ScenarioRunner` drives a protocol under a
:class:`~repro.scenarios.schedule.Schedule` of workload events through
either engine — the scalar :class:`~repro.core.simulator.Simulator` or
the batched :class:`~repro.core.batch.BatchSimulator` — with one loop:
row 0 is observed before the run, the events due at round ``t`` apply
in the simulator's ``before_round(t)`` hook, and row ``t + 1`` is
observed in its ``after_round(t)`` hook, where the state is exactly the
one the next round's events will see. Because the load is
non-quiescent (events keep perturbing the system), nothing *stops* the
run; instead the optional ``target`` stopping rule is evaluated on
every observed row, from which :mod:`repro.analysis.dynamics` extracts
recovery times and steady-state bands.

Each observed row goes to a sink that decides whether to keep or fold
it. The default sink keeps every row: every per-round observable of
the :class:`ScenarioResult` is a ``(T + 1, R)`` array (time-major,
replica axis second; scalar runs have ``R = 1``), where row ``t``
describes the state after ``t`` protocol rounds and all events
scheduled before them, and every event application is logged with
per-replica magnitudes and the post-event potential. The streaming
sink (``recording=StreamingRecording(...)``) keeps every
``thin_every``-th row and folds rows and events into bounded-memory
reducers, returning a :class:`StreamingScenarioResult`. The engines
differ only in the simulator, in ``Event.apply`` vs
``Event.apply_batch``, in how a row's observables are computed, and in
the weighted stack's padding compaction.

Engine equivalence mirrors the static measurement pipeline and depends
on the RNG stream layout (``rng_policy``): under the default
``"spawned"`` layout weighted scenario runs are pathwise bit-identical
between engines (events and kernels both consume each replica's spawned
stream in the scalar order) and uniform runs agree in law; under the
``"counter"`` layout (:class:`~repro.utils.rng.CounterStreams`) events
and kernels draw whole-stack Philox blocks per site per round — runs of
either task system then agree with the scalar reference in law and are
same-seed deterministic, but not pathwise comparable (see the README's
reproducibility matrix). :meth:`ScenarioRunner.run_ensemble` plans its
ensembles with the same planner as
:func:`repro.analysis.convergence.measure_convergence_rounds`, so both
validate and route replica ensembles identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis._ensemble import plan_ensemble
from repro.analysis.streaming import ObservableSummary, RunningMoments
from repro.core.batch import BatchSimulator
from repro.core.equilibrium import nash_slack_matrix
from repro.core.potentials import psi0_potential
from repro.core.protocols import Protocol
from repro.core.simulator import Simulator
from repro.core.stopping import StoppingRule
from repro.errors import SimulationError, ValidationError
from repro.graphs.graph import Graph
from repro.model.batch import BatchStateBase, BatchUniformState, BatchWeightedState
from repro.model.state import LoadStateBase, UniformState, WeightedState
from repro.scenarios.events import BatchEventOutcome, Event, EventOutcome
from repro.scenarios.schedule import Schedule
from repro.spectral.eigen import algebraic_connectivity
from repro.types import FloatArray, IntArray, SeedLike
from repro.utils.rng import (
    StreamLayout,
    as_stream_layout,
    make_rng,
    make_streams,
)
from repro.utils.validation import check_integer

__all__ = [
    "EventRecord",
    "EventTotals",
    "ScenarioResult",
    "ScenarioRunner",
    "StreamingRecording",
    "StreamingScenarioResult",
    "merge_replica_results",
    "nash_violation_fraction",
]

#: Compact the padded weighted stack when the task axis exceeds both this
#: width and twice the widest replica (long churn runs would otherwise
#: accumulate unbounded padding). Compaction is observationally neutral.
_COMPACT_MIN_WIDTH = 64


def nash_violation_fraction(
    loads: FloatArray, speeds: FloatArray, graph: Graph, tolerance: float = 1e-9
) -> FloatArray:
    """Fraction of directed edges violating ``l_i - l_j <= 1/s_j``.

    ``loads`` is ``(R, n)`` (one row per replica); returns ``(R,)``. The
    rolling-violation metric is built on this: unlike the boolean Nash
    predicate it degrades gracefully, so it resolves *how far* from
    equilibrium a perturbed system is, not just whether it left it. The
    edge condition is the shared
    :func:`repro.core.equilibrium.nash_slack_matrix`.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 2:
        raise ValidationError(f"loads must be 2-D (replicas, nodes), got {loads.ndim}-D")
    if graph.num_edges == 0:
        return np.zeros(loads.shape[0])
    violating = nash_slack_matrix(loads, speeds, graph) < -tolerance
    return violating.mean(axis=1)


@dataclass(frozen=True)
class EventRecord:
    """One event application across the replica axis.

    All arrays have length ``R`` (scalar runs: 1); rows untouched by the
    event report zeros. ``psi0_after`` is the potential right after this
    event applied — before the round's protocol kernel ran.
    """

    round_index: int
    name: str
    description: str
    tasks_added: IntArray
    tasks_removed: IntArray
    weight_added: FloatArray
    weight_removed: FloatArray
    tasks_relocated: IntArray
    psi0_after: FloatArray


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run (either engine).

    Attributes
    ----------
    final_state:
        The state / replica stack when the horizon completed.
    engine:
        ``"scalar"`` or ``"batch"``.
    rounds_executed:
        The horizon ``T``; every per-round array has ``T + 1`` rows.
    psi0, max_load_difference, nash_violation, total_weight, num_tasks:
        ``(T + 1, R)`` observables; row ``t`` is the state after ``t``
        protocol rounds (and all events scheduled before them).
    target_satisfied:
        ``(T + 1, R)`` boolean verdicts of the runner's ``target`` rule
        (all ``False`` when no target was given).
    events:
        Chronological log of event applications with per-replica
        magnitudes. Topology events log with zero workload magnitudes —
        they relocate nothing; the graph itself changed.
    lambda2, gap_ratio, connected:
        ``(T + 1,)`` per-round topology trace: the algebraic
        connectivity of the graph in force, the paper's graph factor
        ``Delta / lambda_2`` (``inf`` through disconnected windows), and
        the connectivity verdict. One row per round — *not* per replica
        — because topology events are replica-stable: every replica
        sees the same graph. ``None`` on results from older pipelines.
    """

    final_state: LoadStateBase | BatchStateBase
    engine: str
    rounds_executed: int
    psi0: FloatArray
    max_load_difference: FloatArray
    nash_violation: FloatArray
    total_weight: FloatArray
    num_tasks: IntArray
    target_satisfied: np.ndarray
    events: list[EventRecord]
    lambda2: FloatArray | None = None
    gap_ratio: FloatArray | None = None
    connected: np.ndarray | None = None

    @property
    def num_replicas(self) -> int:
        """Ensemble size ``R`` (1 for scalar runs)."""
        return int(self.psi0.shape[1])

    def events_named(self, name: str) -> list[EventRecord]:
        """The applications of events named ``name``, chronologically."""
        return [record for record in self.events if record.name == name]


def _spectral_entry(
    graph: Graph, memo: dict[Graph, tuple[float, float, bool]]
) -> tuple[float, float, bool]:
    """Memoized ``(lambda_2, Delta/lambda_2, connected)`` for ``graph``.

    The memo is keyed by the graph's *structural* equality, so a
    recovery event restoring the base graph reuses the entry computed at
    round 0 instead of re-running the eigensolver, and long disconnected
    windows cost one solve total. Disconnected graphs report
    ``lambda_2 = 0`` / ``gap_ratio = inf`` (the non-strict spectral
    path) rather than raising.
    """
    entry = memo.get(graph)
    if entry is None:
        lambda2 = algebraic_connectivity(graph, strict=False)
        gap = graph.max_degree / lambda2 if lambda2 > 0.0 else float("inf")
        entry = (lambda2, gap, lambda2 > 0.0)
        memo[graph] = entry
    return entry


#: The per-replica observables of every row, matching the
#: :class:`ScenarioResult` array names, with their full-mode dtypes. The
#: streaming recorder folds all of them as float64 (``target_satisfied``
#: as 0/1, so its mean is the satisfaction fraction).
_OBSERVABLES = {
    "psi0": np.float64,
    "max_load_difference": np.float64,
    "nash_violation": np.float64,
    "total_weight": np.float64,
    "num_tasks": np.int64,
    "target_satisfied": bool,
}


@dataclass(frozen=True)
class StreamingRecording:
    """Options for the bounded-memory streaming observable recorder.

    Parameters
    ----------
    thin_every:
        Record every ``thin_every``-th row (rows 0 and ``T`` are always
        kept). 1 records every round.
    chunk_rounds:
        Rows per resident chunk: the recorder buffers at most this many
        recorded rows per observable before folding them into the
        running reducers, so peak memory is ``O(chunk_rounds * R)``
        regardless of the horizon.
    """

    thin_every: int = 1
    chunk_rounds: int = 256

    def __post_init__(self):
        check_integer(self.thin_every, "thin_every", minimum=1)
        check_integer(self.chunk_rounds, "chunk_rounds", minimum=1)


@dataclass(frozen=True)
class EventTotals:
    """Aggregated magnitudes of one event name over a streaming run.

    Streaming runs fold every application of an event into these
    per-replica running totals instead of keeping the chronological
    :class:`EventRecord` log — a million-event trace would otherwise
    hold ``O(num_events * R)`` magnitude arrays, defeating the
    bounded-memory guarantee. All arrays have shape ``(R,)``.
    """

    applications: int
    tasks_added: IntArray
    tasks_removed: IntArray
    weight_added: FloatArray
    weight_removed: FloatArray
    tasks_relocated: IntArray


@dataclass(frozen=True)
class StreamingScenarioResult:
    """Outcome of a streaming-recorded scenario run.

    Instead of the full ``(T + 1, R)`` observable arrays of
    :class:`ScenarioResult`, the recorded rows are folded into
    per-replica :class:`~repro.analysis.streaming.ObservableSummary`
    reducers plus thinned replica-mean series — memory stays
    ``O(chunk_rounds * R + rows_recorded)`` however long the trace.

    Attributes
    ----------
    observables:
        Per-observable :class:`ObservableSummary` (count / mean /
        variance / min / max / last per replica) over the recorded rows.
        ``target_satisfied`` is folded as 0/1, so its mean is each
        replica's satisfaction fraction.
    series:
        Per-observable replica-mean series over the recorded rows
        (shape ``(rows_recorded,)``), aligned with ``recorded_rounds``.
    recorded_rounds:
        The row indices recorded: every ``thin_every``-th row plus rows
        0 and ``T``.
    lambda2, gap_ratio, connected:
        The topology trace at the recorded rows.
    event_totals:
        Per-event-name :class:`EventTotals` — the aggregate of what the
        schedule did, in ``O(names * R)`` memory where the full-mode
        event log would be ``O(num_events * R)``.
    chunks_flushed:
        Chunks folded into the reducers — grows with the horizon.
    peak_resident_chunks:
        Maximum chunks resident at once — one preallocated buffer per
        observable, *independent of the horizon* (the bounded-memory
        guarantee pinned in the tests).
    """

    final_state: LoadStateBase | BatchStateBase
    engine: str
    rounds_executed: int
    num_replicas: int
    thin_every: int
    chunk_rounds: int
    rows_recorded: int
    chunks_flushed: int
    peak_resident_chunks: int
    recorded_rounds: IntArray
    observables: dict[str, ObservableSummary]
    series: dict[str, FloatArray]
    lambda2: FloatArray
    gap_ratio: FloatArray
    connected: np.ndarray
    event_totals: dict[str, EventTotals]


class _Recorder:
    """Full-mode sink: every row into preallocated ``(T + 1, R)``
    arrays, every event application into the :class:`EventRecord` log.

    ``psi0`` computes the per-replica potential logged right after each
    event (a length-``R`` array).
    """

    def __init__(
        self,
        engine: str,
        horizon: int,
        num_replicas: int,
        psi0: Callable[[LoadStateBase | BatchStateBase], FloatArray],
    ):
        self._engine = engine
        self.horizon = horizon
        self._num_replicas = num_replicas
        self._psi0 = psi0
        shape = (horizon + 1, num_replicas)
        self._rows = {
            name: np.zeros(shape, dtype=dtype)
            for name, dtype in _OBSERVABLES.items()
        }
        # Topology trace: one row per round, shared across replicas.
        self._lambda2 = np.zeros(horizon + 1)
        self._gap_ratio = np.zeros(horizon + 1)
        self._connected = np.zeros(horizon + 1, dtype=bool)
        self._events: list[EventRecord] = []

    def due(self, row: int) -> bool:
        """Every row is kept."""
        return True

    def record(
        self,
        row: int,
        values: dict[str, np.ndarray],
        lambda2: float,
        gap_ratio: float,
        connected: bool,
    ) -> None:
        for name, rows in self._rows.items():
            rows[row] = values[name]
        self._lambda2[row] = lambda2
        self._gap_ratio[row] = gap_ratio
        self._connected[row] = connected

    def log_event(
        self,
        round_index: int,
        event: Event,
        outcome: BatchEventOutcome | None,
        state: LoadStateBase | BatchStateBase,
    ) -> None:
        """Log one application; ``outcome`` is ``None`` for topology
        events, which move no tasks and no weight (the network changed
        under an unchanged placement), so they log zero magnitudes."""
        if outcome is None:
            outcome = BatchEventOutcome.zeros(self._num_replicas)
        self._events.append(
            EventRecord(
                round_index=round_index,
                name=event.name,
                description=event.describe(),
                tasks_added=outcome.tasks_added,
                tasks_removed=outcome.tasks_removed,
                weight_added=outcome.weight_added,
                weight_removed=outcome.weight_removed,
                tasks_relocated=outcome.tasks_relocated,
                psi0_after=self._psi0(state),
            )
        )

    def result(self, final_state: LoadStateBase | BatchStateBase) -> ScenarioResult:
        return ScenarioResult(
            final_state=final_state,
            engine=self._engine,
            rounds_executed=self.horizon,
            events=self._events,
            lambda2=self._lambda2,
            gap_ratio=self._gap_ratio,
            connected=self._connected,
            **self._rows,
        )


class _StreamingRecorder:
    """Chunked row recorder folding into running per-replica reducers.

    One ``(chunk_rounds, R)`` buffer per observable is allocated once
    and reused: when full it folds into that observable's
    :class:`RunningMoments` and resets, so the number of resident
    chunks never exceeds ``len(_OBSERVABLES)`` no matter the horizon.
    Replica-mean series and the (shared) topology trace are
    ``O(rows_recorded)`` scalars. Event applications fold into
    per-name :class:`EventTotals` instead of the chronological log,
    which would grow ``O(num_events * R)``.
    """

    def __init__(
        self,
        engine: str,
        horizon: int,
        num_replicas: int,
        options: StreamingRecording,
    ):
        self._engine = engine
        self.horizon = horizon
        self._options = options
        self._buffers = {
            name: np.zeros((options.chunk_rounds, num_replicas))
            for name in _OBSERVABLES
        }
        self._moments = {
            name: RunningMoments(num_replicas)
            for name in _OBSERVABLES
        }
        self._series: dict[str, list[float]] = {
            name: [] for name in _OBSERVABLES
        }
        self._fill = 0
        self._rounds: list[int] = []
        self._lambda2: list[float] = []
        self._gap_ratio: list[float] = []
        self._connected: list[bool] = []
        self._event_totals: dict[str, list] = {}
        self._num_replicas = num_replicas
        self.chunks_flushed = 0
        self.peak_resident_chunks = len(_OBSERVABLES)

    def due(self, row: int) -> bool:
        """Whether row ``row`` is recorded (thinning keeps 0 and T)."""
        return row % self._options.thin_every == 0 or row == self.horizon

    def log_event(
        self,
        round_index: int,
        event: Event,
        outcome: BatchEventOutcome | None,
        state: LoadStateBase | BatchStateBase,
    ) -> None:
        """Accumulate one event application into its name's totals.

        ``outcome`` is ``None`` for topology events: the application
        counts, the magnitudes are zero.
        """
        name = event.name
        totals = self._event_totals.get(name)
        if totals is None:
            totals = [
                0,
                np.zeros(self._num_replicas, dtype=np.int64),
                np.zeros(self._num_replicas, dtype=np.int64),
                np.zeros(self._num_replicas, dtype=np.float64),
                np.zeros(self._num_replicas, dtype=np.float64),
                np.zeros(self._num_replicas, dtype=np.int64),
            ]
            self._event_totals[name] = totals
        totals[0] += 1
        if outcome is None:
            return
        totals[1] += outcome.tasks_added
        totals[2] += outcome.tasks_removed
        totals[3] += outcome.weight_added
        totals[4] += outcome.weight_removed
        totals[5] += outcome.tasks_relocated

    def record(
        self,
        row: int,
        values: dict[str, np.ndarray],
        lambda2: float,
        gap_ratio: float,
        connected: bool,
    ) -> None:
        for name in _OBSERVABLES:
            folded = np.asarray(values[name], dtype=np.float64)
            self._buffers[name][self._fill] = folded
            self._series[name].append(float(folded.mean()))
        self._fill += 1
        self._rounds.append(row)
        self._lambda2.append(lambda2)
        self._gap_ratio.append(gap_ratio)
        self._connected.append(connected)
        if self._fill == self._options.chunk_rounds:
            self._flush()

    def _flush(self) -> None:
        if self._fill == 0:
            return
        for name in _OBSERVABLES:
            self._moments[name].update(self._buffers[name][: self._fill])
        self.chunks_flushed += 1
        self._fill = 0

    def result(
        self, final_state: LoadStateBase | BatchStateBase
    ) -> StreamingScenarioResult:
        self._flush()
        return StreamingScenarioResult(
            final_state=final_state,
            engine=self._engine,
            rounds_executed=self.horizon,
            num_replicas=self._num_replicas,
            thin_every=self._options.thin_every,
            chunk_rounds=self._options.chunk_rounds,
            rows_recorded=len(self._rounds),
            chunks_flushed=self.chunks_flushed,
            peak_resident_chunks=self.peak_resident_chunks,
            recorded_rounds=np.asarray(self._rounds, dtype=np.int64),
            observables={
                name: self._moments[name].summary()
                for name in _OBSERVABLES
            },
            series={
                name: np.asarray(self._series[name])
                for name in _OBSERVABLES
            },
            lambda2=np.asarray(self._lambda2),
            gap_ratio=np.asarray(self._gap_ratio),
            connected=np.asarray(self._connected, dtype=bool),
            event_totals={
                name: EventTotals(
                    applications=totals[0],
                    tasks_added=totals[1],
                    tasks_removed=totals[2],
                    weight_added=totals[3],
                    weight_removed=totals[4],
                    tasks_relocated=totals[5],
                )
                for name, totals in self._event_totals.items()
            },
        )


class ScenarioRunner:
    """Runs a protocol under a schedule of workload events.

    Parameters
    ----------
    graph:
        The processor network.
    protocol:
        Any :class:`~repro.core.protocols.Protocol`; the batched paths
        additionally need a batched kernel (``supports_batch``).
    schedule:
        The workload dynamics. An empty schedule reduces the runner to a
        fixed-horizon simulation with per-round observables.
    target:
        Optional stopping rule evaluated (but never acted on) every
        round; its verdicts feed the recovery metrics.
    tolerance:
        Slack for the Nash-violation edge predicate.
    """

    def __init__(
        self,
        graph: Graph,
        protocol: Protocol,
        schedule: Schedule | None = None,
        target: StoppingRule | None = None,
        tolerance: float = 1e-9,
    ):
        self._graph = graph
        self._protocol = protocol
        self._schedule = schedule if schedule is not None else Schedule()
        self._target = target
        self._tolerance = tolerance

    @property
    def graph(self) -> Graph:
        """The processor network."""
        return self._graph

    @property
    def protocol(self) -> Protocol:
        """The protocol being simulated."""
        return self._protocol

    @property
    def schedule(self) -> Schedule:
        """The workload dynamics."""
        return self._schedule

    # ------------------------------------------------------------------
    # The two engines
    # ------------------------------------------------------------------
    def run(
        self,
        state: LoadStateBase,
        rounds: int,
        rng: SeedLike = None,
        recording: StreamingRecording | None = None,
    ) -> ScenarioResult | StreamingScenarioResult:
        """Run the scenario on a scalar state (mutated in place).

        ``rng`` drives *both* the events and the protocol rounds — it is
        the replica's single trajectory stream, exactly as in the
        batched path. Passing ``recording`` switches to the streaming
        recorder (the same rows, thinned and folded into bounded-memory
        reducers) and returns a :class:`StreamingScenarioResult`.
        """
        rounds = check_integer(rounds, "rounds", minimum=0)
        generator = make_rng(rng)
        return self._drive(
            Simulator(self._graph, self._protocol, generator),
            state,
            _sink(recording, "scalar", rounds, 1, _psi0_scalar),
            _observe_scalar,
            lambda event, current, graph: _replica_outcome(
                event.apply(current, graph, generator)
            ),
        )

    def run_batch(
        self,
        batch: BatchStateBase,
        rounds: int,
        rngs: Sequence[np.random.Generator] | StreamLayout | None = None,
        seed: SeedLike = None,
        rng_policy: str = "spawned",
        recording: StreamingRecording | None = None,
        backend: "str | object | None" = None,
    ) -> ScenarioResult | StreamingScenarioResult:
        """Run the scenario on a replica stack (mutated in place).

        ``rngs`` is the per-replica randomness — a generator sequence /
        :class:`~repro.utils.rng.SpawnedStreams` (each stream drives its
        replica's events *and* protocol randomness in the scalar
        consumption order) or a :class:`~repro.utils.rng.CounterStreams`
        layout (events and kernels draw whole-stack blocks). When
        omitted, a layout is built from ``seed`` under ``rng_policy``.

        ``backend`` selects the array backend the batched kernels
        dispatch through (:func:`repro.backends.resolve_backend`
        semantics: name or instance, warn-and-fallback to numpy). The
        numpy default is bit-identical to the pre-backend runner.

        Passing ``recording`` switches to the streaming recorder (the
        same rows, thinned and folded into bounded-memory per-replica
        reducers) and returns a :class:`StreamingScenarioResult`.
        """
        rounds = check_integer(rounds, "rounds", minimum=0)
        num_replicas = batch.num_replicas
        if rngs is None:
            streams = make_streams(rng_policy, seed, num_replicas)
        else:
            streams = as_stream_layout(rngs)
        if len(streams) != num_replicas:
            raise SimulationError(
                f"need one generator per replica ({num_replicas}), got {len(streams)}"
            )
        return self._drive(
            BatchSimulator(self._graph, self._protocol, seed, backend=backend),
            batch,
            _sink(recording, "batch", rounds, num_replicas, _psi0_batch),
            _observe_batch,
            lambda event, current, graph: event.apply_batch(
                current, graph, streams, None
            ),
            rngs=streams,
        )

    def _drive(
        self,
        simulator: Simulator | BatchSimulator,
        state: LoadStateBase | BatchStateBase,
        sink: "_Recorder | _StreamingRecorder",
        observe: Callable[..., dict[str, np.ndarray]],
        apply_event: Callable[..., BatchEventOutcome],
        **run_kwargs,
    ) -> ScenarioResult | StreamingScenarioResult:
        """The scenario loop both engines share.

        Row 0 is observed before the run and row ``t + 1`` in
        ``after_round(t)``; the events due at round ``t`` apply in
        ``before_round(t)``. Both simulators leave the state untouched
        between ``after_round(t)`` and ``before_round(t + 1)``, so row
        ``t + 1`` is the state the next round's events see, and events
        scheduled at the horizon never apply. ``observe(state, graph,
        target, tolerance)`` computes a row's per-replica observables;
        ``apply_event(event, state, graph)`` applies one workload event
        and returns its per-replica outcome.
        """
        spectral_memo: dict[Graph, tuple[float, float, bool]] = {}

        def observe_row(row: int, current) -> None:
            # The simulator holds the graph in force (topology events
            # swap it).
            graph = simulator.graph
            sink.record(
                row,
                observe(current, graph, self._target, self._tolerance),
                *_spectral_entry(graph, spectral_memo),
            )

        def before_round(round_index: int, current) -> None:
            for event in self._schedule.events_due(round_index):
                if event.mutates_topology:
                    # Topology events consume no stream randomness and
                    # swap one graph shared by the whole stack, so they
                    # are replica-stable under both stream layouts (and
                    # invariant across replica-shard windows).
                    simulator.swap_graph(
                        event.transform_graph(
                            simulator.graph, self._graph, round_index
                        )
                    )
                    sink.log_event(round_index, event, None, current)
                else:
                    outcome = apply_event(event, current, simulator.graph)
                    sink.log_event(round_index, event, outcome, current)
            if isinstance(current, BatchWeightedState):
                _compact_if_sparse(current)

        def after_round(round_index: int, current) -> None:
            if sink.due(round_index + 1):
                observe_row(round_index + 1, current)

        observe_row(0, state)
        simulator.run(
            state,
            stopping=None,
            max_rounds=sink.horizon,
            before_round=before_round,
            after_round=after_round,
            **run_kwargs,
        )
        return sink.result(state)

    # ------------------------------------------------------------------
    # Ensemble convenience (planned like measure_convergence_rounds)
    # ------------------------------------------------------------------
    def run_ensemble(
        self,
        state_factory: Callable[[np.random.Generator], LoadStateBase],
        repetitions: int,
        rounds: int,
        seed: SeedLike = None,
        engine: str = "auto",
        rng_policy: str = "spawned",
        replica_offset: int = 0,
        replica_count: int | None = None,
        recording: StreamingRecording | None = None,
        backend: "str | object | None" = None,
    ) -> ScenarioResult | StreamingScenarioResult:
        """Run ``repetitions`` independent replicas of the scenario.

        ``backend`` selects the array backend for the batch engine's
        kernels (warn-and-fallback resolution, numpy default /
        bit-identical); scalar replica runs ignore it.

        ``replica_offset`` / ``replica_count`` select a *window* of the
        ``repetitions``-sized ensemble (``repetitions`` stays the
        monolithic total): each windowed replica receives exactly the
        spawned child stream it would own in the monolithic run, so
        concatenating window results in offset order
        (:func:`merge_replica_results`) reproduces the monolithic
        ensemble byte-for-byte. Windows under ``rng_policy="counter"``
        additionally require a *deterministic* schedule
        (:attr:`~repro.scenarios.schedule.Schedule.is_deterministic` —
        compiled workload traces qualify) and a counter-shardable
        protocol kernel: stochastic events draw whole-stack counter
        blocks whose word consumption depends on replicas outside the
        window, and the uniform kernel's multinomial site does too, so
        only deterministic-event weighted scenarios shard under the
        counter layout. Each counter window then runs a
        :class:`~repro.utils.rng.CounterStreams` window of the
        monolithic layout, making shard merges byte-identical to the
        monolithic counter run.

        ``recording`` switches the run to the bounded-memory streaming
        recorder (batch engine only, monolithic only — a
        :class:`StreamingScenarioResult` has no byte-exact shard merge).

        Under ``rng_policy="spawned"`` repetition ``k`` derives
        everything — initial state, event randomness, migration
        randomness — from spawned child stream ``k``, so the two engines
        see identical per-replica streams. ``rng_policy="counter"``
        keeps the spawned children for the *initial states* (both
        policies run the same ensemble) but draws all round randomness
        as vectorized counter blocks; it requires the batch engine and,
        like an explicit ``engine="batch"``, skips the clipped-law
        guard (uniform ablation-``alpha`` runs sample the batch
        kernel's rescaled clipping law).
        ``engine="auto"`` batches when the protocol and states qualify
        under the same rules as the static measurement pipeline
        (weighted runs always batch when stackable; uniform runs batch
        unless probability clipping would change the law).
        """
        plan = plan_ensemble(
            self._protocol,
            state_factory,
            repetitions,
            seed,
            engine,
            rng_policy,
            replica_offset,
            replica_count,
        )
        if (
            plan.windowed
            and rng_policy == "counter"
            and not self._schedule.is_deterministic
        ):
            raise ValidationError(
                "scenario ensembles with stochastic events cannot "
                "shard under rng_policy='counter': event draw sites "
                "consume whole-stack counter blocks (churn-sized, "
                "data-dependent), so a replica window cannot "
                "reproduce its monolithic streams; compile the "
                "workload to deterministic trace events or use "
                "rng_policy='spawned' for sharded scenario cells"
            )
        if recording is not None and plan.windowed:
            raise ValidationError(
                "streaming recording cannot run on a replica window: "
                "streamed reducer summaries have no byte-exact shard "
                "merge; run the streaming ensemble monolithically"
            )
        if recording is not None and plan.batch is None:
            raise ValidationError(
                "streaming recording requires the batch engine; this "
                "protocol/state combination falls back to scalar replica "
                "runs (use ScenarioRunner.run(recording=...) per replica "
                "instead)"
            )
        if plan.batch is not None:
            return self.run_batch(
                plan.batch,
                rounds,
                rngs=plan.streams,
                recording=recording,
                backend=backend,
            )
        return merge_replica_results(
            [
                self.run(state, rounds, rng=generator)
                for state, generator in zip(plan.states, plan.generators)
            ]
        )


def _sink(
    recording: StreamingRecording | None,
    engine: str,
    horizon: int,
    num_replicas: int,
    psi0: Callable[[LoadStateBase | BatchStateBase], FloatArray],
) -> "_Recorder | _StreamingRecorder":
    """The full recorder, or the streaming one when ``recording`` is set."""
    if recording is None:
        return _Recorder(engine, horizon, num_replicas, psi0)
    return _StreamingRecorder(engine, horizon, num_replicas, recording)


def _psi0_scalar(state: LoadStateBase) -> FloatArray:
    return np.array([psi0_potential(state)])


def _psi0_batch(batch: BatchStateBase) -> FloatArray:
    return batch.psi0_potentials()


def _observe_scalar(
    state: LoadStateBase,
    graph: Graph,
    target: StoppingRule | None,
    tolerance: float,
) -> dict[str, np.ndarray]:
    """One scalar state's row, each observable a length-1 array."""
    return {
        "psi0": _psi0_scalar(state),
        "max_load_difference": np.array([state.max_load_difference]),
        "nash_violation": nash_violation_fraction(
            state.loads[None, :], state.speeds, graph, tolerance
        ),
        "total_weight": np.array([_exact_total(state)]),
        "num_tasks": np.array([state.num_tasks]),
        "target_satisfied": np.array(
            [target is not None and target.satisfied(state, graph)]
        ),
    }


def _observe_batch(
    batch: BatchStateBase,
    graph: Graph,
    target: StoppingRule | None,
    tolerance: float,
) -> dict[str, np.ndarray]:
    """One replica stack's row, each observable a length-``R`` array."""
    if target is None:
        satisfied = np.zeros(batch.num_replicas, dtype=bool)
    else:
        satisfied = target.satisfied_batch(
            batch, graph, np.arange(batch.num_replicas, dtype=np.int64)
        )
    return {
        "psi0": _psi0_batch(batch),
        "max_load_difference": batch.max_load_difference,
        "nash_violation": nash_violation_fraction(
            batch.loads, batch.speeds, graph, tolerance
        ),
        "total_weight": _exact_total_batch(batch),
        "num_tasks": batch.num_tasks,
        "target_satisfied": satisfied,
    }


def _replica_outcome(outcome: EventOutcome) -> BatchEventOutcome:
    """A scalar run's event outcome as length-1 replica arrays."""
    return BatchEventOutcome(
        tasks_added=np.array([outcome.tasks_added], dtype=np.int64),
        tasks_removed=np.array([outcome.tasks_removed], dtype=np.int64),
        weight_added=np.array([outcome.weight_added]),
        weight_removed=np.array([outcome.weight_removed]),
        tasks_relocated=np.array([outcome.tasks_relocated], dtype=np.int64),
    )


def _compact_if_sparse(batch: BatchWeightedState) -> None:
    """Repack the padded weighted stack once padding dominates it."""
    widest = int(batch.num_tasks.max(initial=0))
    if batch.max_tasks > _COMPACT_MIN_WIDTH and batch.max_tasks > 2 * widest:
        batch.compact()


def _exact_total(state: LoadStateBase) -> float:
    """A state's exactly conserved total (modulo events)."""
    if isinstance(state, WeightedState):
        return float(state.task_weights.sum())
    if isinstance(state, UniformState):
        return float(state.num_tasks)
    return float(state.total_weight)


def _exact_total_batch(batch: BatchStateBase) -> FloatArray:
    """Per-replica exactly conserved totals (modulo events)."""
    if isinstance(batch, BatchWeightedState):
        return batch.total_task_weight
    if isinstance(batch, BatchUniformState):
        return batch.num_tasks.astype(np.float64)
    return batch.total_weight


def merge_replica_results(results: list[ScenarioResult]) -> ScenarioResult:
    """Concatenate results along the replica axis, in list order.

    Used both to fan scalar per-replica runs back into one ensemble
    result and to merge shard (replica-window) results back into the
    monolithic ensemble: because windowed runs draw exactly their
    replicas' monolithic streams, concatenating the windows in offset
    order reproduces the monolithic ``ScenarioResult`` byte-for-byte.
    Event logs must be deterministic in time (same rounds, same names
    across all inputs); the merged result keeps the first input's engine
    tag and final state.
    """
    if not results:
        raise ValidationError("merge_replica_results needs >= 1 result")
    first = results[0]
    if len(results) == 1:
        return first
    merged_events: list[EventRecord] = []
    for position, record in enumerate(first.events):
        siblings = [result.events[position] for result in results]
        if any(
            sibling.round_index != record.round_index
            or sibling.name != record.name
            for sibling in siblings
        ):
            raise SimulationError(
                "scalar replicas produced diverging event logs; schedules "
                "must be deterministic in time"
            )
        merged_events.append(
            EventRecord(
                round_index=record.round_index,
                name=record.name,
                description=record.description,
                tasks_added=np.concatenate([s.tasks_added for s in siblings]),
                tasks_removed=np.concatenate([s.tasks_removed for s in siblings]),
                weight_added=np.concatenate([s.weight_added for s in siblings]),
                weight_removed=np.concatenate(
                    [s.weight_removed for s in siblings]
                ),
                tasks_relocated=np.concatenate(
                    [s.tasks_relocated for s in siblings]
                ),
                psi0_after=np.concatenate([s.psi0_after for s in siblings]),
            )
        )
    return ScenarioResult(
        final_state=first.final_state,
        engine=first.engine,
        rounds_executed=first.rounds_executed,
        psi0=np.concatenate([r.psi0 for r in results], axis=1),
        max_load_difference=np.concatenate(
            [r.max_load_difference for r in results], axis=1
        ),
        nash_violation=np.concatenate(
            [r.nash_violation for r in results], axis=1
        ),
        total_weight=np.concatenate([r.total_weight for r in results], axis=1),
        num_tasks=np.concatenate([r.num_tasks for r in results], axis=1),
        target_satisfied=np.concatenate(
            [r.target_satisfied for r in results], axis=1
        ),
        events=merged_events,
        # The topology trace is replica-independent (every replica sees
        # the same graph swaps), so the first input's trace is the
        # ensemble's trace.
        lambda2=first.lambda2,
        gap_ratio=first.gap_ratio,
        connected=first.connected,
    )
