"""Scatter-gather execution of a federated plan.

Shard subqueries run concurrently on a thread pool (each shard's
warehouse is its own engine; the sqlite backend serializes statements
on a per-connection lock, so parallelism buys exactly the cross-shard
overlap the paper's single-RDBMS design could not). The coordinator
then

* unions each subplan's bindings across its shards (a document lives
  on exactly one shard, so the union is exact),
* hash-joins units on the shipped cross-unit key values — existential
  over value pairs, the same semantics the monolithic translator's SQL
  join has,
* deduplicates binding combinations across DNF disjuncts and sorts
  them by per-variable ``(shard position, doc_id, node_id)`` — with
  contiguous partitioned loading this reproduces the monolithic
  warehouse's binding order, which is what makes federated results
  byte-identical to single-warehouse results,
* re-assembles RETURN values (and constructor elements) from the
  shipped projections through the same helpers the monolithic
  executor uses.

Cost-based plans add a **two-phase mode**: subplans marked as
semi-join *builds* run first; their distinct join-key values become a
filter shipped into each *probe* subplan's shard subqueries — a
``ValueIn`` conjunct (real parameterized SQL ``IN``) below the IN-list
cutoff, a Bloom-filter check above it — so shards only return bindings
that can possibly join. Bloom false positives are removed by the
coordinator hash-join, which keeps optimized answers byte-identical to
the rule-based (and monolithic) ones. When a build-side shard fails,
its probes degrade to the unfiltered scatter with an explicit warning
rather than risking dropped rows.

A shard that cannot be opened or fails mid-statement costs its rows,
not the query: the executor answers from the surviving shards and says
so in ``result.warnings`` (the same degrade-with-warning philosophy as
harvest quarantine). Planner/user errors still raise.

**Fault tolerance** (see docs/robustness.md, "Query-path fault
tolerance") upgrades that degradation story from *detect* to *cover*:

* every backend — shard primaries and their replicas — is guarded by a
  :class:`repro.resilience.CircuitBreaker`, so a dead backend is
  skipped instantly instead of paying a connection attempt per query;
* a failed or timed-out subquery **fails over** to the shard's next
  healthy replica (replicas hold the same entry slice, so a covered
  loss keeps the answer byte-identical);
* an optional **deadline** bounds the whole query: per-shard attempts
  inherit the remaining budget and stragglers are cancelled through
  ``Warehouse.interrupt()`` (SQLite's cross-thread statement abort);
* with a spare replica available, a **hedge** duplicate of the
  subquery launches after a delay derived from the shard's latency
  EWMA (a p95 proxy: EWMA × multiplier) — first result wins, the
  loser is interrupted, and losing to a hedge (or to the deadline)
  counts against the loser's breaker, so a stalled backend that keeps
  getting out-raced ends up skipped entirely.

All of it lands on the metrics plane (``federation.shard_retries`` /
``failovers`` / ``hedges`` / ``hedge_wins`` / ``breaker_state``) and as
``backend`` / ``attempts`` / ``hedged`` annotations on the
``shard_subquery`` trace spans.

One caveat worth knowing when reading interrupt-related code:
``sqlite3.Connection.interrupt`` aborts *whatever statement is running
on that connection*, so cancelling a straggler on a backend that is
concurrently serving another subquery of the same query can abort that
one too — the victim surfaces as a degradable error and takes the same
retry/failover path, so the answer survives; it just costs an extra
attempt.
"""

from __future__ import annotations

import dataclasses
import queue as queue_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import (
    ShardUnreachableError,
    StorageError,
    UnknownDocumentError,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.resilience import OPEN, CircuitBreaker
from repro.federation.costs import (
    INLIST_CUTOFF,
    ROW_OVERHEAD_BYTES,
    BloomFilter,
)
from repro.federation.planner import (
    FederatedPlan,
    SemiJoinPushdown,
    ShardSubPlan,
)
from repro.results.resultset import (
    BoundNode,
    QueryResult,
    ResultRow,
    unique_columns,
)
from repro.translator.execute import _build_element
from repro.xmlkit.serializer import serialize_compact
from repro.xquery.ast import BoolAnd, ValueIn, VarPath

#: failures the query path degrades on — a shard that is gone or whose
#: store is broken; anything else (syntax, semantics, bugs) propagates
DEGRADABLE = (ShardUnreachableError, StorageError)


@dataclass(frozen=True)
class FaultPolicy:
    """Knobs of the fault-tolerant subquery path.

    ``retries_per_backend`` counts attempts on one backend before
    failing over to the next (1 = fail over immediately);
    ``retry_delay_s`` is the pause between a failed attempt and its
    same-backend retry (measured on the executor's injectable
    ``clock``; failover to another backend starts at once).
    ``subquery_timeout_s`` bounds a
    single backend attempt; a per-query deadline (``X-Deadline-Ms``)
    additionally bounds everything, whichever is tighter.

    Hedging fires a duplicate subquery on a spare healthy replica once
    the primary has been out for ``hedge_delay_s`` — or, when that is
    None, for ``max(hedge_min_delay_s, EWMA latency × hedge_multiplier)``
    from the statistics catalog (the EWMA-based p95 proxy: a request
    slower than several times its moving average is in the tail).
    ``hedge=False`` disables hedging outright.

    Breaker knobs are tighter than the harvest plane's (threshold 3,
    5 s cooldown): query traffic is dense enough that three straight
    failures mean *down*, and probes are cheap.
    """

    retries_per_backend: int = 1
    retry_delay_s: float = 0.0
    subquery_timeout_s: float | None = None
    hedge: bool = True
    hedge_delay_s: float | None = None
    hedge_multiplier: float = 4.0
    hedge_min_delay_s: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0


@dataclass(frozen=True)
class ShardBoundNode(BoundNode):
    """A bound element plus the shard its document lives on (document
    fetch must go back to the right warehouse)."""

    shard: str = ""


@dataclass
class _UnitRow:
    """One shipped binding tuple of one subplan."""

    bindings: dict[str, ShardBoundNode]
    sort_keys: dict[str, tuple]      # var → (shard position, doc, node)
    values: dict[str, list[str]]     # str(varpath) → shipped values


class ScatterGatherExecutor:
    """Runs :class:`FederatedPlan` objects against a shard catalog."""

    def __init__(self, catalog, metrics=NULL_METRICS, tracer=NULL_TRACER,
                 max_workers: int | None = None, stats=None,
                 policy: FaultPolicy | None = None):
        self.catalog = catalog
        self.metrics = metrics
        self.tracer = tracer
        self.max_workers = max_workers
        #: statistics catalog fed with runtime latency/row observations
        self.stats = stats
        self.policy = policy if policy is not None else FaultPolicy()
        #: injectable sleep honouring ShardSpec.latency_s (simulated
        #: remote-shard round-trips; tests pass a recorder)
        self.sleep = time.sleep
        #: injectable clock driving deadlines, timeouts and breakers
        self.clock = time.monotonic
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()

    # -- breakers -------------------------------------------------------------

    def breaker(self, backend: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding one backend — a shard
        primary (``s0``) or a replica (``s0#r0``)."""
        with self._breaker_lock:
            breaker = self._breakers.get(backend)
            if breaker is None:
                breaker = self._breakers[backend] = CircuitBreaker(
                    backend,
                    failure_threshold=self.policy.breaker_threshold,
                    cooldown_s=self.policy.breaker_cooldown_s,
                    clock=self.clock, metrics=self.metrics,
                    gauge="federation.breaker_state", label="backend",
                    event_prefix="federation.breaker")
            return breaker

    def breaker_states(self) -> dict[str, dict]:
        """Per-backend breaker status (the health report's view)."""
        with self._breaker_lock:
            return {backend: breaker.status()
                    for backend, breaker in sorted(self._breakers.items())}

    def breaker_is_open(self, backend: str) -> bool:
        """Read-only open check for callers outside the attempt path:
        the facade's admin probes (stats, keyword search, document
        resolution) use it to try healthy backends first without
        mutating the breaker state machine — half-open probing stays
        the query path's job."""
        with self._breaker_lock:
            breaker = self._breakers.get(backend)
        return breaker is not None and breaker.state == OPEN

    def execute(self, plan: FederatedPlan,
                deadline_s: float | None = None) -> QueryResult:
        """Scatter, gather, join, assemble. ``deadline_s`` bounds the
        whole execution: subqueries still running once it passes are
        interrupted and their shards reported as failed."""
        deadline = (self.clock() + deadline_s
                    if deadline_s is not None else None)
        self.metrics.inc("federation.queries")
        self.metrics.inc("federation.fanout", plan.fanout)
        with self.tracer.span("federated_query", query=plan.text,
                              fanout=plan.fanout) as root:
            if deadline_s is not None:
                root.meta["deadline_ms"] = round(deadline_s * 1000.0, 3)
            if plan.route_shard is not None:
                result = self._route(plan, root, deadline)
            else:
                result = self._scatter(plan, root, deadline)
            root.count("result_rows", len(result))
        if self.tracer.enabled:
            result.trace = root
        return result

    # -- single-shard fast path ----------------------------------------------

    def _route(self, plan: FederatedPlan, root, deadline) -> QueryResult:
        """Every source lives whole on one shard: hand the original
        query to that shard's engine untouched."""
        shard = plan.route_shard
        with self.tracer.span("shard_subquery", parent=root,
                              shard=shard, route="single") as span:
            started = time.perf_counter()
            try:
                result, backend, info = self._resilient_subquery(
                    plan.text, plan.query, shard, deadline, span)
            except DEGRADABLE as exc:
                span.meta["error"] = str(exc)
                return self._degraded_result(
                    plan, [self._warn(shard, exc)], shard)
            self._annotate_attempt(span, backend, info)
            self._observe_shard(shard, time.perf_counter() - started,
                                len(result.rows), span,
                                sum(_row_bytes(row.values)
                                    for row in result.rows))
            for row in result.rows:
                row.bindings = {
                    var: ShardBoundNode(doc_id=node.doc_id,
                                        node_id=node.node_id, shard=shard)
                    for var, node in row.bindings.items()}
            return result

    # -- scatter-gather -------------------------------------------------------

    def _scatter(self, plan: FederatedPlan, root, deadline) -> QueryResult:
        unit_rows: dict[int, list[_UnitRow]] = {
            subplan.index: [] for subplan in plan.subplans}
        warnings: list[str] = []
        lost: set[str] = set()
        self._observe_optimizer(plan, root)

        by_probe: dict[int, SemiJoinPushdown] = {
            semijoin.probe: semijoin for semijoin in plan.semijoins}
        phase_one = [(subplan, None, None) for subplan in plan.subplans
                     if subplan.index not in by_probe]
        failed = self._run_phase(plan, phase_one, unit_rows, warnings,
                                 root, deadline, lost)

        phase_two = []
        for subplan in plan.subplans:
            semijoin = by_probe.get(subplan.index)
            if semijoin is None:
                continue
            if semijoin.build in failed:
                # the filter cannot be trusted when part of its build
                # side is missing — scan unfiltered instead of silently
                # dropping probe rows that might still join elsewhere
                warnings.append(
                    f"semi-join filter for {' and '.join(subplan.sources)} "
                    f"unavailable (build side degraded); scanning "
                    f"unfiltered")
                phase_two.append((subplan, None, None))
                continue
            phase_two.append(
                self._filtered_subplan(subplan, semijoin, unit_rows))
        if phase_two:
            self._run_phase(plan, phase_two, unit_rows, warnings, root,
                            deadline, lost)

        with self.tracer.span("coordinator_join") as span:
            combos = self._gather(plan, unit_rows)
            result = self._assemble(plan, combos)
            span.count("combos", len(combos))
        result.warnings.extend(warnings)
        result.failed_shards = sorted(lost)
        if warnings:
            self.metrics.inc("federation.partial_results")
        return result

    def _run_phase(self, plan: FederatedPlan, entries, unit_rows,
                   warnings: list[str], root, deadline,
                   lost: set[str]) -> set[int]:
        """Run one phase's ``(subplan, bloom, semijoin mode)`` entries
        across their shards; returns the subplan ids that lost at
        least one shard (and adds the shard names to ``lost``)."""
        tasks = [(subplan, bloom, mode, shard)
                 for subplan, bloom, mode in entries
                 for shard in subplan.shards]
        if not tasks:
            return set()
        if self.max_workers is not None:
            workers = self.max_workers
        else:
            workers = len(tasks)
        if workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(
                    max_workers=min(workers, len(tasks)),
                    thread_name_prefix="shard") as pool:
                futures = [pool.submit(self._run_subquery, plan,
                                       subplan, shard, root, bloom,
                                       mode, deadline)
                           for subplan, bloom, mode, shard in tasks]
                outcomes = [future.result() for future in futures]
        else:
            outcomes = [self._run_subquery(plan, subplan, shard, root,
                                           bloom, mode, deadline)
                        for subplan, bloom, mode, shard in tasks]
        failed: set[int] = set()
        for (subplan, __, ___, shard), (rows, warning) in zip(tasks,
                                                              outcomes):
            if warning is not None:
                warnings.append(warning)
                failed.add(subplan.index)
                lost.add(shard)
            else:
                unit_rows[subplan.index].extend(rows)
        return failed

    def _filtered_subplan(self, subplan: ShardSubPlan,
                          semijoin: SemiJoinPushdown, unit_rows):
        """Attach the build side's join-key values to a probe subplan:
        an IN-list rewrite of the subquery below the cutoff (the filter
        runs inside the shard's SQL), a Bloom post-check above it.
        Returns a ``(subplan, bloom, semijoin mode)`` phase entry."""
        values = sorted({value
                        for row in unit_rows[semijoin.build]
                        for value in row.values.get(semijoin.build_key, [])
                        if value})
        if len(values) <= INLIST_CUTOFF:
            self.metrics.inc("federation.semijoin_filters", mode="inlist")
            atom = ValueIn(target=semijoin.probe_path,
                           values=tuple(values))
            where = subplan.subquery.where
            if where is None:
                conjunction = atom
            elif isinstance(where, BoolAnd):
                conjunction = BoolAnd(items=where.items + (atom,))
            else:
                conjunction = BoolAnd(items=(where, atom))
            subquery = dataclasses.replace(subplan.subquery,
                                           where=conjunction)
            rewritten = dataclasses.replace(subplan, subquery=subquery,
                                            text=str(subquery))
            return rewritten, None, "inlist"
        self.metrics.inc("federation.semijoin_filters", mode="bloom")
        return subplan, (semijoin.probe_key, BloomFilter(values)), "bloom"

    def _run_subquery(self, plan: FederatedPlan, subplan: ShardSubPlan,
                      shard: str, root, bloom=None, mode=None,
                      deadline=None):
        """One (subplan, shard) task; returns ``(rows, warning)``.

        ``bloom`` is a ``(value key, BloomFilter)`` pair: the shipped
        semi-join filter, applied before rows count as shipped (it
        models the filter running at the shard's end of the wire).
        ``mode`` labels the span with the semi-join flavour in play.

        This runs on a pool worker thread, so the shard span is opened
        with an **explicit parent** — the coordinator's
        ``federated_query`` span — because a worker's thread-local span
        stack starts empty and cannot see the coordinator's. The shard
        warehouse shares the federation tracer, so its own ``query``
        span (and every SQL statement record) nests under this one —
        the attempt thread that runs it joins this span — giving one
        connected tree from request to statement.
        """
        meta = {"shard": shard, "sources": ", ".join(subplan.sources)}
        if mode is not None:
            meta["semijoin"] = mode
        with self.tracer.span("shard_subquery", parent=root,
                              **meta) as span:
            started = time.perf_counter()
            try:
                result, backend, info = self._resilient_subquery(
                    subplan.text, subplan.subquery, shard, deadline, span)
            except UnknownDocumentError:
                # the shard hosts the source but holds none of its
                # documents (an empty partition slice): zero bindings,
                # not a fault
                return [], None
            except DEGRADABLE as exc:
                span.meta["error"] = str(exc)
                return [], self._warn(shard, exc, subplan)
            self._annotate_attempt(span, backend, info)
            rows = self._unit_rows(plan, subplan, shard, result)
            if bloom is not None:
                key, shipped_filter = bloom
                kept = [row for row in rows
                        if any(value and value in shipped_filter
                               for value in row.values.get(key, []))]
                self.metrics.inc("federation.rows_pruned",
                                 len(rows) - len(kept))
                rows = kept
            self._observe_shard(shard, time.perf_counter() - started,
                                len(rows), span,
                                sum(_row_bytes(row.values) for row in rows))
            return rows, None

    def _unit_rows(self, plan: FederatedPlan, subplan: ShardSubPlan,
                   shard: str, result: QueryResult) -> list[_UnitRow]:
        """Reshape one shard result into coordinator unit rows."""
        position = {var: self.catalog.shard_position(
            plan.var_source[var], shard) for var in subplan.vars}
        rows: list[_UnitRow] = []
        for row in result.rows:
            bindings: dict[str, ShardBoundNode] = {}
            sort_keys: dict[str, tuple] = {}
            for var in subplan.vars:
                node = row.bindings[var]
                bindings[var] = ShardBoundNode(
                    doc_id=node.doc_id, node_id=node.node_id,
                    shard=shard)
                sort_keys[var] = (position[var], node.doc_id,
                                  node.node_id)
            values = {key: row.values.get(column, [])
                      for key, column in zip(subplan.item_keys,
                                             result.columns)}
            rows.append(_UnitRow(bindings=bindings, sort_keys=sort_keys,
                                 values=values))
        return rows

    # -- fault-tolerant subquery attempts -------------------------------------

    def _resilient_subquery(self, text: str, ast, shard: str, deadline,
                            span):
        """Run one shard subquery with breakers, retries, failover,
        timeouts and hedging under the open ``span``; returns
        ``(result, winning backend, info)``.

        Each attempt runs on its own thread, so the coordinator can
        outlive (and interrupt) a stuck backend call: the per-attempt
        timeout, the query deadline, the hedge delay and the retry
        delay are all waits on one outcome queue. A straggler that
        loses — to the deadline, its timeout, or a faster hedge — is
        cancelled with ``Warehouse.interrupt()``; its late outcome, if
        any, is ignored by attempt token.

        Raises the last degradable error when every usable backend is
        exhausted, :class:`ShardUnreachableError` when all breakers are
        open or the deadline passes, and lets
        :class:`UnknownDocumentError` (an empty partition slice — not
        a fault) propagate to the caller untouched.
        """
        candidates = []
        for backend in self.catalog.backends_for(shard):
            if self.breaker(backend).allow():
                candidates.append(backend)
            else:
                self.metrics.inc("federation.breaker_skips",
                                 backend=backend)
        if not candidates:
            raise ShardUnreachableError(
                f"shard {shard!r}: circuit breaker open for every "
                f"backend (cooling down "
                f"{self.policy.breaker_cooldown_s}s)")
        if deadline is not None and self.clock() >= deadline:
            raise ShardUnreachableError(
                f"shard {shard!r}: query deadline exhausted before "
                f"the subquery could start")
        policy = self.policy
        retries = max(1, policy.retries_per_backend)
        schedule = [backend for backend in candidates
                    for __ in range(retries)]
        outcomes: queue_module.Queue = queue_module.Queue()
        launched: dict[int, tuple[str, float]] = {}
        in_flight: dict[int, str] = {}
        cursor = 0
        token_counter = 0
        last_exc = None
        #: a same-backend retry waiting out ``retry_delay_s``:
        #: ``(backend, clock time it may start)``
        retry = None

        def attempt(backend: str, token: int) -> None:
            with self.tracer.inside(span):
                try:
                    outcomes.put((token, self._query_backend(
                        text, ast, backend), None))
                except BaseException as exc:  # noqa: BLE001 - ferried
                    outcomes.put((token, None, exc))

        def launch(backend: str) -> int:
            nonlocal token_counter
            token_counter += 1
            token = token_counter
            launched[token] = (backend, self.clock())
            in_flight[token] = backend
            thread = threading.Thread(target=attempt,
                                      args=(backend, token),
                                      name=f"subq-{backend}",
                                      daemon=True)
            thread.start()
            return token

        def next_backend(exclude=()) -> str | None:
            nonlocal cursor
            while cursor < len(schedule):
                backend = schedule[cursor]
                cursor += 1
                if backend not in exclude:
                    return backend
            return None

        def advance(failed: str) -> None:
            """Nothing is in flight and ``failed`` just failed: start
            the next scheduled attempt — a failover at once, a retry of
            the same backend once ``retry_delay_s`` has passed. With
            the schedule spent, the loop ends and re-raises."""
            nonlocal retry
            backend = next_backend()
            if backend is None:
                return
            if backend != failed:
                self.metrics.inc("federation.failovers", shard=shard)
                launch(backend)
                return
            self.metrics.inc("federation.shard_retries", shard=shard)
            if policy.retry_delay_s:
                retry = (backend, self.clock() + policy.retry_delay_s)
            else:
                launch(backend)

        def abandon() -> None:
            for backend in in_flight.values():
                self._interrupt(backend)
            in_flight.clear()

        primary_start = self.clock()
        launch(next_backend())
        hedge_at = None
        hedge_token = None
        if policy.hedge and len(candidates) > 1:
            hedge_at = primary_start + self._hedge_delay(shard)

        while in_flight or retry is not None:
            now = self.clock()
            if deadline is not None and now >= deadline:
                # blowing the whole query budget counts against every
                # backend still running — a shard that keeps eating
                # deadlines must eventually trip its breaker
                for straggler in in_flight.values():
                    self.breaker(straggler).record_failure()
                abandon()
                raise ShardUnreachableError(
                    f"shard {shard!r}: query deadline exceeded; "
                    f"straggler subqueries interrupted")
            waits = []
            if deadline is not None:
                waits.append(deadline - now)
            if policy.subquery_timeout_s is not None and in_flight:
                earliest = min(launched[token][1]
                               for token in in_flight)
                waits.append(earliest + policy.subquery_timeout_s - now)
            if hedge_at is not None and hedge_token is None:
                waits.append(hedge_at - now)
            if retry is not None:
                waits.append(retry[1] - now)
            wait = max(0.0, min(waits)) if waits else None
            try:
                token, result, exc = outcomes.get(timeout=wait)
            except queue_module.Empty:
                now = self.clock()
                if retry is not None and now >= retry[1]:
                    launch(retry[0])
                    retry = None
                    continue
                if (hedge_at is not None and hedge_token is None
                        and now >= hedge_at):
                    backend = next_backend(
                        exclude=set(in_flight.values()))
                    hedge_at = None
                    if backend is not None:
                        self.metrics.inc("federation.hedges", shard=shard)
                        hedge_token = launch(backend)
                    continue
                if policy.subquery_timeout_s is not None:
                    expired = [token for token in list(in_flight)
                               if now >= launched[token][1]
                               + policy.subquery_timeout_s]
                    for token in expired:
                        backend = in_flight.pop(token)
                        self._interrupt(backend)
                        self.breaker(backend).record_failure()
                        self.metrics.inc("federation.shard_timeouts",
                                         shard=shard)
                        last_exc = ShardUnreachableError(
                            f"shard {shard!r}: backend {backend!r} "
                            f"exceeded its "
                            f"{policy.subquery_timeout_s}s subquery "
                            f"timeout")
                    if expired and not in_flight and retry is None:
                        advance(backend)
                continue
            if token not in in_flight:
                continue  # a straggler we already gave up on
            backend = in_flight.pop(token)
            if exc is None:
                self.breaker(backend).record_success()
                hedge_won = (hedge_token is not None
                             and token == hedge_token)
                if hedge_won:
                    # the hedge outracing the primary is hard evidence
                    # the primary is deep in its latency tail (the
                    # hedge only fired because the p95 proxy elapsed):
                    # count the loss against its breaker so a stalled
                    # backend stops being tried at all. A hedge that
                    # fired but *lost* costs the primary nothing.
                    for loser in in_flight.values():
                        self.breaker(loser).record_failure()
                    self.metrics.inc("federation.hedge_wins", shard=shard)
                abandon()
                return result, backend, {
                    "attempts": token_counter,
                    "hedged": hedge_token is not None,
                    "hedge_won": hedge_won}
            if isinstance(exc, UnknownDocumentError):
                self.breaker(backend).record_success()
                abandon()
                raise exc
            if not isinstance(exc, DEGRADABLE):
                abandon()
                raise exc
            self.breaker(backend).record_failure()
            last_exc = exc
            if not in_flight and retry is None:
                advance(backend)
        if last_exc is not None:
            raise last_exc
        raise ShardUnreachableError(
            f"shard {shard!r}: no backend attempt completed")

    def _query_backend(self, text: str, ast, backend: str):
        """One raw attempt against one backend (latency sleep, lazy
        open, subquery)."""
        latency = self.catalog.spec(backend).latency_s
        if latency:
            # one simulated round-trip per attempt; the sleep drops
            # the GIL, so concurrent scatter overlaps the waits
            # exactly as it would overlap network hops
            self.sleep(latency)
        warehouse = self.catalog.warehouse(backend)
        return warehouse.xomatiq.query(text, ast=ast)

    def _hedge_delay(self, shard: str) -> float:
        """How long the primary may run before a duplicate fires on a
        replica: the explicit policy value when set, else a p95 proxy
        from the statistics EWMAs (a request several times slower than
        the shard's moving average is in the tail), floored so cold
        stats never hedge instantly."""
        policy = self.policy
        if policy.hedge_delay_s is not None:
            return policy.hedge_delay_s
        if self.stats is not None:
            record = self.stats.shard(shard)
            ewma = getattr(record, "ewma_seconds", None)
            if ewma:
                return max(policy.hedge_min_delay_s,
                           ewma * policy.hedge_multiplier)
        return policy.hedge_min_delay_s

    def _interrupt(self, backend: str) -> None:
        """Cancel whatever the backend is running for us (breaking
        into its current statement; see the module caveat). A backend
        that never opened has nothing to interrupt."""
        warehouse = self.catalog.peek(backend)
        if warehouse is None:
            return
        try:
            warehouse.interrupt()
        except Exception:
            return  # the backend is already broken; nothing to cancel
        self.metrics.inc("federation.interrupts", backend=backend)

    def _annotate_attempt(self, span, backend: str, info: dict) -> None:
        """Stamp the winning backend and attempt shape on the
        subquery's trace span."""
        span.meta["backend"] = backend
        if info.get("attempts", 1) > 1:
            span.meta["attempts"] = info["attempts"]
        if info.get("hedged"):
            span.meta["hedged"] = True
        if info.get("hedge_won"):
            span.meta["hedge_won"] = True

    # -- coordinator join -----------------------------------------------------

    def _gather(self, plan: FederatedPlan,
                unit_rows: dict[int, list[_UnitRow]]) -> list:
        """Join each disjunct's units, dedupe combinations across
        disjuncts, and order them like the monolithic executor would.

        Returns ``[(var → unit row)]`` sorted by per-variable
        ``(shard position, doc_id, node_id)``.
        """
        accepted: dict[tuple, tuple] = {}
        for disjunct in plan.disjuncts:
            for combo in self._join_disjunct(disjunct, unit_rows):
                var_rows = {var: combo[unit]
                            for var, unit in disjunct.var_unit.items()}
                key = tuple(
                    (var_rows[var].bindings[var].shard,
                     var_rows[var].bindings[var].doc_id,
                     var_rows[var].bindings[var].node_id)
                    for var in plan.variables)
                if key not in accepted:
                    sort_key = tuple(var_rows[var].sort_keys[var]
                                     for var in plan.variables)
                    accepted[key] = (sort_key, var_rows)
        return [var_rows for __, var_rows in
                sorted(accepted.values(), key=lambda item: item[0])]

    def _join_disjunct(self, disjunct,
                       unit_rows: dict[int, list[_UnitRow]]) -> list:
        """All surviving unit-row combinations of one disjunct, as
        ``{subplan id → unit row}`` dicts."""
        var_unit = disjunct.var_unit
        combos: list[dict[int, _UnitRow]] = [{}]
        joined: set[int] = set()
        for unit in disjunct.subplan_ids:
            rows = unit_rows.get(unit, [])
            if not combos or not rows:
                return []
            applicable = [atom for atom in disjunct.atoms
                          if self._applies(atom, var_unit, joined, unit)]
            hash_atom = next(
                (atom for atom in applicable
                 if atom.op == "=" and not atom.negated), None)
            rest = [atom for atom in applicable if atom is not hash_atom]
            if hash_atom is not None:
                probe = self._hash_join(hash_atom, var_unit, unit, rows)
            else:
                probe = lambda combo: rows  # noqa: E731 - cross product
            next_combos = []
            for combo in combos:
                for row in probe(combo):
                    extended = dict(combo)
                    extended[unit] = row
                    if all(self._atom_holds(atom, var_unit, extended)
                           for atom in rest):
                        next_combos.append(extended)
            combos = next_combos
            joined.add(unit)
        return combos

    @staticmethod
    def _applies(atom, var_unit, joined: set[int], unit: int) -> bool:
        """An atom is applied the moment its second unit joins."""
        left, right = var_unit[atom.left.var], var_unit[atom.right.var]
        return ({left, right} <= joined | {unit}
                and unit in (left, right))

    def _hash_join(self, atom, var_unit, unit: int,
                   rows: list[_UnitRow]):
        """Probe function for one equality atom: index the joining
        unit's rows by shipped key value, look prior combos up by the
        other side's values. Empty string values never join — an
        element with no text produces no value row in the monolithic
        SQL join either."""
        if var_unit[atom.left.var] == unit:
            build_key, probe_key = atom.left_key, atom.right_key
        else:
            build_key, probe_key = atom.right_key, atom.left_key
        index: dict[str, list[_UnitRow]] = {}
        for row in rows:
            for value in row.values.get(build_key, []):
                if value:
                    index.setdefault(value, []).append(row)

        def probe(combo: dict[int, _UnitRow]) -> list[_UnitRow]:
            other = var_unit[atom.left.var if probe_key == atom.left_key
                             else atom.right.var]
            candidates: list[_UnitRow] = []
            seen: set[int] = set()
            for value in combo[other].values.get(probe_key, []):
                if not value:
                    continue
                for row in index.get(value, []):
                    if id(row) not in seen:
                        seen.add(id(row))
                        candidates.append(row)
            return candidates

        return probe

    def _atom_holds(self, atom, var_unit,
                    combo: dict[int, _UnitRow]) -> bool:
        """Existential comparison over the two operands' shipped
        values (SQL-join semantics); negation inverts the existence."""
        left = combo[var_unit[atom.left.var]].values.get(
            atom.left_key, [])
        right = combo[var_unit[atom.right.var]].values.get(
            atom.right_key, [])
        holds = any(
            _compare(lv, atom.op, rv)
            for lv in left if lv for rv in right if rv)
        return (not holds) if atom.negated else holds

    # -- output assembly ------------------------------------------------------

    def _assemble(self, plan: FederatedPlan, combos: list) -> QueryResult:
        """Rebuild rows in the monolithic result shape from shipped
        values (constructor items reuse the monolithic executor's
        element builder)."""
        columns = unique_columns([item.output_name
                                  for item in plan.query.returns])
        result = QueryResult(columns=columns,
                             variables=list(plan.variables))
        for var_rows in combos:
            row = ResultRow(bindings={
                var: var_rows[var].bindings[var]
                for var in plan.variables})

            def values_for(varpath: VarPath) -> list[str]:
                return var_rows[varpath.var].values.get(
                    str(varpath), [])

            for column, item in zip(columns, plan.query.returns):
                if item.constructor is not None:
                    element = _build_element(
                        item.constructor,
                        [values_for(varpath)
                         for varpath in item.constructor.varpaths()])
                    row.elements[column] = element
                    row.values[column] = [serialize_compact(element)]
                else:
                    row.values[column] = values_for(item.value)
            result.rows.append(row)
        return result

    def _degraded_result(self, plan: FederatedPlan, warnings: list[str],
                         shard: str | None = None) -> QueryResult:
        """Empty-but-answering result for a fully lost route."""
        self.metrics.inc("federation.partial_results")
        columns = unique_columns([item.output_name
                                  for item in plan.query.returns])
        return QueryResult(columns=columns,
                           variables=list(plan.variables),
                           warnings=warnings,
                           failed_shards=[shard] if shard else [])

    # -- bookkeeping ----------------------------------------------------------

    def _warn(self, shard: str, exc: Exception,
              subplan: ShardSubPlan | None = None) -> str:
        self.metrics.inc("federation.shard_errors", shard=shard)
        sources = (" and ".join(subplan.sources)
                   if subplan is not None else "this query")
        return (f"shard {shard!r} unavailable — results for {sources} "
                f"are partial: {exc}")

    def _observe_optimizer(self, plan: FederatedPlan, root) -> None:
        """Record what the cost-based pass claimed and removed."""
        if not plan.cost_based:
            return
        estimated = round(sum(plan.estimated_rows.values()))
        if plan.estimated_rows:
            self.metrics.inc("federation.estimated_rows", estimated)
            root.count("estimated_rows", estimated)
        if plan.pruned:
            self.metrics.inc("federation.shards_pruned", len(plan.pruned))
            root.count("shards_pruned", len(plan.pruned))
        if plan.semijoins:
            root.count("semijoin_filters", len(plan.semijoins))

    def _observe_shard(self, shard: str, seconds: float, rows: int,
                       span, bytes_shipped: int = 0) -> None:
        """Record one finished shard visit on the metrics plane and on
        its (live, worker-opened) ``shard_subquery`` span. The span's
        trace id doubles as the ``federation.shard_seconds`` exemplar,
        tying the latency bucket to a resolvable trace."""
        self.metrics.observe("federation.shard_seconds", seconds,
                             shard=shard, exemplar=span.trace_id or None)
        self.metrics.inc("federation.rows_shipped", rows)
        self.metrics.inc("federation.bytes_shipped", bytes_shipped)
        if self.stats is not None:
            self.stats.record_observation(shard, seconds, rows)
        span.counters["rows_shipped"] = rows
        span.counters["bytes_shipped"] = bytes_shipped


def _row_bytes(values: dict) -> int:
    """Serialized size estimate of one shipped binding: fixed framing
    plus the value strings (the ``federation.bytes_shipped`` unit)."""
    return ROW_OVERHEAD_BYTES + sum(
        len(value) for items in values.values() for value in items)


_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compare(left: str, op: str, right: str) -> bool:
    return _OPS[op](left, right)
