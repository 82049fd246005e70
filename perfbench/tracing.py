"""Span tracing for the traced benchmark run, recorded from outside ``src/``.

:class:`Tracer` wraps the public entry points of each layer of the
verification stack while a traced request runs and restores them
afterwards, so untraced requests execute the program exactly as shipped.
Every wrapped call becomes a span ``(name, start, end, parent)``; spans
stay in memory and are written out when the run ends.  A span's *self
time* is its duration minus the durations of its child spans.  Calls are
synchronous, so children should never overlap; a negative self time
shows that they do, and the benchmark then marks the run incorrect.

Layer of each span (the names later claims refer to):

==========================  =========================================
span                        wrapped entry point
==========================  =========================================
``session.init``            ``EncodingSession.__init__``
``session.extend_to``       ``EncodingSession.extend_to``
``session.p_lits``          ``EncodingSession.p_lits``
``unroller.add_frame``      ``Unroller.add_frame`` (AIG build)
``emm.add_frame``           ``EmmMemory.add_frame``
``induction.add_frame``     ``LoopFreeConstraints.add_frame``
``sat.solve``               ``Solver.solve`` (kind: forward/backward/base)
``sat.core_labels``         ``Solver.core_labels``
``counterexample.extract``  ``repro.bmc.engine.extract_trace`` (+ replay)
``bmc.verify_many``         ``repro.bmc.engine.verify_many``
``bmc.engine.run``          ``BmcEngine.run``
``pba.verify``              ``repro.pba.abstraction.verify_with_pba``
``pba.phase``               ``repro.pba.abstraction.run_pba_phase``
``pba.minimize``            ``repro.pba.minimize.minimize_reasons``
``service.collect``         ``VerificationService.collect``
``service.stream``          ``VerificationService.stream`` (generator)
``service.record``          one stream record, from the previous arrival
``service.close``           ``VerificationService.close`` (pool reaping)
==========================  =========================================
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager

import repro.bmc.engine as bmc_engine
import repro.pba.abstraction as pba_abstraction
import repro.pba.minimize as pba_minimize
from repro.bmc.engine import BmcEngine
from repro.bmc.induction import LoopFreeConstraints
from repro.bmc.session import EncodingSession
from repro.bmc.unroller import Unroller
from repro.emm.forwarding import EmmMemory
from repro.sat.solver import Solver
from repro.service.service import (CANCELLED, RETRY, ServiceResult,
                                   VerificationService)
from workloads import session_counters

_now = time.perf_counter

#: (owner, attribute, span name) of every plain wrapped entry point.
_ENTRY_POINTS = (
    (EncodingSession, "extend_to", "session.extend_to"),
    (EncodingSession, "p_lits", "session.p_lits"),
    (Unroller, "add_frame", "unroller.add_frame"),
    (EmmMemory, "add_frame", "emm.add_frame"),
    (LoopFreeConstraints, "add_frame", "induction.add_frame"),
    (Solver, "core_labels", "sat.core_labels"),
    (bmc_engine, "verify_many", "bmc.verify_many"),
    (BmcEngine, "run", "bmc.engine.run"),
    (pba_abstraction, "verify_with_pba", "pba.verify"),
    (pba_abstraction, "run_pba_phase", "pba.phase"),
    (pba_minimize, "minimize_reasons", "pba.minimize"),
    (VerificationService, "collect", "service.collect"),
    (VerificationService, "close", "service.close"),
)

#: Span names whose self time is scheduler/flow glue (``engine.self_s``).
_ENGINE_SPANS = ("bmc.verify_many", "bmc.engine.run", "pba.verify")

#: Layer figures that count work rather than time it.  They are fixed by
#: the inputs, so every traced request of a run must repeat them exactly.
COUNT_METRICS = (
    "sat.solves", "sat.solves_forward", "sat.solves_backward",
    "sat.solves_base", "sat.decisions", "sat.propagations", "sat.conflicts",
    "sat.trail_saved_levels", "session.clauses_vars", "emm.clauses",
    "emm.vars", "emm.addr_eq_cache_hits", "aig.nodes",
    "counterexample.traces", "pba.kept_latch_bits", "pba.minimize_checks")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict = {}

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]


class Tracer:
    """Records spans of traced requests; see the module docstring."""

    def __init__(self) -> None:
        #: One span list per traced request; index 0 is the request root.
        self.requests: list[list[Span]] = []
        #: Encoding sessions built during the current traced request.
        self.sessions: list[EncodingSession] = []
        #: (arrival time, ServiceResult) of the current request's stream.
        self.arrivals: list[tuple[float, ServiceResult]] = []
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._by_solver: dict[int, EncodingSession] = {}
        self._undo: list[tuple[object, str, object]] = []
        # Forked service workers inherit the wrappers; they must not record.
        self._pid = os.getpid()

    # -- span bookkeeping ---------------------------------------------------

    def _recording(self) -> bool:
        return bool(self._stack) and os.getpid() == self._pid

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, self._stack[-1])
        self._stack.append(len(self._spans))
        self._spans.append(span)
        span.start = _now()
        return span

    def _close(self, span: Span) -> None:
        span.end = _now()
        self._stack.pop()

    @contextmanager
    def request(self):
        """Root span of one traced request; yields the root span."""
        root = Span("request", 0.0, -1)
        self._spans = [root]
        self._stack = [0]
        self.sessions = []
        self.arrivals = []
        self._by_solver = {}
        self._install()
        root.start = _now()
        try:
            yield root
        finally:
            root.end = _now()
            self._uninstall()
            self._stack = []
            self.requests.append(self._spans)

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(wrapper(orig)))

    def _install(self) -> None:
        for owner, attr, name in _ENTRY_POINTS:
            self._patch(owner, attr, self._plain(name))
        self._patch(EncodingSession, "__init__", self._session_init)
        self._patch(Solver, "solve", self._solve)
        self._patch(bmc_engine, "extract_trace", self._extract)
        self._patch(VerificationService, "stream", self._stream)

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _plain(self, name: str):
        def make(orig):
            def wrapper(*args, **kwargs):
                if not self._recording():
                    return orig(*args, **kwargs)
                span = self._open(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._close(span)
            return wrapper
        return make

    def _session_init(self, orig):
        def wrapper(session, *args, **kwargs):
            if not self._recording():
                return orig(session, *args, **kwargs)
            span = self._open("session.init")
            try:
                orig(session, *args, **kwargs)
            finally:
                self._close(span)
            self.sessions.append(session)
            self._by_solver[id(session.solver)] = session
        return wrapper

    def _solve(self, orig):
        def wrapper(solver, *args, **kwargs):
            if not self._recording():
                return orig(solver, *args, **kwargs)
            assumptions = args[0] if args else kwargs.get("assumptions", ())
            kind = classify_solve(self._by_solver.get(id(solver)),
                                  assumptions)
            span = self._open("sat.solve")
            span.attrs["kind"] = kind
            try:
                return orig(solver, *args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def _extract(self, orig):
        def wrapper(*args, **kwargs):
            if not self._recording():
                return orig(*args, **kwargs)
            span = self._open("counterexample.extract")
            try:
                trace, validated = orig(*args, **kwargs)
            finally:
                self._close(span)
            span.attrs["validated"] = validated
            return trace, validated
        return wrapper

    def _stream(self, orig):
        def wrapper(service, *args, **kwargs):
            records = orig(service, *args, **kwargs)
            if not self._recording():
                yield from records
                return
            span = self._open("service.stream")
            last = span.start
            try:
                for record in records:
                    now = _now()
                    # One span per record, from the previous arrival: the
                    # client-side wait the record ended.
                    rec = Span("service.record", last, self._stack[-1])
                    rec.end = now
                    rec.attrs["status"] = record.status
                    self._spans.append(rec)
                    self.arrivals.append((now, record))
                    last = now
                    yield record
            finally:
                self._close(span)
        return wrapper


def classify_solve(session, assumptions) -> str:
    """Check kind of one ``Solver.solve`` call, from public session API.

    No ``a_init`` among the assumptions: backward induction.  ``a_init``
    plus a loop-free-path guard: forward induction.  Anything else
    (falsification, PBA, minimization, and the guard-less depth-0
    forward check): base.
    """
    if session is None:
        return "base"
    assumed = set(assumptions)
    if session.a_init not in assumed:
        return "backward"
    guards = session.lfp_assumptions(session.frames_built)
    if assumed.intersection(guards):
        return "forward"
    return "base"


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans[1:]:
        out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], sessions, outcome, arrivals,
                  service_jobs: int) -> dict:
    """Per-layer figures of one traced request (see ``README.md``)."""
    selfs = self_times(spans)
    root = spans[0]
    wall = root.end - root.start
    by_self: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        by_self[span.name] = by_self.get(span.name, 0.0) + own

    def inclusive(name, parent_names=None):
        return sum(s.end - s.start for s in spans if s.name == name
                   and (parent_names is None
                        or spans[s.parent].name in parent_names))

    m: dict[str, float] = {}
    solves = [s for s in spans if s.name == "sat.solve"]
    solve_total = 0.0
    for kind in ("forward", "backward", "base"):
        mine = [s for s in solves if s.attrs["kind"] == kind]
        m[f"sat.solve_{kind}_s"] = sum(s.end - s.start for s in mine)
        m[f"sat.solves_{kind}"] = len(mine)
        solve_total += m[f"sat.solve_{kind}_s"]
    counters = session_counters(sessions)
    phase = {"propagate": 0.0, "analyze": 0.0, "reduce": 0.0}
    sizes = {"session.clauses_vars": counters.pop("clauses_vars"),
             "emm.clauses": 0, "emm.vars": 0, "emm.addr_eq_cache_hits": 0,
             "aig.nodes": 0}
    for session in sessions:
        for name in phase:
            phase[name] += getattr(session.solver.stats, f"time_{name}_s")
        sizes["aig.nodes"] += session.aig.num_ands
        for emm in session.emms.values():
            c = emm.counters
            sizes["emm.clauses"] += c.total_clauses
            sizes["emm.vars"] += c.vars_added
            sizes["emm.addr_eq_cache_hits"] += c.addr_eq_cache_hits
    for name, value in counters.items():
        m[f"sat.{name}"] = value
    m["sat.decisions_per_solve"] = (counters["decisions"] / counters["solves"]
                                    if counters["solves"] else 0.0)
    for name, value in phase.items():
        m[f"sat.{name}_s"] = value
    m["sat.decide_other_s"] = solve_total - sum(phase.values())
    m.update(sizes)

    for name in ("emm.add_frame", "unroller.add_frame",
                 "induction.add_frame", "session.p_lits",
                 "session.extend_to", "session.init"):
        m[f"{name}_s"] = by_self.get(name, 0.0)

    extracts = [s for s in spans if s.name == "counterexample.extract"]
    m["counterexample.extract_s"] = sum(s.end - s.start for s in extracts)
    m["counterexample.traces"] = len(extracts)
    m["counterexample.validated_ratio"] = (
        sum(1 for s in extracts if s.attrs["validated"] is True)
        / len(extracts) if extracts else 0.0)

    m["pba.phase_s"] = inclusive("pba.phase")
    m["pba.minimize_s"] = inclusive("pba.minimize")
    m["pba.proof_s"] = inclusive("bmc.engine.run", ("pba.verify",))
    m["pba.core_labels_s"] = by_self.get("sat.core_labels", 0.0)
    pv = outcome.pba
    m["pba.kept_latch_bits"] = pv.phase.kept_latch_bits if pv else 0
    m["pba.minimize_checks"] = (pv.minimization.checks
                                if pv and pv.minimization else 0)

    job_wall = queue_wait = 0.0
    attempts = cancelled = 0
    for arrival, record in arrivals:
        if record.status == RETRY:
            continue
        attempts += record.attempts
        cancelled += record.status == CANCELLED
        if record.result is not None:
            job = record.result.stats.wall_time_s
            job_wall += job
            queue_wait += arrival - root.start - job
    m["service.job_wall_s"] = job_wall
    m["service.queue_wait_s"] = queue_wait
    m["service.worker_busy_frac"] = (job_wall / (service_jobs * wall)
                                     if arrivals else 0.0)
    m["service.attempts"] = attempts
    m["service.cancelled"] = cancelled

    m["engine.self_s"] = sum(by_self.get(n, 0.0) for n in _ENGINE_SPANS)
    m["trace.attributed_frac"] = 1.0 - selfs[0] / wall
    return m


def median_metrics(samples: list[dict]) -> dict:
    return {name: statistics.median(s[name] for s in samples)
            for name in samples[0]}
