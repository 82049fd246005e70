"""The four benchmark workloads: set-up, one request, verdict extraction.

Importing this module imports ``repro`` — the caller times the import
as part of ``setup_s``.  Every workload exposes the same small surface:

* ``build()`` — the workload's design, timed as ``design.build_s``;
* ``request(traced)`` — one end-to-end verification request, returning
  a :class:`Outcome` (verdicts plus the deterministic effort counters);
* ``expected`` — the expected-verdict table for these inputs,
  instantiated from the committed ``expected.json``;
* ``rule_violations(verdicts)`` — design-level checks made independently
  of the recorded table (only ``img_bmc2`` has one).

One instance holds the inputs :func:`draw` makes from the seed
(``qs_pba`` ignores the seed); every request of a run sends them again.

Why each workload exists is documented in ``README.md`` next to this
file; the parameters below are the ones that document describes.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import repro.bmc.engine as bmc_engine
import repro.pba.abstraction as pba_abstraction
import repro.pba.minimize  # noqa: F401  (imported lazily by the PBA flow)
import repro.sim.simulator  # noqa: F401  (CEX replay)
from repro.bmc.engine import BmcOptions, bmc2
from repro.bmc.results import CEX
from repro.bmc.session import EncodingSession
from repro.casestudies import (ImageFilterParams, MultiportSocParams,
                               QuicksortParams, build_image_filter,
                               build_multiport_soc, build_quicksort)
from repro.service import VerificationService

EXPECTED_FILE = Path(__file__).with_name("expected.json")

#: multiport_soc at AW=5/DW=8: 8 alarm properties plus ``we_or_wd_zero``.
SOC_PARAMS = MultiportSocParams(addr_width=5, data_width=8)
SOC_MAX_DEPTH = 12
#: image_filter at AW=4/DW=8; the seed draws the property values.
IMG_ADDR_WIDTH = 4
IMG_DATA_WIDTH = 8
IMG_MAX_DEPTH = 28
IMG_REACHABLE = 7
IMG_UNREACHABLE = 3
#: quicksort for Table 2: n=2, AW=3, DW=4, stack AW=3 (both memories
#: start arbitrary in the case study).
QS_PARAMS = QuicksortParams(n=2, addr_width=3, data_width=4,
                            stack_addr_width=3)
QS_PROPERTY = "P2"
QS_STABILITY_DEPTH = 5
#: Worker processes of the service workload (``repro verify --jobs 2``).
SERVICE_JOBS = 2

#: Effort counters read from the encoding sessions a request builds.
SOLVER_COUNTERS = ("solves", "decisions", "propagations", "conflicts",
                   "trail_saved_levels")


def verdict_row(result) -> dict:
    """The checked fields of one property verdict."""
    return {
        "status": result.status,
        "depth": result.depth,
        "method": result.method,
        "trace_len": None if result.trace is None else len(result.trace),
        "trace_validated": result.trace_validated,
    }


def session_counters(sessions) -> dict:
    """Deterministic effort counters summed over ``sessions``."""
    out = {name: 0 for name in SOLVER_COUNTERS}
    out["clauses_vars"] = 0
    for s in sessions:
        st = s.solver.stats
        for name in SOLVER_COUNTERS:
            out[name] += getattr(st, name)
        out["clauses_vars"] += s.clause_var_total()
    return out


@dataclass
class Outcome:
    """What one request produced."""

    #: property name -> :func:`verdict_row` (missing verdicts are absent).
    verdicts: dict
    #: Deterministic counters (empty when the work ran in other processes).
    counters: dict
    #: Extra per-workload checks that failed: property name -> message.
    problems: dict = field(default_factory=dict)
    #: Peak RSS reported by service jobs, MiB (0 when none).
    job_peak_rss_mb: float = 0.0
    #: The ``PbaVerification`` of a ``qs_pba`` request (PBA layer figures).
    pba: object = None


class Workload:
    name = ""

    def __init__(self, rng: random.Random, table: dict) -> None:
        self.design = None
        self.expected = self.instantiate(table[self.name])

    def instantiate(self, rows: dict) -> dict:
        return {name: dict(row) for name, row in rows.items()}

    def rule_violations(self, verdicts: dict) -> dict[str, str]:
        return {}


class SocBmc3(Workload):
    """multiport_soc, all 9 properties on one shared session (BMC-3)."""

    name = "soc_bmc3"

    def __init__(self, rng: random.Random, table: dict) -> None:
        super().__init__(rng, table)
        self.order = sorted(self.expected)
        rng.shuffle(self.order)

    def build(self) -> None:
        self.design = build_multiport_soc(SOC_PARAMS)

    def options(self, traced: bool) -> BmcOptions:
        return BmcOptions(max_depth=SOC_MAX_DEPTH, profile=traced)

    def request(self, traced: bool) -> Outcome:
        opts = self.options(traced)
        session = EncodingSession(self.design, opts)
        # Looked up on the module so a traced run sees its wrapper.
        results = bmc_engine.verify_many(self.design, self.order, opts,
                                         session=session)
        return Outcome({n: verdict_row(r) for n, r in results.items()},
                       session_counters([session]))


class ImgBmc2(SocBmc3):
    """image_filter, falsification only (Figure 2), one shared session."""

    name = "img_bmc2"

    def __init__(self, rng: random.Random, table: dict) -> None:
        top = (1 << IMG_DATA_WIDTH) - 1
        bound = ImageFilterParams(addr_width=IMG_ADDR_WIDTH,
                                  data_width=IMG_DATA_WIDTH).max_filtered
        self.params = ImageFilterParams(
            addr_width=IMG_ADDR_WIDTH, data_width=IMG_DATA_WIDTH,
            reachable_values=tuple(sorted(
                rng.sample(range(bound + 1), IMG_REACHABLE))),
            unreachable_values=tuple(sorted(
                rng.sample(range(bound + 1, top + 1), IMG_UNREACHABLE))))
        Workload.__init__(self, rng, table)
        self.order = sorted(self.expected)

    def instantiate(self, rows: dict) -> dict:
        out = {}
        for template, row in rows.items():
            if "{v}" not in template:
                out[template] = dict(row)
                continue
            values = (self.params.reachable_values
                      if template.startswith("reach_")
                      else self.params.unreachable_values)
            for v in values:
                out[template.format(v=v)] = dict(row)
        return out

    def build(self) -> None:
        self.design = build_image_filter(self.params)

    def options(self, traced: bool) -> BmcOptions:
        return bmc2(max_depth=IMG_MAX_DEPTH, profile=traced)

    def rule_violations(self, verdicts: dict) -> dict[str, str]:
        """The design's own rule: the 3-tap average reaches every value
        up to ``max_filtered`` and none above it."""
        bad = {}
        bound = self.params.max_filtered
        for v in self.params.reachable_values:
            name = f"reach_out_eq_{v}"
            row = verdicts.get(name)
            if v > bound or row is None or row["status"] != CEX \
                    or row["trace_validated"] is not True:
                bad[name] = "no validated witness for a reachable value"
        for v in self.params.unreachable_values:
            name = f"unreach_out_eq_{v}"
            row = verdicts.get(name)
            if v <= bound or row is None or row["status"] == CEX:
                bad[name] = "witness for an unreachable value"
        return bad


class QsPba(Workload):
    """quicksort P2 through the EMM+PBA flow of Table 2 (seed-free)."""

    name = "qs_pba"

    def build(self) -> None:
        self.design = build_quicksort(QS_PARAMS)

    def request(self, traced: bool) -> Outcome:
        # profile=True only switches on the solver's phase timers; it is
        # excluded from the encoding key and changes no verdict.
        opts = BmcOptions(profile=True) if traced else None
        pv = pba_abstraction.verify_with_pba(
            self.design, QS_PROPERTY, stability_depth=QS_STABILITY_DEPTH,
            minimize="memory", options=opts)
        row = verdict_row(pv.proof_result)
        row["status"] = pv.status
        problems = {}
        if "arr" not in pv.phase.abstracted_memories:
            problems[QS_PROPERTY] = "array memory not abstracted away"
        stats = pv.proof_result.stats
        counters = {name: stats.solver.get(name, 0)
                    for name in SOLVER_COUNTERS}
        counters["clauses_vars"] = stats.sat_clauses + stats.sat_vars
        return Outcome({QS_PROPERTY: row}, counters, problems, pba=pv)


class SocService(SocBmc3):
    """The soc_bmc3 request through a fresh two-worker service."""

    name = "soc_service"

    def __init__(self, rng: random.Random, table: dict) -> None:
        super().__init__(rng, table)
        self.factory = functools.partial(build_multiport_soc, SOC_PARAMS)

    def options(self, traced: bool) -> BmcOptions:
        # Workers run untraced either way: the traced run observes the
        # service from the client side only.
        return BmcOptions(max_depth=SOC_MAX_DEPTH)

    def request(self, traced: bool) -> Outcome:
        with VerificationService(self.factory, self.options(traced),
                                 jobs=SERVICE_JOBS) as svc:
            results, records = svc.collect(self.order)
        job_rss = max((sr.result.stats.peak_rss_mb for sr in records
                       if sr.result is not None), default=0.0)
        return Outcome({n: verdict_row(r) for n, r in results.items()},
                       {}, job_peak_rss_mb=job_rss)


WORKLOADS = {cls.name: cls for cls in (SocBmc3, ImgBmc2, QsPba, SocService)}


def load_table() -> dict:
    with EXPECTED_FILE.open() as f:
        return json.load(f)["workloads"]


def draw(name: str, seed: int) -> Workload:
    """The workload's inputs for ``seed``, with their expected table."""
    return WORKLOADS[name](random.Random(seed), load_table())


def check(wl: Workload, outcome: Outcome) -> dict[str, str]:
    """Every bad property verdict of one request: name -> reason.

    A verdict is bad when it is missing, differs from the expected
    table in status/depth/method/trace length/replay result, or fails
    the workload's own checks.  The dict's length is the request's
    failure count.
    """
    bad = {}
    for name, want in wl.expected.items():
        got = outcome.verdicts.get(name)
        if got is None:
            bad[name] = "missing verdict"
        elif any(got[k] != want[k] for k in want):
            bad[name] = f"got {got}, expected {want}"
        elif got["status"] == CEX and got["trace_validated"] is not True:
            bad[name] = "counterexample failed simulator replay"
    for extra in (wl.rule_violations(outcome.verdicts), outcome.problems):
        for name, reason in extra.items():
            bad.setdefault(name, reason)
    return bad
