"""Experiment C10 — cross-memory comparator sharing on miters.

The session-scoped comparator registry of the ``hybrid`` and ``gates``
encodings answers one memory's address comparisons from another
memory's cache entries whenever their cones lower to the same SAT
literals.  The
headline workload is the miter of two memory copies
(``design/equiv.py``): both sides see identical input-driven address
cones, so nearly every comparator of the ``b::`` copy is a cross-memory
hit against the ``a::`` copy's entries.

* **C10** — per-depth encoding sweep on the two-copy miter.  The CI
  gate asserts the hybrid session's solver clauses+vars stay within
  absolute ceilings at every measured depth >= 8 (the sizes committed
  in ``BENCH_10.json``, when sharing cut them to 77% of a per-memory
  cache), and that the miter actually shares (``cross_mem_cmp_hits >
  0`` — a zero means the registry went dead).  The ``paper``
  encoding's size is reported alongside.
* **C10b** — observable parity on the same miter: verdict, depth,
  trace validity and PBA latch/memory reasons must be identical under
  ``hybrid`` and ``paper`` (which shares nothing), and the PBA core
  must attribute the shared comparator clauses to *both* memory copies
  (the multi-label story).
* **C10c** — the single-memory ``multiport_soc`` case study,
  report-only: with one memory there is nothing to share across, so
  the registry records zero cross-memory hits.
"""

from benchmarks import common
from repro.bmc import BmcOptions, EncodingSession, verify
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.design import Design, build_miter

common.table(
    "C10 — cross-memory comparator sharing on the two-copy miter",
    ["depth", "hybrid cls+vars", "ceiling", "paper cls+vars", "ratio",
     "x-hits"],
    note="one SharedComparatorTables registry across the miter's a::/b:: "
         "memory copies; staying within the ceiling at every depth >= 8 "
         "is the CI gate, the paper encoding is report-only",
)

common.table(
    "C10c — single-memory SoC under the registry (report-only)",
    ["encoding", "depth", "cls+vars", "x-hits", "statuses"],
    note="one memory: the session registry has nothing to share across",
)


def build_memory_unit():
    """One multi-port memory read/written through input-driven cones —
    the shape whose miter shares comparators across the copies."""
    d = Design("unit")
    wa = d.input("wa", 3)
    wd = d.input("wd", 4)
    we = d.input("we", 1)
    ra0 = d.input("ra0", 3)
    mem = d.memory("m", addr_width=3, data_width=4, init=0, read_ports=3)
    mem.write(0).connect(addr=wa, data=wd, en=we)
    r0 = mem.read(0).connect(addr=ra0, en=1)
    # Recurring cones: a constant address and a reuse of the write
    # address, so the per-memory cache is already working hard and the
    # cross-memory win is measured *on top of* it.
    r1 = mem.read(1).connect(addr=d.const(5, 3), en=1)
    r2 = mem.read(2).connect(addr=wa, en=1)
    out = d.latch("out", 4, init=0)
    out.next = r0 ^ r1 ^ r2
    return d, out.expr


def build_miter_workload():
    a, oa = build_memory_unit()
    b, ob = build_memory_unit()
    return build_miter(a, b, [(oa, ob)])


DEPTHS = list(range(2, 25, 2)) if common.is_full() else list(range(2, 17, 2))
#: The ceilings are enforced from this depth on.
GATE_DEPTH = 8
#: Depth -> hybrid solver clauses+vars ceiling on the miter: the
#: ``shared_clauses_vars`` committed in ``BENCH_10.json`` up to depth
#: 16; the full-run depths beyond it as measured alongside.
CEILINGS = {2: 1_682, 4: 4_141, 6: 7_612, 8: 12_095, 10: 17_590,
            12: 24_097, 14: 31_616, 16: 40_147, 18: 49_690, 20: 60_245,
            22: 71_812, 24: 84_391}


def opts(encoding, **kw):
    return BmcOptions(emm_encoding=encoding, **kw)


def bench_cross_mem_miter_sizes(benchmark):
    """CI gate: hybrid clauses+vars within the ceilings at d>=8."""

    def run():
        series = {}
        for encoding in ("hybrid", "paper"):
            session = EncodingSession(build_miter_workload(), opts(encoding))
            sizes = []
            for depth in DEPTHS:
                session.extend_to(depth)
                sizes.append(session.clause_var_total())
            hits = (session.cmp_registry.cross_mem_hits
                    if session.cmp_registry is not None else 0)
            series[encoding] = (sizes, hits)
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    (shared_sizes, shared_hits), (paper_sizes, paper_hits) = \
        series["hybrid"], series["paper"]
    assert paper_hits == 0
    assert shared_hits > 0, (
        "cross-memory sharing went dead on the miter workload: "
        "0 registry hits (every a::/b:: cone should coincide)")
    for depth, on, off in zip(DEPTHS, shared_sizes, paper_sizes):
        if depth >= GATE_DEPTH:
            assert on <= CEILINGS[depth], (
                f"miter encoding grew to {on} clauses+vars at depth "
                f"{depth} (ceiling {CEILINGS[depth]})")
        common.add_row(
            "C10 — cross-memory comparator sharing on the two-copy miter",
            depth, on, CEILINGS[depth], off, f"{on / off:.1%}",
            shared_hits if depth == DEPTHS[-1] else "")
    benchmark.extra_info["depths"] = DEPTHS
    benchmark.extra_info["shared_clauses_vars"] = shared_sizes
    benchmark.extra_info["paper_clauses_vars"] = paper_sizes
    benchmark.extra_info["cross_mem_hits"] = shared_hits


def bench_cross_mem_miter_verdicts(benchmark):
    """CI gate: sharing is invisible to every observable outcome, and
    the PBA core names both memory copies through shared clauses."""

    def run():
        # Bounded falsification (no induction): the equiv proof closes
        # at depth 1 by forward induction, before any core ever walks
        # the forwarding clauses — the bounded run's UNSAT cores are the
        # ones that must name both memories.
        return [verify(build_miter_workload(), "equiv",
                       opts(encoding, find_proof=False, pba=True,
                            max_depth=10))
                for encoding in ("hybrid", "paper")]

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (on.status, on.depth, on.method) == \
        (off.status, off.depth, off.method), (on.status, off.status)
    assert on.trace_validated == off.trace_validated
    assert on.latch_reasons == off.latch_reasons
    assert on.memory_reasons == off.memory_reasons
    assert on.stats.cross_mem_cmp_hits > 0
    assert off.stats.cross_mem_cmp_hits == 0
    assert on.stats.core_unlabeled == 0
    # The multi-label regression: cores through shared comparators must
    # attribute them to both copies, never just the first emitter's.
    mems = on.memory_reasons[-1]
    assert {"a::m", "b::m"} <= mems, mems
    benchmark.extra_info["status"] = on.status
    benchmark.extra_info["cross_mem_cmp_hits"] = on.stats.cross_mem_cmp_hits


def bench_cross_mem_soc(benchmark):
    """Report-only: a single-memory design must not move."""
    soc = MultiportSocParams(addr_width=3, data_width=4, counter_width=3,
                             num_properties=2)

    def run():
        out = {}
        for encoding in ("hybrid", "paper"):
            design = build_multiport_soc(soc)
            name = sorted(design.properties)[0]
            out[encoding] = verify(design, name,
                                   opts(encoding, find_proof=False,
                                        max_depth=8))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    on, off = out["hybrid"], out["paper"]
    assert (on.status, on.depth) == (off.status, off.depth)
    assert on.stats.cross_mem_cmp_hits == 0
    for encoding, r in out.items():
        common.add_row(
            "C10c — single-memory SoC under the registry (report-only)",
            encoding, r.depth, r.stats.sat_clauses + r.stats.sat_vars,
            r.stats.cross_mem_cmp_hits, r.status)
    benchmark.extra_info["soc_clauses_vars"] = (on.stats.sat_clauses
                                                + on.stats.sat_vars)
