"""Decision-queue and value-store tests for the solver back-ends.

The fast back-end decides with a VMTF (variable move-to-front) queue;
the baseline keeps the VSIDS heap as the differential oracle.  Both read
assignments from one literal-indexed value store.  These tests pin the
queue's structural invariants and the value store's consistency under
incremental use, model agreement between the back-ends, the
deterministic search effort of both back-ends on the multiport SoC
session, and the ``decide`` phase of the ``--profile`` split.
"""

import random

import pytest

from repro.bmc import BmcOptions, verify_many
from repro.bmc.session import EncodingSession
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.sat import Solver
from repro.sat.solver import _FALSE, _TRUE, UNASSIGNED


def assert_value_store_consistent(s):
    """Both literal slots of a variable are unassigned, or exactly one is
    TRUE and its complement FALSE."""
    vals = s._vals
    assert len(vals) == 2 * (s.num_vars + 1)
    for v in range(1, s.num_vars + 1):
        pos, neg = vals[v << 1], vals[v << 1 | 1]
        assert (pos, neg) in ((UNASSIGNED, UNASSIGNED), (_TRUE, _FALSE),
                              (_FALSE, _TRUE)), (v, pos, neg)


def assert_queue_invariants(s):
    q = s._queue
    n = s.num_vars
    order = []
    var = q.first
    while var:
        order.append(var)
        var = q.next[var]
    assert sorted(order) == list(range(1, n + 1))
    backward = []
    var = q.last
    while var:
        backward.append(var)
        var = q.prev[var]
    assert backward == order[::-1]
    stamps = [q.stamp[v] for v in order]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))
    assert_value_store_consistent(s)
    assigned = [s._vals[v << 1] != UNASSIGNED for v in range(n + 1)]
    if order:
        past = order[order.index(q.search) + 1:]
        assert all(assigned[v] for v in past)
    assert (s._pick_branch() == -1) == all(assigned[1:])


def random_clause(rng, nvars):
    width = min(nvars, rng.choice([1, 2, 2, 3, 3, 4]))
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, nvars + 1), width)]


@pytest.mark.parametrize("seed", range(12))
def test_vmtf_queue_invariants_under_incremental_use(seed):
    rng = random.Random(seed)
    fast, base = Solver(fast=True), Solver(fast=False)
    assert_queue_invariants(fast)
    for _ in range(rng.randint(2, 8)):
        fast.new_var()
        base.new_var()
    for _ in range(60):
        op = rng.random()
        if op < 0.2:
            for _ in range(rng.randint(1, 4)):
                assert fast.new_var() == base.new_var()
        elif op < 0.6:
            clause = random_clause(rng, fast.num_vars)
            fast.add_clause(clause)
            base.add_clause(clause)
        else:
            nvars = fast.num_vars
            assumptions = ([] if rng.random() < 0.4 else
                           [v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, nvars + 1),
                                                rng.randint(1, min(4, nvars)))])
            got = fast.solve(assumptions)
            assert got.sat == base.solve(assumptions).sat
            if got.sat and rng.random() < 0.5:
                # Allocate while the SAT answer's trail is still assigned,
                # as EncodingSession.p_lits does.
                assert_queue_invariants(fast)
                assert fast.new_var() == base.new_var()
        assert_queue_invariants(fast)
        if fast.is_broken:
            break


@pytest.mark.parametrize("seed", range(12))
def test_incremental_models_agree_with_baseline(seed):
    """Random incremental use: both back-ends agree on every answer,
    each model satisfies every clause added so far and the assumptions,
    and the literal-indexed value store stays consistent."""
    rng = random.Random(1000 + seed)
    fast, base = Solver(fast=True), Solver(fast=False)
    clauses = []
    for _ in range(rng.randint(3, 10)):
        fast.new_var()
        base.new_var()
    for _ in range(80):
        op = rng.random()
        if op < 0.15:
            for _ in range(rng.randint(1, 3)):
                assert fast.new_var() == base.new_var()
        elif op < 0.6:
            clause = random_clause(rng, fast.num_vars)
            clauses.append(clause)
            fast.add_clause(clause)
            base.add_clause(clause)
        else:
            nvars = fast.num_vars
            assumptions = ([] if rng.random() < 0.3 else
                           [v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, nvars + 1),
                                                rng.randint(1, min(5, nvars)))])
            got = fast.solve(assumptions)
            want = base.solve(assumptions)
            assert got.sat == want.sat
            for s in (fast, base):
                assert_value_store_consistent(s)
                if got.sat:
                    assert all(s.model_value(lt) for lt in assumptions)
                    for clause in clauses:
                        assert any(s.model_value(lt) for lt in clause), clause
        if fast.is_broken:
            assert base.is_broken
            break


def test_vmtf_new_vars_queue_oldest_first():
    s = Solver(fast=True)
    for _ in range(5):
        s.new_var()
    assert s._pick_branch() >> 1 == 1
    s.add_clause([1])
    assert s._pick_branch() >> 1 == 2


def soc_counters(baseline):
    design = build_multiport_soc(MultiportSocParams(addr_width=5,
                                                    data_width=8))
    opts = BmcOptions(max_depth=8, solver_baseline=baseline)
    session = EncodingSession(design, opts)
    results = verify_many(design, None, opts, session=session)
    assert len(results) == 9
    st = session.solver.stats
    verdicts = {n: (r.status, r.depth) for n, r in results.items()}
    return verdicts, {"solves": st.solves, "decisions": st.decisions,
                      "conflicts": st.conflicts,
                      "propagations": st.propagations}


def test_soc_search_effort_baseline_pinned_and_fast_decides_less():
    base_verdicts, base = soc_counters(baseline=True)
    # The differential oracle's search is pinned exactly: any change to
    # the baseline back-end, or to the order verify_many issues checks
    # in (grouped by kind: forward and backward, then base), moves these
    # figures.
    assert base == {"solves": 156, "decisions": 55_249, "conflicts": 115,
                    "propagations": 304_313}
    fast_verdicts, fast = soc_counters(baseline=False)
    assert fast_verdicts == base_verdicts
    assert fast["solves"] == base["solves"]
    assert fast["decisions"] < 0.5 * base["decisions"]


@pytest.mark.parametrize("baseline", [False, True])
def test_profile_times_decide_without_changing_search(baseline):
    design = build_multiport_soc(MultiportSocParams(addr_width=5,
                                                    data_width=8))

    def run(profile):
        opts = BmcOptions(max_depth=4, solver_baseline=baseline,
                          profile=profile)
        session = EncodingSession(design, opts)
        results = verify_many(design, None, opts, session=session)
        counters = {k: v for k, v in session.solver.stats.snapshot().items()
                    if not k.startswith("time_")}
        verdicts = {n: (r.status, r.depth) for n, r in results.items()}
        return verdicts, counters, results

    plain_verdicts, plain_counters, _ = run(False)
    prof_verdicts, prof_counters, results = run(True)
    assert prof_verdicts == plain_verdicts
    assert prof_counters == plain_counters
    for r in results.values():
        assert r.stats.profile["solver"]["decide"] > 0
