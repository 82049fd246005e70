"""Cross-engine validation: BDD reachability vs SAT-based BMC vs explicit.

Three independent engines implement the same semantics:

* ``repro.bdd`` — exact forward reachability over memory-free designs;
* ``repro.bmc`` with EMM — the paper's approach, memories abstracted;
* ``repro.bmc`` on ``expand_memories(design)`` — the explicit baseline.

On any design where all three run, their verdicts must agree, witness
depths must match the BDD's first-bad iteration, and the BMC forward
proof depth (longest loop-free path, the *recurrence diameter*) must be
at least the BDD's iterations-to-fixpoint (the reachability radius).
"""

import random

import pytest

from repro.bdd import bdd_model_check
from repro.bmc import BmcOptions, bmc1, bmc3, verify
from repro.casestudies.fifo import FifoParams, build_fifo
from repro.design import Design, expand_memories


def modular_counter(step=1, width=3, bad=None):
    d = Design(f"cnt{step}w{width}")
    c = d.latch("c", width, init=0)
    c.next = c.expr + step
    if bad is None:
        bad = (1 << width) - 1
    d.invariant("p", c.expr.ne(bad))
    return d


def gated_toggler():
    d = Design("toggler")
    en = d.input("en", 1)
    a = d.latch("a", 1, init=0)
    b = d.latch("b", 1, init=1)
    a.next = en.ite(~a.expr, a.expr)
    b.next = en.ite(~b.expr, b.expr)
    d.invariant("p", a.expr.ne(b.expr) | a.expr.eq(0))
    return d


class TestVerdictAgreement:
    @pytest.mark.parametrize("step,width", [(1, 3), (3, 3), (2, 4), (5, 4)])
    def test_counter_reachability(self, step, width):
        d = modular_counter(step, width)
        bdd = bdd_model_check(d, "p")
        sat = verify(d, "p", bmc3(max_depth=40, pba=False))
        assert bdd.status in ("proof", "cex")
        assert sat.status == bdd.status, (sat.status, bdd.status)

    def test_cex_depths_match(self):
        # step=1, bad=5: first reached at BDD iteration 5, BMC depth 5.
        d = modular_counter(1, 3, bad=5)
        bdd = bdd_model_check(d, "p")
        sat = verify(d, "p", BmcOptions(find_proof=False, max_depth=10))
        assert bdd.status == sat.status == "cex"
        assert bdd.cex_depth == sat.depth == 5

    def test_input_driven_design(self):
        d = gated_toggler()
        bdd = bdd_model_check(d, "p")
        sat = verify(d, "p", bmc3(max_depth=10, pba=False))
        assert bdd.status == sat.status

    @pytest.mark.parametrize("seed", range(8))
    def test_random_linear_designs(self, seed):
        """Random 2-latch affine update designs, exhaustive agreement."""
        rng = random.Random(seed)
        width = rng.choice([2, 3])
        d = Design(f"rand{seed}")
        a = d.latch("a", width, init=rng.randrange(1 << width))
        b = d.latch("b", width, init=rng.randrange(1 << width))
        a.next = b.expr + rng.randrange(1 << width)
        b.next = a.expr ^ rng.randrange(1 << width)
        bad_a = rng.randrange(1 << width)
        bad_b = rng.randrange(1 << width)
        d.invariant("p", ~(a.expr.eq(bad_a) & b.expr.eq(bad_b)))
        bdd = bdd_model_check(d, "p")
        sat = verify(d, "p", bmc3(max_depth=30, pba=False))
        assert bdd.status in ("proof", "cex")
        assert sat.status == bdd.status
        if bdd.status == "cex":
            assert sat.depth == bdd.cex_depth


class TestRadiusVsRecurrenceDiameter:
    @pytest.mark.parametrize("step,width", [(1, 2), (1, 3), (3, 3), (2, 3)])
    def test_recurrence_diameter_bounds_radius(self, step, width):
        from repro.bmc import forward_recurrence_diameter

        d = modular_counter(step, width)
        d.properties.clear()
        d.invariant("true", d.const(1, 1))
        bdd = bdd_model_check(d, "true")
        diameter = forward_recurrence_diameter(d, max_depth=40)
        assert bdd.status == "proof"
        assert diameter is not None
        # Longest loop-free path >= number of distinct frontiers.
        assert diameter >= bdd.iterations

    def test_full_period_counter_depths_equal(self):
        from repro.bmc import forward_recurrence_diameter

        # step=1: the counter visits all 2**w states in a line, so radius
        # and recurrence diameter coincide at 2**w (the proof closes one
        # step after the last new state).
        d = modular_counter(1, 3)
        bdd_d = modular_counter(1, 3, bad=None)
        bdd_d.properties.clear()
        bdd_d.invariant("true", bdd_d.const(1, 1))
        bdd = bdd_model_check(bdd_d, "true")
        diameter = forward_recurrence_diameter(d, max_depth=20)
        assert bdd.iterations == 8
        assert diameter == 8

    def test_input_branching_diameter(self):
        from repro.bmc import forward_recurrence_diameter

        # A saturating counter that only advances when enabled: the
        # longest loop-free run still walks all 2**w states.
        d = Design("sat_cnt")
        en = d.input("en", 1)
        c = d.latch("c", 2, init=0)
        c.next = (en & c.expr.ne(3)).ite(c.expr + 1, c.expr)
        assert forward_recurrence_diameter(d, max_depth=10) == 4

    def test_unreached_bound_returns_none(self):
        from repro.bmc import forward_recurrence_diameter

        d = modular_counter(1, 4)
        assert forward_recurrence_diameter(d, max_depth=3) is None

    def test_diameter_with_memory_quicksort(self):
        """Table 1's D column, computed without running a property."""
        from repro.bmc import forward_recurrence_diameter
        from repro.casestudies.quicksort import (QuicksortParams,
                                                 build_quicksort)

        d = build_quicksort(QuicksortParams(n=2, addr_width=3, data_width=3,
                                            stack_addr_width=3))
        diameter = forward_recurrence_diameter(d, max_depth=40)
        assert diameter is not None
        # Must match what BMC-3's forward termination reports for P2.
        r = verify(d, "P2", bmc3(max_depth=40, pba=False))
        assert r.proved and r.method == "forward"
        assert r.depth == diameter

    def test_diameter_independent_of_emm_encoding(self):
        """The diameter is a property of the design, not of how EMM
        encodes its memories."""
        from repro.bmc import BmcOptions, forward_recurrence_diameter
        from repro.casestudies.quicksort import (QuicksortParams,
                                                 build_quicksort)

        params = QuicksortParams(n=2, addr_width=3, data_width=3,
                                 stack_addr_width=3)
        diameters = {
            enc: forward_recurrence_diameter(
                build_quicksort(params), max_depth=40,
                options=BmcOptions(emm_encoding=enc))
            for enc in ("hybrid", "paper", "gates")}
        assert diameters["hybrid"] is not None
        assert len(set(diameters.values())) == 1, diameters


class TestThreeWayOnMemories:
    """EMM, explicit-BMC and BDD (on the expansion) against each other."""

    def tiny_fifo(self):
        return build_fifo(FifoParams(addr_width=2, data_width=2))

    def test_can_fill_witness_depth(self):
        d = self.tiny_fifo()
        emm = verify(d, "can_fill", BmcOptions(find_proof=False, max_depth=8))
        explicit = verify(expand_memories(d), "can_fill",
                          bmc1(max_depth=8, pba=False, find_proof=False))
        assert emm.status == explicit.status == "cex"
        assert emm.depth == explicit.depth

    def test_bdd_on_expansion_agrees(self):
        d = self.tiny_fifo()
        ex = expand_memories(d)
        bdd = bdd_model_check(ex, "can_fill", node_limit=2_000_000)
        emm = verify(d, "can_fill", BmcOptions(find_proof=False, max_depth=8))
        assert bdd.status == "cex"
        assert bdd.cex_depth == emm.depth

    def test_invariant_three_way(self):
        d = self.tiny_fifo()
        ex = expand_memories(d)
        emm = verify(d, "empty_full_exclusive", bmc3(max_depth=25, pba=False))
        explicit = verify(ex, "empty_full_exclusive",
                          bmc1(max_depth=25, pba=False))
        bdd = bdd_model_check(ex, "empty_full_exclusive",
                              node_limit=2_000_000)
        assert emm.proved
        assert explicit.proved
        assert bdd.status == "proof"
