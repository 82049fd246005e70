"""The check schedule of ``verify_many`` on a shared session.

At each depth ``verify_many`` runs every live engine's forward and
backward checks, then every live engine's base check, so consecutive
base checks share the ``[a_init, a_meminit]`` assumption prefix and the
fast solver keeps the initial-state levels assigned between them.
These tests pin that reuse on the multiport SoC, the verdict parity with
per-property :func:`verify`, and the session-wide encode figure of the
``--profile`` split.
"""

from collections import Counter

import pytest

from repro.bmc import BmcOptions, verify, verify_many
from repro.bmc.engine import BmcEngine
from repro.bmc.session import EncodingSession
from repro.casestudies.multiport_soc import MultiportSocParams, build_multiport_soc

SOC = MultiportSocParams(addr_width=5, data_width=8)


def verdict(result):
    trace_len = None if result.trace is None else len(result.trace.cycles)
    return result.status, result.depth, result.method, trace_len


@pytest.fixture(scope="module")
def soc_grouped():
    design = build_multiport_soc(SOC)
    opts = BmcOptions(max_depth=5)
    session = EncodingSession(design, opts)
    base_depths: Counter = Counter()
    step_base = BmcEngine._step_base

    def counting(engine, rs, i):
        base_depths[i] += 1
        return step_base(engine, rs, i)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BmcEngine, "_step_base", counting)
        results = verify_many(design, None, opts, session=session)
    return design, opts, session, results, base_depths


def test_base_checks_keep_the_initial_state_prefix(soc_grouped):
    _, _, session, results, base_depths = soc_grouped
    assert len(results) == 9
    # Every base check after the first at a depth follows another base
    # check with no clause added in between: it keeps both levels.
    followers = sum(n - 1 for n in base_depths.values())
    assert followers > 0
    assert session.solver.stats.trail_saved_levels >= 2 * followers


def test_grouped_verdicts_match_per_property_verify(soc_grouped):
    design, opts, _, results, _ = soc_grouped
    for name, result in results.items():
        alone = verify(design, name, opts)
        assert verdict(result) == verdict(alone), name


def test_profile_reports_session_encode_on_multi_property_runs():
    design = build_multiport_soc(SOC)
    opts = BmcOptions(max_depth=4, profile=True)
    results = verify_many(design, None, opts)
    assert len(results) == 9
    for result in results.values():
        # Timed once per depth, up to the depth the property concluded.
        encode = result.stats.profile["session"]["encode"]
        assert encode["s"] > 0
        assert encode["n"] == result.depth + 1
