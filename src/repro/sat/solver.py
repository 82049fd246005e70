"""CDCL SAT solver with resolution-proof logging.

The solver follows the classic MiniSat architecture.  Internally a literal
is encoded as ``var << 1 | sign`` (sign 1 = negated); the public API uses
signed DIMACS-style integers.  Every clause receives an integer id; learned
clauses record the tuple of clause ids resolved while deriving them
(including the unit chains behind level-0 literal eliminations), which lets
:meth:`Solver.core_clause_ids` expand a final conflict into a set of
original clauses sufficient for unsatisfiability — the paper's
``SAT_Get_Refutation`` step (Figure 1, line 10) that feeds proof-based
abstraction.

Two propagation back-ends share the search loop:

* **fast** (default) — MiniSat-2.2/Glucose-class machinery: a dedicated
  binary-implication watch list that propagates 2-literal clauses (the
  EMM-dominant shape) without touching clause objects, ``(cid, blocker)``
  pairs in the long-clause watch lists so satisfied clauses are skipped
  on the blocker alone, LBD (glue) scoring with a tiered clause-database
  reduction (glue <= 2 pinned), root-level shrinking of learned clauses
  against permanent level-0 units, a VMTF (variable move-to-front)
  decision queue in place of the VSIDS heap — backtracking only moves a
  search pointer, and new variables queue behind the old ones so earlier
  frames are decided first — and assumption-trail reuse — a solve
  whose assumption list shares a prefix with the previous solve keeps
  the propagated prefix assigned instead of cancelling to level 0.
* **baseline** (``fast=False``) — the historical single-watch-scheme
  implementation, kept bit-for-bit as the differential oracle
  (``BmcOptions.solver_baseline`` / CLI ``--solver-baseline``).

Both back-ends produce identical verdicts, models satisfying the CNF,
sound failed-assumption sets and proof-checkable cores; search order
(and therefore the exact learned clauses and cores) may differ.

Both back-ends read assignments from one literal-indexed value store,
``_vals[ilit]`` (``_TRUE``, ``_FALSE`` or ``UNASSIGNED``): assigning a
literal writes its slot TRUE and its complement's FALSE, so the hot
loops test a literal with one list read instead of a variable lookup,
a shift and a sign xor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence

from repro.utils.luby import luby


class _VarOrder:
    """Indexed max-heap over variable activities (MiniSat's order heap).

    Baseline back-end only.  Position tracking keeps each variable in the
    heap at most once, but assigned variables stay in the heap until a
    decision pops them, so ``pop_max`` discards several assigned
    variables per decision on BMC instances, and backtracking sifts every
    unassigned variable back in.
    """

    __slots__ = ("activity", "heap", "pos")

    def __init__(self, activity: list[float]) -> None:
        self.activity = activity
        self.heap: list[int] = []
        self.pos: list[int] = [-1]

    def grow(self) -> None:
        self.pos.append(-1)

    def insert(self, var: int) -> None:
        if self.pos[var] != -1:
            return
        self.heap.append(var)
        self.pos[var] = len(self.heap) - 1
        self._sift_up(len(self.heap) - 1)

    def bumped(self, var: int) -> None:
        p = self.pos[var]
        if p != -1:
            self._sift_up(p)

    def pop_max(self) -> int:
        heap = self.heap
        top = heap[0]
        self.pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            self.pos[last] = 0
            self._sift_down(0)
        return top

    def __len__(self) -> int:
        return len(self.heap)

    def _sift_up(self, i: int) -> None:
        heap, pos, act = self.heap, self.pos, self.activity
        v = heap[i]
        a = act[v]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if act[pv] >= a:
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _sift_down(self, i: int) -> None:
        heap, pos, act = self.heap, self.pos, self.activity
        n = len(heap)
        v = heap[i]
        a = act[v]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            right = left + 1
            child = right if right < n and act[heap[right]] > act[heap[left]] else left
            cv = heap[child]
            if a >= act[cv]:
                break
            heap[i] = cv
            pos[cv] = i
            i = child
        heap[i] = v
        pos[v] = i


class _VmtfQueue:
    """VMTF decision queue (fast back-end; Biere & Froehlich, SAT 2015).

    A doubly linked list over variables, ``first`` the low-priority end
    and ``last`` the high-priority end, with enqueue stamps strictly
    increasing toward ``last``.  Conflict analysis moves a bumped
    variable to ``last`` with a fresh stamp; :meth:`push_low` queues a new
    variable at ``first``, so older variables (earlier BMC frames, their
    inputs and latches) are decided before newer ones.  Every variable
    past ``search`` (toward ``last``) is assigned: a decision walks from
    ``search`` toward ``first`` and backtracking only moves ``search`` up
    to the highest-stamped variable it unassigns.  ``prev``/``next`` use
    0 (the unused variable slot) as the null link.
    """

    __slots__ = ("prev", "next", "stamp", "first", "last", "search",
                 "bumps", "pushes")

    def __init__(self) -> None:
        self.prev: list[int] = [0]
        self.next: list[int] = [0]
        self.stamp: list[int] = [0]
        self.first = 0
        self.last = 0
        self.search = 0
        #: Stamp counters: bumps count up from 1, pushes down from -1.
        self.bumps = 0
        self.pushes = 0

    def push_low(self, var: int) -> None:
        """Append a new variable ``var`` at the low-priority end."""
        self.pushes -= 1
        self.stamp.append(self.pushes)
        self.prev.append(0)
        self.next.append(self.first)
        if self.first:
            self.prev[self.first] = var
        else:
            self.last = self.search = var
        self.first = var

    def bump(self, var: int) -> None:
        """Move ``var`` to the high-priority end with a fresh stamp.

        Conflict analysis bumps assigned variables only, so every
        variable past ``search`` stays assigned; when ``var`` is
        ``search`` itself, nothing lies past it afterwards.
        """
        self.bumps += 1
        self.stamp[var] = self.bumps
        last = self.last
        if var == last:
            return
        prev, nxt = self.prev, self.next
        p, n = prev[var], nxt[var]
        if p:
            nxt[p] = n
        else:
            self.first = n
        prev[n] = p
        prev[var] = last
        nxt[var] = 0
        nxt[last] = var
        self.last = var


UNASSIGNED = -1

_TRUE = 1
_FALSE = 0


def _to_internal(lit: int) -> int:
    """Signed DIMACS literal -> internal ``var << 1 | sign`` encoding."""
    if lit > 0:
        return lit << 1
    return (-lit) << 1 | 1


def _to_external(ilit: int) -> int:
    """Internal literal -> signed DIMACS literal."""
    var = ilit >> 1
    return -var if ilit & 1 else var


@dataclass
class SolverStats:
    """Counters accumulated over the lifetime of a solver."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    solves: int = 0
    #: Decision levels retained by assumption-trail reuse (fast mode):
    #: summed over solves, each counting the prefix of assumption levels
    #: kept assigned instead of being cancelled and re-propagated.
    trail_saved_levels: int = 0
    #: Learned clauses shrunk / literals removed by root-level
    #: simplification against permanent level-0 units (fast mode).
    shrunk_clauses: int = 0
    shrunk_lits: int = 0
    #: Wall-clock phase breakdown, populated only while
    #: :attr:`Solver.profile` is True (see ``repro.perf``).
    time_propagate_s: float = 0.0
    time_analyze_s: float = 0.0
    time_reduce_s: float = 0.0
    time_simplify_s: float = 0.0
    #: Deciding (free branch picks and assumption decisions) plus the
    #: backtracks at solve entry and at restarts.
    time_decide_s: float = 0.0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SolveResult:
    """Outcome of one :meth:`Solver.solve` call."""

    sat: bool
    #: Subset of the given assumptions sufficient for the conflict when
    #: ``sat`` is False; empty for plain (assumption-free) UNSAT.
    failed_assumptions: tuple[int, ...] = ()
    stats: dict = field(default_factory=dict)
    #: True when the solve aborted on a resource limit; ``sat`` is then
    #: meaningless and callers must treat the result as UNKNOWN.
    unknown: bool = False
    #: Which limit aborted the solve when ``unknown``: ``"conflicts"``
    #: (``max_conflicts`` exhausted) or ``"deadline"`` (wall clock).
    limit: Optional[str] = None

    def __bool__(self) -> bool:  # allows ``if solver.solve(...):``
        if self.unknown:
            raise RuntimeError("solve aborted on conflict budget (unknown result)")
        return self.sat


class Solver:
    """Incremental CDCL solver with optional proof logging.

    Parameters
    ----------
    proof:
        When True, every learned clause stores the ids of the clauses used
        in its derivation so unsat cores can be extracted.  BMC with PBA
        requires this; plain falsification runs may disable it to save
        memory.
    fast:
        Select the modern propagation back-end (binary watchers, blocker
        literals, LBD-tiered reduction, VMTF decisions, assumption-trail
        reuse — see the module docstring).  ``False`` runs the historical
        baseline, kept as the differential oracle.
    """

    #: Tier bounds for the fast reduce: learned clauses with glue (LBD)
    #: <= LBD_CORE are never deleted; glue <= LBD_TIER2 clauses survive a
    #: reduction round when they were used in an analysis since the last
    #: one; the rest ("local" tier) compete on activity.
    LBD_CORE = 2
    LBD_TIER2 = 6

    def __init__(self, proof: bool = True, fast: bool = True) -> None:
        self.proof_logging = proof
        self._fast = fast
        #: When True, the search loop records phase wall times into
        #: :class:`SolverStats` (``time_*_s`` fields).  Off by default —
        #: flipped by the engine under ``BmcOptions.profile``.
        self.profile = False
        # Literal values, indexed by internal literal: a variable's two
        # slots are both UNASSIGNED, or one _TRUE and the other _FALSE.
        self._vals: list[int] = [UNASSIGNED, UNASSIGNED]
        # Variable state (index 0 unused so var numbers match list index).
        self._levels: list[int] = [0]
        self._reasons: list[int] = [-1]
        #: Sign bit of each variable's last assigned literal (phase
        #: saving); 1 (negative) until the variable is first assigned.
        self._saved_sign: list[int] = [1]
        # Watches indexed by internal literal.  Baseline entries are bare
        # clause ids; fast entries are ``(cid, blocker)`` pairs.
        self._watches: list[list] = [[], []]
        # Fast mode: 2-literal clauses live here as ``(cid, other_lit)``
        # and are propagated without touching the clause object.
        self._bin_watches: list[list[tuple[int, int]]] = [[], []]
        # Clause database: list of literal-lists (None when deleted).
        self._clauses: list[Optional[list[int]]] = []
        self._learned_ids: list[int] = []
        self._clause_act: dict[int, float] = {}
        #: Learned cid -> glue (LBD) at learn time, lowered dynamically
        #: when the clause is used in an analysis (fast mode only).
        self._clause_lbd: dict[int, int] = {}
        #: Learned cids used in an analysis since the last _reduce_db.
        self._clause_used: set[int] = set()
        self._labels: dict[int, Hashable] = {}
        self._n_original = 0
        # Proof bookkeeping: learned cid -> tuple of antecedent cids.
        self._derivations: dict[int, tuple[int, ...]] = {}
        self._simplify_deps: dict[int, tuple[int, ...]] = {}
        self._l0_memo: dict[int, tuple[int, ...]] = {}
        # Literals of learned clauses deleted by _reduce_db (proof mode).
        self._proof_lits: dict[int, tuple[int, ...]] = {}
        # Trail.
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        #: Parallel to _trail_lim: the assumption literal decided (or
        #: found already true) at each level, 0 for free search
        #: decisions.  This is what assumption-trail reuse matches the
        #: next solve's assumption list against.
        self._assump_levels: list[int] = []
        #: Level-0 trail length the last _simplify_learned ran against.
        self._simplified_fixed = 0
        self._qhead = 0
        # Heuristics: VMTF decisions (fast) or VSIDS activities (baseline).
        if fast:
            self._queue = _VmtfQueue()
        else:
            self._activity: list[float] = [0.0]
            self._var_inc = 1.0
            self._var_decay = 1.0 / 0.95
            self._order = _VarOrder(self._activity)
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._max_learnts = 4000.0
        self._learnt_growth = 1.1
        # Terminal state.
        self._broken = False  # UNSAT without assumptions: solver is dead
        self._unsat_core_cids: Optional[frozenset[int]] = None
        self._last_failed: tuple[int, ...] = ()
        self.stats = SolverStats()
        # Scratch used by analyze.
        self._seen: list[bool] = [False]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def fast(self) -> bool:
        """Whether the modern (non-baseline) back-end is active."""
        return self._fast

    def new_var(self) -> int:
        """Allocate and return a fresh variable (positive integer)."""
        self._vals.append(UNASSIGNED)
        self._vals.append(UNASSIGNED)
        self._levels.append(0)
        self._reasons.append(-1)
        self._saved_sign.append(1)
        self._watches.append([])
        self._watches.append([])
        self._bin_watches.append([])
        self._bin_watches.append([])
        self._seen.append(False)
        var = len(self._levels) - 1
        if self._fast:
            self._queue.push_low(var)
        else:
            self._activity.append(0.0)
            self._order.grow()
            self._order.insert(var)
        return var

    @property
    def num_vars(self) -> int:
        return len(self._levels) - 1

    @property
    def num_clauses(self) -> int:
        """Number of original (non-learned) clauses added so far."""
        return self._n_original

    @property
    def is_broken(self) -> bool:
        """True once the CNF is unsatisfiable even without assumptions."""
        return self._broken

    def add_clause(self, lits: Iterable[int], label: Hashable = None) -> int:
        """Add an original clause; returns its clause id.

        ``label`` is an arbitrary hashable provenance tag reported back by
        :meth:`core_labels` when the clause participates in an unsat core.
        A clause may carry *several* labels — pass a ``frozenset`` of tags
        (or join more later with :meth:`add_label`); :meth:`core_labels`
        flattens label sets into their members, so a clause serving two
        consumers attributes to both.  Returns -1 when the clause is
        absorbed (tautology or already satisfied at level 0).  Adding the
        empty clause (or one that closes a level-0 conflict) renders the
        solver permanently unsatisfiable.
        """
        if self._broken:
            return -1
        ilits = [_to_internal(lt) for lt in lits]
        nvars = self.num_vars
        for lt in ilits:
            if not 1 <= (lt >> 1) <= nvars:
                raise ValueError(f"literal {_to_external(lt)} references unknown variable")
        if self._trail_lim:
            self._cancel_until(0)
        # Simplify against level-0 assignments and duplicates.  The ids of
        # the unit chains that falsified removed literals become part of
        # this clause's "derivation" so cores stay sufficient.
        out: list[int] = []
        seen: set[int] = set()
        simplify_deps: list[int] = []
        vals = self._vals
        for lt in ilits:
            v = vals[lt]
            if v == _TRUE or (lt ^ 1) in seen:
                return -1  # clause already satisfied / tautology
            if lt in seen:
                continue
            if v == _FALSE:
                if self.proof_logging:
                    simplify_deps.extend(self._explain_level0(lt >> 1))
                continue
            seen.add(lt)
            out.append(lt)
        cid = len(self._clauses)
        self._clauses.append(out if out else list(ilits))
        self._labels[cid] = label
        self._n_original += 1
        if not out:
            # All literals false at level 0.
            core = {cid}
            core.update(simplify_deps)
            self._mark_broken(self._expand_to_originals(core))
            return cid
        if simplify_deps:
            # The stored (simplified) clause is the original one resolved
            # against the unit chains that falsified the removed literals;
            # remember those ids so cores that use this clause stay
            # self-contained.
            self._simplify_deps[cid] = tuple(set(simplify_deps))
        if len(out) == 1:
            if not self._enqueue(out[0], cid):
                raise AssertionError("unit enqueue cannot conflict after simplification")
            confl = self._propagate()
            if confl != -1:
                core = self._conflict_core_at_level0(confl)
                self._mark_broken(core)
            return cid
        self._attach(cid)
        return cid

    #: A solve under a deadline polls the wall clock once per this many
    #: conflicts — frequent enough to stop a hard check within a fraction
    #: of a second, rare enough that ``time.monotonic()`` stays invisible
    #: in the profile.
    DEADLINE_CONFLICT_STEP = 16

    #: ...and once per this many decisions, so a propagation/decision-
    #: heavy (SAT-leaning) solve that rarely conflicts still honours the
    #: deadline instead of blowing far past ``timeout_s``.
    DEADLINE_DECISION_STEP = 64

    def solve(self, assumptions: Sequence[int] = (),
              max_conflicts: Optional[int] = None,
              deadline: Optional[float] = None) -> SolveResult:
        """Solve under the given assumption literals.

        Returns a :class:`SolveResult`; when unsatisfiable, the core of
        original clauses used is available through
        :meth:`core_clause_ids` / :meth:`core_labels` until the next call.
        ``max_conflicts`` bounds the search: up to N conflicts are
        *analyzed* (their learned clauses are kept for later calls —
        ``max_conflicts=1`` still learns from its one conflict), then the
        next conflict aborts with ``unknown=True`` and ``limit =
        "conflicts"``.  ``deadline`` (a ``time.monotonic()`` instant)
        bounds wall time: the loop polls the clock on stepped conflict
        *and* decision counts and aborts with ``limit = "deadline"`` once
        passed, so a single hard check cannot blow through a caller's
        wall budget.  A conflict at decision level 0 still returns the
        definitive UNSAT answer regardless of either limit.

        In fast mode, a solve whose assumption list shares a prefix with
        the previous solve's keeps the matching decision levels (and
        their propagations) assigned instead of cancelling to level 0 —
        sound because :meth:`add_clause` cancels to level 0, so a kept
        prefix is always at propagation fixpoint for the full clause set.
        """
        self.stats.solves += 1
        if self._broken:
            return self._result(False)
        if deadline is not None and time.monotonic() >= deadline:
            return SolveResult(sat=False, unknown=True, limit="deadline",
                               stats=self.stats.snapshot())
        budget_left = max_conflicts
        self._last_failed = ()
        self._unsat_core_cids = None
        iassumps = [_to_internal(lt) for lt in assumptions]
        nvars = self.num_vars
        for lt in iassumps:
            if not 1 <= (lt >> 1) <= nvars:
                raise ValueError(f"assumption {_to_external(lt)} references unknown variable")
        prof = self.profile
        st = self.stats
        if prof:
            t0 = time.perf_counter()
        if self._fast:
            # Assumption-trail reuse: keep the longest decision-level
            # prefix whose assumption literals match this call's.
            al = self._assump_levels
            keep = 0
            limit = min(len(al), len(iassumps))
            while keep < limit and al[keep] == iassumps[keep]:
                keep += 1
            self._cancel_until(keep)
            self.stats.trail_saved_levels += keep
        else:
            self._cancel_until(0)
        if prof:
            t1 = time.perf_counter()
            st.time_decide_s += t1 - t0
            t0 = t1
        confl = self._propagate()
        if prof:
            st.time_propagate_s += time.perf_counter() - t0
        if confl != -1:
            if self._decision_level() > 0:
                # A retained prefix can only hold a pending conflict if
                # clauses arrived since the last solve; add_clause cancels
                # to level 0 so this is defensive — re-run from scratch.
                self._cancel_until(0)
                confl = self._propagate()
            if confl != -1:
                self._mark_broken(self._conflict_core_at_level0(confl))
                return self._result(False)
        if self._fast and self._decision_level() == 0:
            if prof:
                t0 = time.perf_counter()
            self._simplify_learned()
            if prof:
                st.time_simplify_s += time.perf_counter() - t0

        restart_n = 0
        conflicts_budget = luby(restart_n) * 100
        conflicts_here = 0
        decisions_here = 0
        while True:
            if prof:
                t0 = time.perf_counter()
            confl = self._propagate()
            if prof:
                st.time_propagate_s += time.perf_counter() - t0
            if confl != -1:
                self.stats.conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self._mark_broken(self._conflict_core_at_level0(confl))
                    return self._result(False)
                if budget_left is not None:
                    if budget_left <= 0:
                        # Budget exhausted by previously analyzed
                        # conflicts: abort before analyzing this one.
                        self._cancel_until(0)
                        return SolveResult(sat=False, unknown=True,
                                           limit="conflicts",
                                           stats=self.stats.snapshot())
                    budget_left -= 1
                if (deadline is not None
                        and conflicts_here % self.DEADLINE_CONFLICT_STEP == 0
                        and time.monotonic() >= deadline):
                    self._cancel_until(0)
                    return SolveResult(sat=False, unknown=True,
                                       limit="deadline",
                                       stats=self.stats.snapshot())
                if prof:
                    t0 = time.perf_counter()
                learnt, bt_level, used, lbd = self._analyze(confl)
                self._cancel_until(bt_level)
                self._record_learnt(learnt, used, lbd)
                if prof:
                    st.time_analyze_s += time.perf_counter() - t0
                self._decay_activities()
                continue
            # No conflict: restart / reduce / decide.
            if conflicts_here >= conflicts_budget:
                restart_n += 1
                conflicts_budget = luby(restart_n) * 100
                conflicts_here = 0
                self.stats.restarts += 1
                if prof:
                    t0 = time.perf_counter()
                self._cancel_until(0)
                if prof:
                    st.time_decide_s += time.perf_counter() - t0
                if self._fast:
                    if prof:
                        t0 = time.perf_counter()
                    self._simplify_learned()
                    if prof:
                        st.time_simplify_s += time.perf_counter() - t0
                continue
            if len(self._learned_ids) > self._max_learnts + len(self._trail):
                if prof:
                    t0 = time.perf_counter()
                self._reduce_db()
                if prof:
                    st.time_reduce_s += time.perf_counter() - t0
            if prof:
                t0 = time.perf_counter()
            # Assumption decisions come first, in order.
            lvl = self._decision_level()
            if lvl < len(iassumps):
                p = iassumps[lvl]
                v = self._vals[p]
                if v == _FALSE:
                    if prof:
                        st.time_decide_s += time.perf_counter() - t0
                    self._analyze_final(p)
                    return self._result(False)
                if v == _TRUE:
                    # Already satisfied: open an empty decision level so
                    # the index into `iassumps` keeps advancing.
                    self._trail_lim.append(len(self._trail))
                    self._assump_levels.append(p)
                else:
                    self.stats.decisions += 1
                    self._trail_lim.append(len(self._trail))
                    self._assump_levels.append(p)
                    self._enqueue(p, -1)
                if prof:
                    st.time_decide_s += time.perf_counter() - t0
                continue
            p = self._pick_branch()
            if prof:
                st.time_decide_s += time.perf_counter() - t0
            if p == -1:
                return self._result(True)
            self.stats.decisions += 1
            decisions_here += 1
            if (deadline is not None
                    and decisions_here % self.DEADLINE_DECISION_STEP == 0
                    and time.monotonic() >= deadline):
                self._cancel_until(0)
                return SolveResult(sat=False, unknown=True,
                                   limit="deadline",
                                   stats=self.stats.snapshot())
            self._trail_lim.append(len(self._trail))
            self._assump_levels.append(0)
            self._enqueue(p, -1)

    def model_value(self, lit: int) -> bool:
        """Truth value of ``lit`` in the model of the last SAT answer.

        Variables the search never assigned (possible for variables created
        but not constrained) read as False.
        """
        return self._vals[_to_internal(lit)] == _TRUE

    def model(self) -> dict[int, bool]:
        """Full model as ``{var: bool}`` for all assigned variables."""
        out = {}
        vals = self._vals
        for var in range(1, self.num_vars + 1):
            a = vals[var << 1]
            if a != UNASSIGNED:
                out[var] = a == _TRUE
        return out

    def core_clause_ids(self) -> frozenset[int]:
        """Ids of *original* clauses in the last UNSAT answer's core.

        Requires ``proof=True``; raises if no UNSAT answer is pending.
        """
        if not self.proof_logging:
            raise RuntimeError("solver was created with proof logging disabled")
        if self._unsat_core_cids is None:
            raise RuntimeError("no unsat core available (last solve was SAT?)")
        return self._unsat_core_cids

    def core_labels(self) -> set[Hashable]:
        """Provenance labels of the core clauses, flattened.

        A clause labelled with a ``frozenset`` (multi-label — see
        :meth:`add_label`) contributes every member; unlabelled
        (``None``) clauses contribute nothing here and are counted by
        :meth:`core_unlabeled_count` instead, so a consumer that needs
        the label set to be *exhaustive* can tell a fully-attributed
        core from one with anonymous clauses.
        """
        labels = set()
        for cid in self.core_clause_ids():
            lab = self._labels.get(cid)
            if lab is None:
                continue
            if isinstance(lab, frozenset):
                labels.update(lab)
            else:
                labels.add(lab)
        return labels

    def core_unlabeled_count(self) -> int:
        """Number of clauses in the last UNSAT core carrying no label.

        ``core_labels`` silently skips ``None``-labelled clauses, so a
        core made entirely of unlabelled clauses is indistinguishable
        from an empty label set; callers that treat the labels as an
        exhaustive provenance record (proof-based abstraction) check
        this count instead of assuming it is zero.
        """
        return sum(1 for cid in self.core_clause_ids()
                   if self._labels.get(cid) is None)

    def core_has_unlabeled(self) -> bool:
        """True when the last UNSAT core contains unlabelled clauses."""
        return self.core_unlabeled_count() > 0

    def add_label(self, cid: int, label: Hashable) -> None:
        """Join ``label`` onto clause ``cid``'s label set.

        The multi-label half of clause sharing: a cache that answers a
        new consumer's request with an already-emitted clause joins the
        new consumer's provenance tag onto it, so a later unsat core
        attributes the clause to *every* consumer it served (see
        :meth:`core_labels`).  ``label`` may itself be a ``frozenset``
        of tags (unioned member-wise).  No-ops: ``cid < 0`` (the clause
        was absorbed — it can never appear in a core), ``label is
        None``, and labels already present.
        """
        if cid < 0 or label is None:
            return
        new = label if isinstance(label, frozenset) else frozenset((label,))
        cur = self._labels.get(cid)
        if cur is None:
            cur_set: frozenset = frozenset()
        elif isinstance(cur, frozenset):
            cur_set = cur
        else:
            cur_set = frozenset((cur,))
        joined = cur_set | new
        if joined != cur_set or cur is None:
            self._labels[cid] = joined

    def clause_label(self, cid: int) -> Hashable:
        """Raw stored label of ``cid``: a single tag, a ``frozenset`` of
        tags (multi-labelled clause), or None."""
        return self._labels.get(cid)

    def failed_assumptions(self) -> tuple[int, ...]:
        """Assumptions involved in the last UNSAT answer (external lits)."""
        return self._last_failed

    # -- proof-trace introspection (for repro.sat.proofcheck) ----------

    def is_learned(self, cid: int) -> bool:
        """True when ``cid`` was derived by conflict analysis."""
        return cid in self._derivations

    def derivation(self, cid: int) -> Optional[tuple[int, ...]]:
        """Antecedent clause ids of a learned clause (None for originals).

        The antecedents are the clauses the 1UIP resolution walked through,
        plus the level-0 unit chains behind eliminated literals; together
        they imply the learned clause by unit propagation.  Root-level
        shrinking extends a clause's antecedents with the unit chains of
        the literals it removed, so the (stronger) stored clause remains
        derivable from its recorded antecedents.
        """
        return self._derivations.get(cid)

    def learned_clause_ids(self) -> list[int]:
        """All learned clause ids in derivation order."""
        return sorted(self._derivations)

    def proof_clause_literals(self, cid: int) -> tuple[int, ...]:
        """External literals of any clause in the proof trace.

        Works for live clauses and for learned clauses deleted by clause-
        database reduction (their literals are retained in proof mode).
        Original clauses return their *stored* form — already simplified
        against the level-0 assignments present when they were added (the
        removed literals' unit chains appear as derivation dependencies).
        """
        lits = self._clauses[cid]
        if lits is None:
            stash = self._proof_lits.get(cid)
            if stash is None:
                raise KeyError(f"clause {cid} deleted and not retained "
                               "(was proof logging enabled?)")
            lits = stash
        return tuple(_to_external(lt) for lt in lits)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def _result(self, sat: bool) -> SolveResult:
        return SolveResult(sat=sat, failed_assumptions=self._last_failed,
                           stats=self.stats.snapshot())

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _attach(self, cid: int) -> None:
        # watches[L] holds the clauses currently watching literal L; they
        # are revisited when L becomes false.  Fast mode: 2-literal
        # clauses go to the binary implication lists, longer clauses
        # carry a blocker literal in the watch entry.
        lits = self._clauses[cid]
        assert lits is not None and len(lits) >= 2
        if self._fast:
            if len(lits) == 2:
                self._bin_watches[lits[0]].append((cid, lits[1]))
                self._bin_watches[lits[1]].append((cid, lits[0]))
            else:
                self._watches[lits[0]].append((cid, lits[1]))
                self._watches[lits[1]].append((cid, lits[0]))
        else:
            self._watches[lits[0]].append(cid)
            self._watches[lits[1]].append(cid)

    def _enqueue(self, ilit: int, reason: int) -> bool:
        vals = self._vals
        v = vals[ilit]
        if v != UNASSIGNED:
            return v == _TRUE
        vals[ilit] = _TRUE
        vals[ilit ^ 1] = _FALSE
        var = ilit >> 1
        self._levels[var] = self._decision_level()
        self._reasons[var] = reason
        self._trail.append(ilit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns conflicting clause id or -1."""
        if self._fast:
            return self._propagate_fast()
        return self._propagate_base()

    def _propagate_fast(self) -> int:
        """Fast unit propagation: binary lists first, blockers on long."""
        trail = self._trail
        clauses = self._clauses
        vals = self._vals
        watches = self._watches
        bins = self._bin_watches
        levels = self._levels
        reasons = self._reasons
        lvl = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            # Binary implications: no clause-object access at all.
            for cid, other in bins[false_lit]:
                a = vals[other]
                if a == UNASSIGNED:
                    vals[other] = _TRUE
                    vals[other ^ 1] = _FALSE
                    var = other >> 1
                    levels[var] = lvl
                    reasons[var] = cid
                    trail.append(other)
                elif a == _FALSE:
                    self._qhead = len(trail)
                    self.stats.propagations += qhead - start
                    return cid
            wl = watches[false_lit]
            i = 0
            j = 0
            n = len(wl)
            while i < n:
                w = wl[i]
                i += 1
                cid, blocker = w
                if vals[blocker] == _TRUE:
                    # Satisfied via the blocker: keep the entry as it is.
                    wl[j] = w
                    j += 1
                    continue
                lits = clauses[cid]
                if lits is None:
                    continue  # deleted clause; watcher dropped
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                a0 = vals[first]
                if a0 == _TRUE:
                    wl[j] = (cid, first)
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if vals[lk] != _FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        watches[lits[1]].append((cid, first))
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = (cid, first)
                j += 1
                if a0 == UNASSIGNED:
                    vals[first] = _TRUE
                    vals[first ^ 1] = _FALSE
                    var = first >> 1
                    levels[var] = lvl
                    reasons[var] = cid
                    trail.append(first)
                else:
                    # Conflict: keep remaining watchers, stop.
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    self._qhead = len(trail)
                    self.stats.propagations += qhead - start
                    return cid
            del wl[j:]
        self._qhead = qhead
        self.stats.propagations += qhead - start
        return -1

    def _propagate_base(self) -> int:
        """Baseline unit propagation (the historical single-scheme path)."""
        trail = self._trail
        clauses = self._clauses
        vals = self._vals
        watches = self._watches
        levels = self._levels
        reasons = self._reasons
        while self._qhead < len(trail):
            p = trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            false_lit = p ^ 1
            wl = watches[false_lit]
            i = 0
            j = 0
            n = len(wl)
            lvl = len(self._trail_lim)
            while i < n:
                cid = wl[i]
                i += 1
                lits = clauses[cid]
                if lits is None:
                    continue  # deleted clause; watcher dropped
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                a0 = vals[first]
                if a0 == _TRUE:
                    wl[j] = cid
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if vals[lk] != _FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        watches[lits[1]].append(cid)
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = cid
                j += 1
                if a0 == UNASSIGNED:
                    vals[first] = _TRUE
                    vals[first ^ 1] = _FALSE
                    var = first >> 1
                    levels[var] = lvl
                    reasons[var] = cid
                    trail.append(first)
                else:
                    # Conflict: keep remaining watchers, stop.
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    self._qhead = len(trail)
                    return cid
            del wl[j:]
        return -1

    def _analyze(self, confl: int) -> tuple[list[int], int, list[int], int]:
        """First-UIP conflict analysis.

        Returns (learned clause literals, backtrack level, antecedent
        cids, glue).  The antecedents include the level-0 unit chains
        behind eliminated literals so that the recorded derivation is
        self-contained.  Glue (LBD — the number of distinct decision
        levels in the learned clause) is computed here, while every
        literal is still assigned; 0 in baseline mode.
        """
        seen = self._seen
        learnt: list[int] = [0]  # slot 0 reserved for the asserting literal
        used: list[int] = [confl]
        path_count = 0
        p = -1
        index = len(self._trail)
        level = self._decision_level()
        cleanup: list[int] = []
        reason_cid = confl
        proof = self.proof_logging
        while True:
            lits = self._clauses[reason_cid]
            assert lits is not None
            if reason_cid in self._clause_act:
                self._bump_clause(reason_cid)
            start = 0 if p == -1 else 1
            for q in lits[start:]:
                v = q >> 1
                if not seen[v]:
                    if self._levels[v] > 0:
                        seen[v] = True
                        cleanup.append(v)
                        self._bump_var(v)
                        if self._levels[v] >= level:
                            path_count += 1
                        else:
                            learnt.append(q)
                    elif proof:
                        used.extend(self._explain_level0(v))
            while True:
                index -= 1
                p = self._trail[index]
                if seen[p >> 1]:
                    break
            path_count -= 1
            seen[p >> 1] = False
            if path_count == 0:
                break
            reason_cid = self._reasons[p >> 1]
            assert reason_cid != -1
            used.append(reason_cid)
            rl = self._clauses[reason_cid]
            assert rl is not None
            if rl[0] != p:
                idx = rl.index(p)
                rl[0], rl[idx] = rl[idx], rl[0]
        learnt[0] = p ^ 1
        # Recursive minimization (self-subsumption through reasons).
        minimized = [learnt[0]]
        for q in learnt[1:]:
            if self._redundant(q, seen, used, cleanup):
                continue
            minimized.append(q)
        learnt = minimized
        for v in cleanup:
            seen[v] = False
        lbd = 0
        if self._fast and len(learnt) > 1:
            levels = self._levels
            lbd = len({levels[q >> 1] for q in learnt})
        if len(learnt) == 1:
            bt = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self._levels[learnt[i] >> 1] > self._levels[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = self._levels[learnt[1] >> 1]
        return learnt, bt, used, lbd

    def _redundant(self, ilit: int, seen: list[bool], used: list[int],
                   cleanup: list[int]) -> bool:
        """True if ``ilit`` is implied by other marked literals."""
        if self._reasons[ilit >> 1] == -1:
            return False
        stack = [ilit]
        local_used: list[int] = []
        newly_seen: list[int] = []
        proof = self.proof_logging
        while stack:
            lt = stack.pop()
            r = self._reasons[lt >> 1]
            if r == -1:
                for v in newly_seen:
                    seen[v] = False
                return False
            lits = self._clauses[r]
            assert lits is not None
            local_used.append(r)
            for q in lits:
                v = q >> 1
                if v == lt >> 1:
                    continue
                if seen[v]:
                    continue
                if self._levels[v] == 0:
                    if proof:
                        local_used.extend(self._explain_level0(v))
                    continue
                if self._reasons[v] == -1:
                    for w in newly_seen:
                        seen[w] = False
                    return False
                seen[v] = True
                newly_seen.append(v)
                stack.append(q)
        used.extend(local_used)
        cleanup.extend(newly_seen)
        return True

    def _record_learnt(self, learnt: list[int], used: list[int],
                       lbd: int = 0) -> None:
        cid = len(self._clauses)
        self._clauses.append(list(learnt))
        self.stats.learned += 1
        if self.proof_logging:
            self._derivations[cid] = tuple(set(used))
        if len(learnt) == 1:
            if not self._enqueue(learnt[0], cid):
                raise AssertionError("asserting unit conflicts after backtrack")
        else:
            self._learned_ids.append(cid)
            self._clause_act[cid] = self._cla_inc
            if self._fast:
                self._clause_lbd[cid] = lbd
            self._attach(cid)
            self._enqueue(learnt[0], cid)

    def _explain_level0(self, var: int) -> tuple[int, ...]:
        """All clause ids whose units explain the level-0 value of ``var``.

        Memoized; level-0 assignments are permanent so the closure never
        changes once computed.
        """
        memo = self._l0_memo
        got = memo.get(var)
        if got is not None:
            return got
        result: set[int] = set()
        stack = [var]
        visited: set[int] = set()
        while stack:
            v = stack.pop()
            if v in visited:
                continue
            visited.add(v)
            cached = memo.get(v)
            if cached is not None:
                result.update(cached)
                continue
            r = self._reasons[v]
            if r == -1:
                continue
            result.add(r)
            lits = self._clauses[r]
            if lits:
                for q in lits:
                    if q >> 1 != v:
                        stack.append(q >> 1)
        out = tuple(result)
        memo[var] = out
        return out

    def _conflict_core_at_level0(self, confl_cid: int) -> frozenset[int]:
        """Expand a level-0 conflict into original clause ids."""
        if not self.proof_logging:
            return frozenset()
        cids: set[int] = {confl_cid}
        lits = self._clauses[confl_cid]
        if lits:
            for q in lits:
                cids.update(self._explain_level0(q >> 1))
        return self._expand_to_originals(cids)

    def _analyze_final(self, p: int) -> None:
        """Assumption ``p`` is falsified: build failed set and core."""
        failed_internal = {p}
        cids: set[int] = set()
        seen_vars: set[int] = {p >> 1}
        stack = [p >> 1]
        while stack:
            v = stack.pop()
            r = self._reasons[v]
            if r == -1:
                if self._levels[v] > 0:
                    # A decision: under assumption-first search this is an
                    # assumption literal (the value actually decided).
                    lit = v << 1
                    failed_internal.add(lit if self._vals[lit] == _TRUE
                                        else lit | 1)
                continue
            cids.add(r)
            lits = self._clauses[r]
            assert lits is not None
            for q in lits:
                w = q >> 1
                if w not in seen_vars:
                    seen_vars.add(w)
                    stack.append(w)
        self._last_failed = tuple(sorted(_to_external(lt) for lt in failed_internal))
        if self.proof_logging:
            self._unsat_core_cids = self._expand_to_originals(cids)

    def _expand_to_originals(self, cids: set[int]) -> frozenset[int]:
        out: set[int] = set()
        stack = list(cids)
        visited: set[int] = set()
        simplify_deps = self._simplify_deps
        while stack:
            cid = stack.pop()
            if cid in visited or cid < 0:
                continue
            visited.add(cid)
            deriv = self._derivations.get(cid)
            if deriv is None:
                out.add(cid)  # original clause
                extra = simplify_deps.get(cid)
                if extra:
                    stack.extend(extra)
            else:
                stack.extend(deriv)
        return frozenset(out)

    def _mark_broken(self, core: frozenset[int]) -> None:
        self._broken = True
        if self.proof_logging:
            self._unsat_core_cids = core

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        vals = self._vals
        saved = self._saved_sign
        reasons = self._reasons
        if self._fast:
            # VMTF: no re-insertion; the search pointer moves up to the
            # highest-stamped variable unassigned here.
            queue = self._queue
            stamp = queue.stamp
            search = queue.search
            best = stamp[search]
            for ilit in self._trail[bound:]:
                var = ilit >> 1
                saved[var] = ilit & 1
                vals[ilit] = vals[ilit ^ 1] = UNASSIGNED
                reasons[var] = -1
                if stamp[var] > best:
                    best = stamp[var]
                    search = var
            queue.search = search
        else:
            insert = self._order.insert
            for i in range(len(self._trail) - 1, bound - 1, -1):
                ilit = self._trail[i]
                var = ilit >> 1
                saved[var] = ilit & 1
                vals[ilit] = vals[ilit ^ 1] = UNASSIGNED
                reasons[var] = -1
                insert(var)
        del self._trail[bound:]
        del self._trail_lim[level:]
        del self._assump_levels[level:]
        self._qhead = len(self._trail)

    def _simplify_learned(self) -> None:
        """Shrink learned clauses against permanent level-0 assignments.

        Runs only at decision level 0 with propagation at fixpoint (solve
        entry and restarts, fast mode).  Learned clauses satisfied at the
        root are deleted (unless they are the reason of a level-0 literal
        — their unit chains stay valid); false-at-root literals are
        removed, with the removed literals' level-0 unit chains appended
        to the clause's derivation so RUP proof checking and core
        expansion remain sound against the stronger stored clause.
        """
        fixed = len(self._trail)
        if fixed == self._simplified_fixed:
            return
        self._simplified_fixed = fixed
        vals = self._vals
        proof = self.proof_logging
        locked = {self._reasons[lt >> 1] for lt in self._trail}
        keep: list[int] = []
        for cid in self._learned_ids:
            lits = self._clauses[cid]
            if lits is None:
                continue
            if len(lits) == 2 or cid in locked:
                keep.append(cid)
                continue
            sat = False
            nfalse = 0
            for lt in lits:
                a = vals[lt]
                if a == UNASSIGNED:
                    continue
                if a == _TRUE:
                    sat = True
                    break
                nfalse += 1
            if sat:
                if proof:
                    self._proof_lits[cid] = tuple(lits)
                self._clauses[cid] = None  # watcher entries dropped lazily
                self._clause_act.pop(cid, None)
                self._clause_lbd.pop(cid, None)
                self.stats.deleted += 1
                continue
            if nfalse:
                # Watched positions (0, 1) cannot be root-false in an
                # unsatisfied clause after level-0 propagation; guard
                # anyway and leave such a clause untouched.
                if (vals[lits[0]] != UNASSIGNED
                        or vals[lits[1]] != UNASSIGNED):
                    keep.append(cid)
                    continue
                deps: list[int] = []
                new: list[int] = []
                for lt in lits:
                    if vals[lt] == _FALSE:
                        if proof:
                            deps.extend(self._explain_level0(lt >> 1))
                        continue
                    new.append(lt)
                lits[:] = new
                if proof and deps:
                    self._derivations[cid] = tuple(
                        set(self._derivations[cid]) | set(deps))
                self.stats.shrunk_clauses += 1
                self.stats.shrunk_lits += nfalse
            keep.append(cid)
        self._learned_ids = keep

    # -- heuristics ----------------------------------------------------

    def _bump_var(self, var: int) -> None:
        if self._fast:
            self._queue.bump(var)
            return
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, len(self._activity)):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        self._order.bumped(var)

    def _bump_clause(self, cid: int) -> None:
        act = self._clause_act.get(cid)
        if act is None:
            return
        act += self._cla_inc
        self._clause_act[cid] = act
        if act > 1e20:
            for c in self._clause_act:
                self._clause_act[c] *= 1e-20
            self._cla_inc *= 1e-20
        if self._fast:
            # Glucose-style dynamic glue: a clause used in analysis has
            # all literals assigned, so its current LBD is well defined —
            # keep the minimum seen.  Also marks the clause "used" for
            # the tier-2 protection window in _reduce_db.
            self._clause_used.add(cid)
            old = self._clause_lbd.get(cid)
            if old is not None and old > self.LBD_CORE:
                lits = self._clauses[cid]
                levels = self._levels
                nl = len({levels[q >> 1] for q in lits})
                if nl < old:
                    self._clause_lbd[cid] = nl

    def _decay_activities(self) -> None:
        if not self._fast:
            self._var_inc *= self._var_decay
        self._cla_inc *= self._cla_decay

    def _pick_branch(self) -> int:
        """Next free decision literal (saved phase), or -1 when every
        variable is assigned."""
        vals = self._vals
        if self._fast:
            queue = self._queue
            prev = queue.prev
            var = queue.search
            while var and vals[var << 1] != UNASSIGNED:
                var = prev[var]
            if not var:
                return -1
            queue.search = var
            return var << 1 | self._saved_sign[var]
        order = self._order
        while len(order):
            var = order.pop_max()
            if vals[var << 1] == UNASSIGNED:
                return var << 1 | self._saved_sign[var]
        return -1

    def _reduce_db(self) -> None:
        """Trim the learned-clause database.

        Baseline: remove the lower-activity half of non-reason learned
        clauses.  Fast: tiered — "core" clauses (glue <= LBD_CORE) and
        binaries are pinned forever, "tier2" clauses (glue <= LBD_TIER2)
        survive the round when used in an analysis since the last
        reduction, and the remaining "local" tier is halved worst-first
        (highest glue, then lowest activity).
        """
        self._max_learnts *= self._learnt_growth
        locked = {self._reasons[lt >> 1] for lt in self._trail}
        if not self._fast:
            ids = sorted(self._learned_ids, key=lambda c: self._clause_act.get(c, 0.0))
            keep: list[int] = []
            to_delete = len(ids) // 2
            deleted = 0
            for cid in ids:
                lits = self._clauses[cid]
                if lits is None:
                    continue
                if deleted < to_delete and cid not in locked and len(lits) > 2:
                    if self.proof_logging:
                        # Later derivations may cite this clause; keep its
                        # literals for the proof checker.
                        self._proof_lits[cid] = tuple(lits)
                    self._clauses[cid] = None  # watcher entries dropped lazily
                    self._clause_act.pop(cid, None)
                    deleted += 1
                    self.stats.deleted += 1
                else:
                    keep.append(cid)
            self._learned_ids = keep
            return
        lbd = self._clause_lbd
        used = self._clause_used
        act = self._clause_act
        worst = 1 << 30
        keep = []
        cands: list[int] = []
        for cid in self._learned_ids:
            lits = self._clauses[cid]
            if lits is None:
                continue
            glue = lbd.get(cid, worst)
            if len(lits) <= 2 or cid in locked or glue <= self.LBD_CORE:
                keep.append(cid)
                continue
            if glue <= self.LBD_TIER2 and cid in used:
                keep.append(cid)
                continue
            cands.append(cid)
        cands.sort(key=lambda c: (-lbd.get(c, worst), act.get(c, 0.0)))
        ndel = len(cands) // 2
        proof = self.proof_logging
        for cid in cands[:ndel]:
            lits = self._clauses[cid]
            if proof:
                self._proof_lits[cid] = tuple(lits)
            self._clauses[cid] = None  # watcher entries dropped lazily
            act.pop(cid, None)
            lbd.pop(cid, None)
            self.stats.deleted += 1
        keep.extend(cands[ndel:])
        used.clear()
        self._learned_ids = keep
