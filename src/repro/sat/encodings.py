"""Reusable CNF encodings: at-most-one, cardinality, XOR, one-hot.

The EMM exclusivity chain of equation (4) is, at heart, an at-most-one
constraint over the matching read-write pair signals — built there as an
AND-chain because the paper's hybrid representation wants gates.  This
module provides the classic clause-level alternatives (pairwise,
sequential counter, commander) plus XOR/one-hot helpers.  No pipeline,
bench or CLI path calls them; only ``tests/test_encodings.py`` does.

All functions emit clauses through a caller-supplied ``add_clause`` and
allocate auxiliaries through ``new_var`` — they work against the
:class:`repro.sat.solver.Solver`, the :class:`Preprocessor`, or a plain
list collector in tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

AddClause = Callable[..., object]
NewVar = Callable[[], int]


def at_most_one_pairwise(lits: Sequence[int], add_clause: AddClause) -> int:
    """O(n²) pairwise AMO; returns the number of clauses added."""
    n = 0
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            add_clause([-lits[i], -lits[j]])
            n += 1
    return n


def at_most_one_sequential(lits: Sequence[int], add_clause: AddClause,
                           new_var: NewVar) -> int:
    """Sinz sequential AMO: 3(n-1) clauses, n-1 auxiliary variables."""
    if len(lits) <= 1:
        return 0
    n = 0
    prev = None  # s_i: "some literal among lits[0..i] is true"
    for i, lit in enumerate(lits[:-1]):
        s = new_var()
        add_clause([-lit, s])
        n += 1
        if prev is not None:
            add_clause([-prev, s])
            add_clause([-prev, -lit])
            n += 2
        prev = s
    add_clause([-prev, -lits[-1]])
    return n + 1


def at_most_one_commander(lits: Sequence[int], add_clause: AddClause,
                          new_var: NewVar, group: int = 3) -> int:
    """Commander AMO: recursive grouping with commander variables."""
    if group < 2:
        raise ValueError("group size must be at least 2")
    if len(lits) <= group:
        return at_most_one_pairwise(lits, add_clause)
    n = 0
    commanders: list[int] = []
    for base in range(0, len(lits), group):
        chunk = list(lits[base:base + group])
        c = new_var()
        commanders.append(c)
        # c is true when some chunk literal is true; chunk is AMO.
        for lit in chunk:
            add_clause([-lit, c])
            n += 1
        n += at_most_one_pairwise(chunk, add_clause)
    return n + at_most_one_commander(commanders, add_clause, new_var, group)


def at_most_k_sequential(lits: Sequence[int], k: int,
                         add_clause: AddClause, new_var: NewVar) -> int:
    """Sinz sequential counter for sum(lits) <= k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        for lit in lits:
            add_clause([-lit])
        return len(lits)
    if len(lits) <= k:
        return 0
    n = 0
    # registers[i][j]: after lits[0..i], at least j+1 literals are true.
    prev: list[int] = []
    for i, lit in enumerate(lits):
        cur = [new_var() for _ in range(min(i + 1, k))]
        # cur[0] <- lit or prev[0]
        add_clause([-lit, cur[0]])
        n += 1
        if prev:
            add_clause([-prev[0], cur[0]])
            n += 1
        for j in range(1, len(cur)):
            # cur[j] <- (lit and prev[j-1]) or prev[j]
            add_clause([-lit, -prev[j - 1], cur[j]])
            n += 1
            if j < len(prev):
                add_clause([-prev[j], cur[j]])
                n += 1
        # Overflow: lit and prev[k-1] would make k+1 true literals.
        if len(prev) == k:
            add_clause([-lit, -prev[k - 1]])
            n += 1
        prev = cur
    return n


def at_least_one(lits: Sequence[int], add_clause: AddClause) -> int:
    add_clause(list(lits))
    return 1


def exactly_one(lits: Sequence[int], add_clause: AddClause,
                new_var: NewVar, encoding: str = "sequential") -> int:
    """ALO plus the selected AMO encoding."""
    n = at_least_one(lits, add_clause)
    if encoding == "pairwise":
        return n + at_most_one_pairwise(lits, add_clause)
    if encoding == "sequential":
        return n + at_most_one_sequential(lits, add_clause, new_var)
    if encoding == "commander":
        return n + at_most_one_commander(lits, add_clause, new_var)
    raise ValueError(f"unknown AMO encoding {encoding!r}")


def xor_clauses(lits: Sequence[int], parity: bool,
                add_clause: AddClause, new_var: NewVar,
                cut: int = 4) -> int:
    """CNF for ``lits[0] ^ ... ^ lits[-1] == parity``.

    Long XOR chains are cut into ``cut``-ary pieces with fresh linking
    variables; each piece expands into its 2^(w-1) direct clauses.
    """
    chain = list(lits)
    n = 0
    while len(chain) > cut:
        piece, chain = chain[:cut - 1], chain[cut - 1:]
        link = new_var()
        n += _xor_direct(piece + [link], False, add_clause)
        chain.append(link)
    return n + _xor_direct(chain, parity, add_clause)


def _xor_direct(lits: Sequence[int], parity: bool,
                add_clause: AddClause) -> int:
    if not lits:
        if parity:
            add_clause([])  # 0 == 1: unsatisfiable
            return 1
        return 0
    n = 0
    for mask in range(1 << len(lits)):
        flips = bin(mask).count("1")
        # Forbid assignments with the wrong parity: the clause negates
        # the assignment where literal i is true iff bit i of mask is 0.
        if (flips % 2 == 0) == parity:
            add_clause([-lt if (mask >> i) & 1 else lt
                        for i, lt in enumerate(lits)])
            n += 1
    return n
