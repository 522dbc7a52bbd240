"""Integer partitions, t-core tests, and the self-conjugate counting
oracle.

Partitions are plain tuples of nonincreasing positive parts; the empty
tuple is the unique partition of 0.  A self-conjugate partition is
rebuilt from its diagonal hook lengths, distinct odd numbers
d_1 > d_2 > ... (`from_diagonal_hooks`).

`sc_count` (one n) and `sc_count_column` (every n up to N) count
self-conjugate t-cores over the same candidates: `_chain_tables` holds,
per residue pair, the full diagonal-hook chains that rules (i)-(iii)
allow, `_heads` walks every choice of one chain from each table but the
last, and the counters differ only in how they read the last table.
The full hook test decides every candidate.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from itertools import chain as flatten_chains


def _as_partition(parts) -> tuple[int, ...]:
    p = tuple(parts)
    for i, x in enumerate(p):
        if x < 1:
            raise ValueError(f"parts must be positive, got {x}")
        if i and p[i - 1] < x:
            raise ValueError(f"parts must be nonincreasing, got {p}")
    return p


def conjugate(parts) -> tuple[int, ...]:
    """Transpose of the Ferrers-Young diagram: column lengths of parts."""
    p = _as_partition(parts)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


def _beta_is_t_core(p: Sequence[int], t: int) -> bool:
    # First-column hook check: p is a t-core iff for every first-column
    # hook b >= t the value b - t is again a first-column hook.
    k = len(p)
    if k == 0:
        return True
    beta = [p[i] + k - 1 - i for i in range(k)]
    present = bytearray(beta[0] + 1)
    for b in beta:
        present[b] = 1
    return all(b < t or present[b - t] for b in beta)


def is_t_core(parts, t: int) -> bool:
    """True iff no hook number of the partition is divisible by t."""
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    return _beta_is_t_core(_as_partition(parts), t)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Every partition of n, largest part first.  Exponential in n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def from_diagonal_hooks(hooks: Sequence[int]) -> tuple[int, ...]:
    """Self-conjugate partition with the given diagonal hook lengths.

    hooks must be distinct odd positive integers in decreasing order; hook
    i (1-indexed) wraps around the diagonal cell (i, i), so row i has
    length i + (hooks[i] - 1)/2 down to the diagonal, and the rows below
    the last diagonal cell are forced by symmetry.
    """
    k = len(hooks)
    if k == 0:
        return ()
    for i, d in enumerate(hooks):
        if d < 1 or d % 2 == 0:
            raise ValueError(f"diagonal hooks must be odd and positive, got {d}")
        if i and hooks[i - 1] <= d:
            raise ValueError("diagonal hooks must be strictly decreasing")
    parts = [i + 1 + (hooks[i] - 1) // 2 for i in range(k)]
    out = parts[:]
    idx = k - 1
    for j in range(k + 1, parts[0] + 1):
        while idx >= 0 and parts[idx] < j:
            idx -= 1
        out.append(idx + 1)
    return tuple(out)


def _chain_tables(N: int, t: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Candidate pieces of a self-conjugate t-core of size at most N.

    With diagonal hook set D (d1 largest), the symmetric block cell
    (i, j) has hook (d_i + d_j)/2 and the first-column hooks are exactly
    {(d1 + d)/2 : d in D} plus {(d1 - e)/2 : e odd, e < d1, e not in D}.
    Hence a t-core forces:

      (i)   no d in D with d ≡ 0 (mod t)          [diagonal hook d]
      (ii)  no pair d + d' ≡ 0 (mod 2t)           [block hook (d+d')/2]
      (iii) d in D and d > 2t  =>  d - 2t in D    [first-column hook chain]

    So D is a union of full chains d, d - 2t, ... down to the least
    positive term, at most one in each residue pair {r, 2t - r}, r odd
    and r < t (the abacus picture of Garvan, Kim and Stanton, *Cranks
    and t-cores*).  This returns one table per pair: the empty chain and
    every full chain of mass at most N, as (mass, chain) sorted by mass.
    t = 1 has no pair; its one table holds only the empty chain.
    """
    t2 = 2 * t
    tables = []
    for r in range(1, t, 2):
        entries: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        for d in (r, t2 - r):
            chain: tuple[int, ...] = ()
            mass = 0
            while mass + d <= N:
                chain = (d,) + chain
                mass += d
                entries.append((mass, chain))
                d += t2
        entries.sort()
        tables.append(entries)
    return tables or [[(0, ())]]


def _heads(tables, N: int) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """Every choice of one entry per table with total mass at most N, as
    (mass, chains), one chain per table.  The last two tables are one
    flat nested loop, so no generator is made per head: the second is
    cut by `bisect_right` on its masses at the mass still free.  Every
    other table is left at its first entry that no longer fits, and
    those before the last two recurse.  The chains are not joined here:
    most heads of `sc_count` are never tested."""
    if len(tables) == 2:
        first, second = tables
        masses = [m for m, _ in second]
        for m, chain in first:
            if m > N:
                break
            for m2, chain2 in second[:bisect_right(masses, N - m)]:
                yield m + m2, (chain, chain2)
    elif not tables:
        yield 0, ()
    else:
        for m, chain in tables[0]:
            if m > N:
                break
            for mass, chains in _heads(tables[1:], N - m):
                yield m + mass, (chain,) + chains


def _joined(chains) -> tuple[int, ...]:
    return tuple(flatten_chains.from_iterable(chains))


def _passes_hook_test(hooks: tuple[int, ...], t: int) -> bool:
    # the full hook test on the partition with these diagonal hooks
    return _beta_is_t_core(from_diagonal_hooks(sorted(hooks, reverse=True)), t)


def sc_count(n: int, t: int) -> int:
    """Number of self-conjugate t-core partitions of n, by enumeration.

    Candidates and walk as in the module docstring; the last table is
    indexed by mass, so a head of mass h tests only the entries of mass
    n - h.

    Best of 12-40 runs (Python 3.11.7, 2-vCPU VM whose speed drifts by
    about ±30% between runs): sc_count(n, 7) takes about 0.9-1.6 ms at
    n = 1500, 4.0-6.5 ms at 8001, 10-12 ms at 30001, 26-34 ms at 100001
    and 0.13-0.20 s at 300001; from n = 30001 on, the hook tests of its
    few candidates take over half of that.  For every n up to a bound at once,
    `sc_count_column` tests each candidate once instead of once per call.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    tables = _chain_tables(n, t)
    last: dict[int, list[tuple[int, ...]]] = {}
    for mass, chain in tables.pop():
        last.setdefault(mass, []).append(chain)
    return sum(_passes_hook_test(_joined(chains) + chain, t)
               for mass, chains in _heads(tables, n)
               for chain in last.get(n - mass, ()))


def sc_count_column(N: int, t: int) -> list[int]:
    """sc_count(n, t) for n = 0..N, as a list indexed by n.

    Candidates and walk as in the module docstring; the last table is
    looped over in order of mass for every head, and each candidate
    that passes the hook test adds one at its mass.  Memory stays O(N)
    plus the chains.  The hook tests lead its cost, not the walk.  Same
    runs as `sc_count`'s: about 0.011-0.013 s at N = 300, 0.26-0.38 s at
    N = 1500 and 1.1-1.6 s at N = 3000, where one sc_count call per n
    takes 0.46-0.72 and 2.1 s at the last two.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    tables = _chain_tables(N, t)
    last = tables.pop()
    column = [0] * (N + 1)
    for mass, chains in _heads(tables, N):
        hooks = _joined(chains)
        for m, chain in last:
            if mass + m > N:
                break
            if _passes_hook_test(hooks + chain, t):
                column[mass + m] += 1
    return column


def c_count(n: int, t: int) -> int:
    """Number of t-core partitions of n by filtering all partitions.

    Exponential in n (goes through p(n) candidates); only meant for
    small-n cross-checks.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    return sum(1 for p in partitions_of(n) if _beta_is_t_core(p, t))
