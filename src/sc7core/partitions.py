"""Integer partitions, Ferrers-Young hooks, t-core tests, and the
self-conjugate counting oracle.

Partitions are plain tuples of nonincreasing positive parts; the empty
tuple is the unique partition of 0.  Self-conjugate partitions are
enumerated through the classical bijection with partitions into distinct
odd parts: a set of distinct odd numbers d_1 > d_2 > ... becomes the
self-conjugate partition whose nested diagonal hooks have those lengths.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterator, Sequence
from math import isqrt


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


def hook_lengths(parts) -> tuple[tuple[int, ...], ...]:
    """Hook number of every cell: 1 + cells to the right + cells below.

    Row i, column j (0-indexed) holds parts[i] - j + conj[j] - i - 1.
    """
    p = _as_partition(parts)
    conj = conjugate(p)
    return tuple(
        tuple(p[i] - j + conj[j] - i - 1 for j in range(p[i]))
        for i in range(len(p))
    )


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


def distinct_odd_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n into distinct odd parts, decreasing."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield ()
        return
    top = n if n % 2 else n - 1
    if max_part is not None and max_part < top:
        top = max_part
    for d in range(top, 0, -2):
        # the largest sum distinct odd parts below d can reach is ((d-1)/2)^2
        if n - d > ((d - 1) // 2) ** 2:
            break
        for rest in distinct_odd_partitions(n - d, d - 2):
            yield (d,) + rest


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


def self_conjugate_partitions(n: int) -> list[tuple[int, ...]]:
    """All self-conjugate partitions of n, sorted lexicographically."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return sorted(from_diagonal_hooks(d) for d in distinct_odd_partitions(n))


def sc_count(n: int, t: int) -> int:
    """Number of self-conjugate t-core partitions of n, by enumeration.

    Walks the tree of decreasing distinct odd parts (the diagonal hooks)
    and keeps the full hook test as the arbiter of every leaf, but visits
    only the parts that the hook structure leaves open.  With diagonal
    hook set D (d1 largest), the symmetric block cell (i, j) has hook
    (d_i + d_j)/2 and the first-column hooks are exactly
    {(d1 + d)/2 : d in D} plus {(d1 - e)/2 : e odd, e < d1, e not in D}.
    Hence a t-core forces:

      (i)   no d in D with d ≡ 0 (mod t)          [diagonal hook d]
      (ii)  no pair d + d' ≡ 0 (mod 2t)           [block hook (d+d')/2]
      (iii) d in D and d > 2t  =>  d - 2t in D    [first-column hook chain]

    So D is a union of full chains d, d - 2t, ... down to the least
    positive term, at most one in each residue pair {r, 2t - r} (the
    abacus picture of Garvan, Kim and Stanton, *Cranks and t-cores*).
    Every chosen part d > 2t leaves the obligation d - 2t, and a node
    tries only:

      * the largest pending obligation: a smaller part would drop the
        cap of every later part below it, and a larger part in a used
        residue cannot exist;
      * the top d of a new chain, in a pair with neither side used yet.

    Once d is chosen its chain(d) = d + (d - 2t) + ... = k*d - t*k*(k - 1)
    is forced, with k = ceil(d/2t) terms; `forced` is the sum of
    chain(p) over the pending obligations p.  Let room(c) be the sum,
    over the pairs with neither side used, of the larger full chain with
    top <= c.  A new top d is accepted only while

      forced + chain(d) <= rem <= forced + room(d).

    The left side holds because every forced chain must be placed.  On
    the right, d's own pair gives exactly chain(d) and each other
    untouched pair the most that one new chain below d can add, and
    nothing else can add mass.  The right side grows with d, so the scan
    stops at the first d it fails; by the same reasoning an obligation p
    is taken only while rem <= forced + room(p - 2).  As chain(d) >=
    d^2/4t, the scan starts at sqrt(4t (rem - forced)).  Each bound is a
    necessary condition, so only subtrees with no valid leaf are cut.

    Single runs (Python 3.11, 2-vCPU VM): sc_count(1500, 7) takes about
    8 ms and sc_count(8001, 7) about 0.1 s, against 0.18 s and 8.4 s for
    the walk this replaced, which tried every odd part d under the
    bound rem - d <= ((d-1)/2)^2.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    t2 = 2 * t
    pairs = [(r, t2 - r) for r in range(1, t, 2)]
    count = 0
    chosen: list[int] = []
    used = bytearray(t2)  # residues mod 2t that hold a chain top
    pending: list[int] = []  # obligations of rule (iii), ascending

    def chain(d: int) -> int:
        k = -(-d // t2)
        return k * d - t * k * (k - 1)

    def room(c: int) -> int:
        s = 0
        for r, r1 in pairs:
            if not (used[r] or used[r1]):
                s += chain(max(c - (c - r) % t2, c - (c - r1) % t2, 0))
        return s

    def take(d: int, rem: int, forced: int) -> None:
        # place part d; forced is the mass still forced once d is placed
        chosen.append(d)
        if d > t2:
            insort(pending, d - t2)
        walk(rem - d, d - 2, forced)
        if d > t2:
            pending.remove(d - t2)
        chosen.pop()

    def walk(rem: int, cap: int, forced: int) -> None:
        nonlocal count
        if rem == 0:
            if _beta_is_t_core(from_diagonal_hooks(chosen), t):
                count += 1
            return
        low = pending[-1] if pending else 0
        top = min(cap, isqrt(4 * t * (rem - forced)))
        for d in range(top - 1 + top % 2, low, -2):
            r = d % t2
            if r == t or used[r] or used[t2 - r]:
                continue
            need = forced + chain(d)
            if need > rem:
                continue
            if rem > forced + room(d):
                break
            used[r] = 1
            take(d, rem, need - d)
            used[r] = 0
        # taking p leaves forced - p, since chain(p) - chain(p - 2t) = p
        if pending and rem <= forced + room(low - 2):
            pending.pop()
            take(low, rem, forced - low)
            pending.append(low)

    walk(n, n, 0)
    return count


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
