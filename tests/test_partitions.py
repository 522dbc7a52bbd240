from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import combinations

import pytest

from sc7core import partitions
from sc7core.eisenstein import sc7_from_class_number
from sc7core.partitions import (
    _beta_is_t_core,
    _chain_tables,
    _heads,
    _passes_hook_test,
    c_count,
    conjugate,
    is_t_core,
    partitions_of,
    sc_count,
    sc_count_column,
)
from sc7core.qseries import sc_series

PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]


def _ref_hook_lengths(parts) -> tuple[tuple[int, ...], ...]:
    """Hook number of every cell: 1 + cells to the right + cells below.

    Row i, column j (0-indexed) holds parts[i] - j + conj[j] - i - 1.
    """
    p = tuple(parts)
    conj = conjugate(p)
    return tuple(
        tuple(p[i] - j + conj[j] - i - 1 for j in range(p[i]))
        for i in range(len(p))
    )


def test_partitions_of_counts_and_shape():
    for n, expected in enumerate(PARTITION_NUMBERS):
        ps = list(partitions_of(n))
        assert len(ps) == expected
        assert len(set(ps)) == expected
        for p in ps:
            assert sum(p) == n
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def test_partitions_of_max_part():
    got = sorted(partitions_of(6, 2))
    assert got == [(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2)]


def test_conjugate_example():
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
    assert conjugate(()) == ()


def test_conjugate_is_involution():
    for n in range(13):
        for p in partitions_of(n):
            q = conjugate(p)
            assert sum(q) == n
            assert conjugate(q) == p


def test_conjugate_rejects_bad_input():
    with pytest.raises(ValueError):
        conjugate((1, 2))
    with pytest.raises(ValueError):
        conjugate((3, 0))


def test_hook_lengths_example():
    assert _ref_hook_lengths((4, 3, 1)) == ((6, 4, 3, 1), (4, 2, 1), (1,))
    assert _ref_hook_lengths(()) == ()


def test_is_t_core_matches_hook_definition():
    for n in range(13):
        for p in partitions_of(n):
            hooks = [h for row in _ref_hook_lengths(p) for h in row]
            for t in (2, 3, 4, 5, 7):
                assert is_t_core(p, t) == all(h % t for h in hooks)


def test_t_core_invariant_under_conjugation():
    for n in range(13):
        for p in partitions_of(n):
            for t in (2, 3, 5, 7):
                assert is_t_core(p, t) == is_t_core(conjugate(p), t)


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


def test_from_diagonal_hooks_roundtrip():
    # rebuilt partitions are self-conjugate with exactly the requested
    # diagonal hooks
    for n in range(26):
        odd_distinct = [d for d in partitions_of(n)
                        if all(x % 2 for x in d) and len(set(d)) == len(d)]
        for d in odd_distinct:
            p = from_diagonal_hooks(d)
            assert sum(p) == n
            assert conjugate(p) == p
            hooks = _ref_hook_lengths(p)
            assert tuple(hooks[i][i] for i in range(len(d))) == d


def test_from_diagonal_hooks_examples():
    assert from_diagonal_hooks(()) == ()
    assert from_diagonal_hooks((5,)) == (3, 1, 1)
    assert from_diagonal_hooks((5, 1)) == (3, 2, 1)
    assert from_diagonal_hooks((9, 3)) == (5, 3, 2, 1, 1)


def test_from_diagonal_hooks_rejects():
    with pytest.raises(ValueError):
        from_diagonal_hooks((4,))
    with pytest.raises(ValueError):
        from_diagonal_hooks((3, 5))
    with pytest.raises(ValueError):
        from_diagonal_hooks((5, 5))
    with pytest.raises(ValueError):
        from_diagonal_hooks((5, -1))


def test_hook_test_matches_the_rebuilt_partition():
    # every set of distinct odd hooks up to 25, in both orders, against
    # the first-column test on the partition they build
    odd = range(1, 26, 2)
    for k in range(len(odd) + 1):
        for hooks in combinations(odd, k):
            for t in range(1, 12):
                expected = _beta_is_t_core(from_diagonal_hooks(sorted(hooks, reverse=True)), t)
                assert _passes_hook_test(hooks, t) == expected, (hooks, t)
                assert _passes_hook_test(hooks[::-1], t) == expected, (hooks, t)


@pytest.mark.parametrize("hooks", [(5, 5), (3, 7, 3), (4,), (0,), (5, -1)])
def test_hook_test_rejects_what_names_no_partition(hooks):
    # a repeated, even or non-positive hook is a fault in the candidates,
    # never a partition that fails the test
    with pytest.raises(ValueError):
        _passes_hook_test(hooks, 7)


def test_sc_count_matches_naive_filter():
    # the chain product against the definition it is supposed to compute
    for n in range(41):
        scs = [p for p in partitions_of(n) if conjugate(p) == p]
        for t in (2, 3, 5, 7, 11):
            assert sc_count(n, t) == sum(1 for p in scs if is_t_core(p, t))


def test_sc_count_known_values():
    first = [1, 1, 0, 1, 1, 1, 1, 0, 1, 2, 1, 1, 2, 2, 0, 0, 3, 1, 1, 1]
    for n, expected in enumerate(first):
        assert sc_count(n, 7) == expected
    assert sc_count(25, 7) == 4


def test_sc_count_edges():
    assert sc_count(0, 7) == 1
    assert sc_count(0, 1) == 1
    # only the empty partition has no hooks at all
    for n in range(1, 15):
        assert sc_count(n, 1) == 0
    with pytest.raises(ValueError):
        sc_count(-1, 7)
    with pytest.raises(ValueError):
        sc_count(5, 0)


def _ref_sc_count(n: int, t: int) -> int:
    """The walk sc_count replaced: every odd part under the bound
    rem - d <= ((d-1)/2)^2, rules (i)-(iii) checked as parts are chosen."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    t2 = 2 * t
    count = 0
    chosen: list[int] = []
    used = [0] * t2
    pending: set[int] = set()

    def chain_sum(p: int) -> int:
        # total mass rule (iii) still forces below p: p + (p-2t) + ...
        s = 0
        while p > 0:
            s += p
            p -= t2
        return s

    def walk(rem: int, cap: int) -> None:
        nonlocal count
        if rem == 0:
            if not pending and _beta_is_t_core(from_diagonal_hooks(chosen), t):
                count += 1
            return
        if pending:
            if max(pending) > cap:
                return
            if sum(chain_sum(p) for p in pending) > rem:
                return
        top = rem if rem % 2 else rem - 1
        if cap < top:
            top = cap
        for d in range(top, 0, -2):
            if rem - d > ((d - 1) // 2) ** 2:
                break
            if d % t == 0 or used[-d % t2]:
                continue
            used[d % t2] += 1
            chosen.append(d)
            satisfied = d in pending
            if satisfied:
                pending.discard(d)
            obligation = d - t2
            if obligation > 0:
                pending.add(obligation)
            walk(rem - d, d - 2)
            if obligation > 0:
                pending.discard(obligation)
            if satisfied:
                pending.add(d)
            chosen.pop()
            used[d % t2] -= 1

    walk(n, n)
    return count


def test_sc_count_matches_reference_walk(enum_counts):
    assert enum_counts == [_ref_sc_count(n, 7) for n in range(301)]
    for t in (1, 2, 3, 4, 5, 9, 11):
        for n in range(121):
            assert sc_count(n, t) == _ref_sc_count(n, t), (n, t)


def test_sc_count_matches_series_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, derandomize=True, deadline=None)
    @hypothesis.given(st.integers(0, 3000))
    def check(n):
        assert sc_count(n, 7) == sc_series(7, n + 1)[n]

    check()


def test_sc_count_matches_class_number_above_property_range():
    # three n = 1 (mod 8) and one n = 3 (mod 8), none = 5 (mod 7)
    for n, expected in ((8001, 56), (30001, 68), (100001, 88), (100003, 112)):
        assert sc_count(n, 7) == sc7_from_class_number(n) == expected, n


def test_sc_count_leaves_every_leaf_to_the_hook_test(monkeypatch):
    calls = []

    def counting(hooks, t):
        calls.append(hooks)
        return _passes_hook_test(hooks, t)

    monkeypatch.setattr(partitions, "_passes_hook_test", counting)
    assert sc_count(2923, 7) == 25
    # every union of full chains is a t-core, so no candidate is rejected
    assert len(calls) == 25
    assert all(sum(hooks) == 2923 for hooks in calls)

    monkeypatch.setattr(partitions, "_passes_hook_test", lambda hooks, t: False)
    for n in range(1, 51):
        assert sc_count(n, 7) == 0, n


def _ref_heads(tables, N):
    """The walk `_heads` replaced: one recursion level per table, down
    to the empty table list, so one generator per head."""
    if not tables:
        yield 0, ()
        return
    for m, chain in tables[0]:
        if m > N:
            break
        for mass, chains in _ref_heads(tables[1:], N - m):
            yield m + mass, (chain,) + chains


def test_heads_match_the_recursive_walk():
    # Tables built at the walk's own bound, as both counters build them,
    # and at 200, so that the first table is cut too; with and without
    # the last table, so that 0 to 5 tables are walked.
    for t in range(1, 12):
        for N in (0, 1, 2 * t - 1, 2 * t, 2 * t + 1, 200):
            for tables in (_chain_tables(N, t), _chain_tables(200, t)):
                for walked in (tables, tables[:-1]):
                    heads = Counter(_heads(walked, N))
                    assert heads == Counter(_ref_heads(walked, N)), (t, N, len(walked))
                    assert all(len(chains) == len(walked) for _, chains in heads), (t, N)


def test_heads_is_a_lazy_iterator():
    tables = _chain_tables(100001, 7)[:-1]
    heads = _heads(tables, 100001)
    assert isinstance(heads, Iterator)
    assert next(heads) == (0, ((), ()))


def test_sc_count_column_matches_sc_count():
    for t in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11):
        assert sc_count_column(60, t) == [sc_count(n, t) for n in range(61)], t
    assert sc_count_column(1500, 7) == [sc_count(n, 7) for n in range(1501)]
    assert sc_count_column(0, 7) == [1]
    with pytest.raises(ValueError):
        sc_count_column(-1, 7)
    with pytest.raises(ValueError):
        sc_count_column(5, 0)


def test_sc_count_column_leaves_every_candidate_to_the_hook_test(monkeypatch):
    calls = []

    def counting(hooks, t):
        calls.append(hooks)
        return _passes_hook_test(hooks, t)

    monkeypatch.setattr(partitions, "_passes_hook_test", counting)
    column = sc_count_column(300, 7)
    # every union of full chains is a t-core, so no candidate is rejected
    assert len(calls) == sum(column)
    assert Counter(sum(hooks) for hooks in calls) == {n: c for n, c in enumerate(column) if c}

    monkeypatch.setattr(partitions, "_passes_hook_test", lambda hooks, t: False)
    assert sc_count_column(50, 7)[1:] == [0] * 50


def test_both_counters_test_the_same_candidates(monkeypatch):
    # the size-n candidates of one column are exactly those of
    # sc_count(n, t); a self-conjugate partition's size is the sum of its
    # diagonal hooks, and the order of the hooks is no part of a candidate
    tested = []

    def recording(hooks, t):
        tested.append(tuple(sorted(hooks)))
        return _passes_hook_test(hooks, t)

    monkeypatch.setattr(partitions, "_passes_hook_test", recording)
    for t in (1, 2, 7):
        tested.clear()
        column = sc_count_column(120, t)
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for hooks in tested:
            by_size.setdefault(sum(hooks), []).append(hooks)
        for n in range(121):
            tested.clear()
            assert sc_count(n, t) == column[n], (n, t)
            assert sorted(tested) == sorted(by_size.get(n, [])), (n, t)


def test_c_count():
    # 30 partitions of 9; exactly 14 of them contain a hook of length 7,
    # so 16 survive.  (A circulating figure of 14 counts the complement.)
    assert c_count(9, 7) == 16
    assert c_count(9, 7) == 30 - 7 * c_count(2, 7)
    # against the raw hook-length definition, not the beta-set shortcut
    for n in range(19):
        for t in (2, 3, 5, 7):
            brute = sum(1 for p in partitions_of(n)
                        if all(h % t for row in _ref_hook_lengths(p) for h in row))
            assert c_count(n, t) == brute
