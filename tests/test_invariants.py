import itertools
import random

import pytest

import zerosum.invariants as invariants
from zerosum import (
    Budget,
    InvalidInputError,
    Sequence,
    check_property_d,
    compute,
    detect_arithmetic_tail,
    formula_oracle,
    has_nonempty_zero_sum,
    has_property,
    has_short_zero_sum,
    has_zero_sum_of_length,
    make_group,
    max_disjoint_zero_sums,
    property_d_known,
    search_state,
)
from zerosum.search import dfs_run

from conftest import brute_max_disjoint, brute_subsums


def test_property_d_known_set():
    assert property_d_known(1)
    assert all(property_d_known(m) for m in (2, 3, 5, 7, 6, 8, 9, 10, 210))
    assert not property_d_known(11)
    assert not property_d_known(22)


def test_formula_oracle_rank_two():
    assert formula_oracle(make_group([]), "d") == 1
    assert formula_oracle(make_group([7]), "eta") == 7
    assert formula_oracle(make_group([7]), "s") == 13
    assert formula_oracle(make_group([7]), "dk", 3) == 21
    assert formula_oracle(make_group([2, 4]), "d") == 5
    assert formula_oracle(make_group([2, 4]), "eta") == 6
    assert formula_oracle(make_group([2, 4]), "s") == 9
    assert formula_oracle(make_group([3, 6]), "eta") == 10
    assert formula_oracle(make_group([2, 4]), "d0") == 1
    assert formula_oracle(make_group([2, 4]), "kd") == 1


def test_formula_oracle_rank_three_family():
    assert formula_oracle(make_group([2, 4, 4]), "eta") == 14
    assert formula_oracle(make_group([2, 2, 4]), "s") == 11
    assert formula_oracle(make_group([2, 2, 2]), "dk", 2) == 7
    assert formula_oracle(make_group([2, 2, 2]), "s") == 9
    assert formula_oracle(make_group([2, 2, 8]), "d") == 10
    assert formula_oracle(make_group([2, 6, 12]), "s") == 4 * 3 + 4 * 6 - 1
    assert formula_oracle(make_group([2, 2, 6]), "eta") == 10
    assert formula_oracle(make_group([2, 4, 4]), "d0") == 5
    assert formula_oracle(make_group([2, 4, 4]), "kd") == 2
    assert formula_oracle(make_group([2, 2, 4]), "d0") == 2
    assert formula_oracle(make_group([2, 2, 4]), "kd") == 1
    # s for n >= 2 requires Property D of m; m = 11 is unknown
    assert formula_oracle(make_group([2, 22, 44]), "s") is None
    assert formula_oracle(make_group([2, 22, 44]), "eta") == 4 * 11 + 2 * 11 * 2


def test_formula_oracle_outside_families():
    assert formula_oracle(make_group([3, 3, 3]), "d") is None
    assert formula_oracle(make_group([2, 2, 2, 2]), "eta") is None
    assert formula_oracle(make_group([4, 4, 8]), "s") is None


def test_formula_oracle_bad_kind():
    with pytest.raises(InvalidInputError):
        formula_oracle(make_group([5]), "dk")
    with pytest.raises(InvalidInputError):
        formula_oracle(make_group([5]), "nope")


@pytest.mark.parametrize("factors,expect", [
    ([], 1), ([5], 5), ([2, 2, 2], 4), ([2, 4], 5), ([3, 3], 5), ([2, 2, 4], 6),
])
def test_davenport_small(factors, expect):
    res = compute(make_group(factors), "d")
    assert res.value == expect
    assert res.status == "complete"
    assert len(res.witness) == expect - 1
    assert not has_nonempty_zero_sum(res.witness)


@pytest.mark.parametrize("factors,expect", [
    ([], 1), ([6], 6), ([2, 2, 2], 8), ([2, 4], 6), ([2, 2, 4], 8),
])
def test_eta_small(factors, expect):
    res = compute(make_group(factors), "eta")
    assert res.value == expect
    assert not has_short_zero_sum(res.witness)


@pytest.mark.parametrize("factors,expect", [
    ([], 1), ([5], 9), ([3, 3], 9), ([2, 2, 2], 9),
])
def test_s_small(factors, expect):
    group = make_group(factors)
    res = compute(group, "s")
    assert res.value == expect
    assert not has_zero_sum_of_length(res.witness, group.exponent)


def test_dk_small():
    g = make_group([2, 2, 2])
    for k, expect in [(1, 4), (2, 7), (3, 9), (4, 11)]:
        res = compute(g, "dk", k)
        assert res.value == expect
        assert max_disjoint_zero_sums(res.witness, k) == k - 1
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            assert compute(make_group([n]), "dk", k).value == k * n
    with pytest.raises(InvalidInputError):
        compute(g, "dk", 0)


def test_dk_monotone_in_k():
    # strictly monotone, each step at most D(G); the step equals exp(G)
    # once the arithmetic tail starts (it can exceed exp before that:
    # D_2(C_2^3) = 7 = D_1 + 3)
    for factors in ([4], [5], [2, 2], [2, 4], [2, 2, 2]):
        group = make_group(factors)
        d = compute(group, "d").value
        values = [compute(group, "dk", k).value for k in range(1, 5)]
        for a, b in zip(values, values[1:]):
            assert a < b <= a + d, (factors, values)
        tail = detect_arithmetic_tail(group, 4)
        for k in range(tail.kd, 4):
            assert values[k] - values[k - 1] == group.exponent


def test_d1_equals_davenport(small_groups):
    for group in small_groups[:8]:
        assert compute(group, "dk", 1).value == compute(group, "d").value


def test_trivial_group_conventions():
    t = make_group([])
    assert compute(t, "d").value == 1
    assert compute(t, "eta").value == 1
    assert compute(t, "s").value == 1
    for k in (1, 2, 3):
        assert compute(t, "dk", k).value == k


def test_witness_local_maximality():
    # every one-element extension of a maximal witness gains the property
    group = make_group([3, 3])
    res = compute(group, "d")
    for g in range(group.order):
        extended = res.witness * Sequence.from_indices(group, [g])
        assert has_nonempty_zero_sum(extended)
    res = compute(group, "eta")
    for g in range(group.order):
        extended = res.witness * Sequence.from_indices(group, [g])
        assert has_short_zero_sum(extended)


def test_search_matches_oracle_spot(small_groups):
    rng = random.Random(20)
    for group in small_groups[:8]:
        assert compute(group, "d").value == formula_oracle(group, "d")


def test_orbit_pruning_does_not_change_values():
    for factors in ([2, 4], [3, 3], [2, 2, 2]):
        g = make_group(factors)
        assert compute(g, "eta", orbit_pruning=False).value == \
            compute(g, "eta", orbit_pruning=True).value
        assert compute(g, "s", orbit_pruning=False).value == \
            compute(g, "s", orbit_pruning=True).value


def test_budget_gives_partial_lower_bound():
    g = make_group([2, 4, 4])
    res = compute(g, "d", budget=Budget(max_nodes=2000))
    assert res.status == "partial"
    assert res.checkpoint is not None
    assert res.value <= 8
    assert not has_nonempty_zero_sum(res.witness)


def test_resume_reaches_identical_result():
    g = make_group([3, 9])
    full = compute(g, "d")
    partial = compute(g, "d", budget=Budget(max_nodes=5000))
    assert partial.status == "partial"
    rounds = 0
    while partial.status == "partial":
        partial = compute(g, "d", budget=Budget(max_nodes=50000),
                          resume=partial.checkpoint)
        rounds += 1
        assert rounds < 50
    assert partial.value == full.value
    assert partial.witness == full.witness
    assert partial.stats.nodes == full.stats.nodes


def test_detect_arithmetic_tail():
    report = detect_arithmetic_tail(make_group([2, 2, 2]), 4)
    assert (report.d0, report.kd) == (3, 2)
    assert report.status == "provisional"
    assert report.dk_values == [4, 7, 9, 11]

    report = detect_arithmetic_tail(make_group([6]), 3)
    assert (report.d0, report.kd) == (0, 1)

    report = detect_arithmetic_tail(make_group([3, 3]), 3)
    assert (report.d0, report.kd) == (2, 1)

    # horizon too short to certify stabilization + 2
    report = detect_arithmetic_tail(make_group([2, 2, 2]), 2)
    assert report.status == "inconclusive"
    assert report.d0 is None


def test_property_d_small():
    assert check_property_d(1).holds
    r2 = check_property_d(2)
    assert r2.holds and r2.extremal_count == 1
    r3 = check_property_d(3)
    assert r3.holds and r3.counterexample is None
    assert r3.extremal_count > 0


def test_property_d_budget():
    report = check_property_d(3, Budget(max_nodes=50))
    assert report.status == "inconclusive"


def test_compute_dispatch():
    g = make_group([4])
    assert compute(g, "d").value == 4
    assert compute(g, "dk", k=2).value == 8
    seq = Sequence.from_indices(g, [1])
    for kind, k in (("dk", None), ("dk", 0), ("bogus", None)):
        with pytest.raises(InvalidInputError):
            compute(g, kind, k)
        with pytest.raises(InvalidInputError):
            search_state(g, kind, k)
        with pytest.raises(InvalidInputError):
            has_property(seq, kind, k)


@pytest.mark.parametrize("kind,k", [("d", None), ("dk", 2), ("eta", None), ("s", None)])
@pytest.mark.parametrize("factors", [[6], [2, 4], [2, 2, 2]], ids=str)
def test_search_state_keeps_exactly_the_sequences_without_the_property(factors, kind, k):
    """has_property agrees with the brute-force oracles on every multiset
    of length at most 6, and dfs_run's enumeration with search_state emits
    exactly those without the property, in lexicographic order."""
    group = make_group(factors)
    exp = group.exponent
    for length in range(7):
        lacking = []
        for combo in itertools.combinations_with_replacement(range(group.order), length):
            seq = Sequence.from_indices(group, combo)
            if kind == "dk":
                expected = brute_max_disjoint(seq) >= k
            else:
                lengths = brute_subsums(seq)[0] - {0}
                expected = {"d": bool(lengths), "eta": any(L <= exp for L in lengths),
                            "s": exp in lengths}[kind]
            assert has_property(seq, kind, k) == expected, combo
            if not expected:
                lacking.append(combo)
        emitted = []
        dfs_run(group, search_state(group, kind, k), target_length=length,
                emit=emitted.append)
        assert emitted == lacking, length


def test_result_json_shape():
    res = compute(make_group([2, 4]), "eta")
    payload = res.to_json()
    assert payload["group"] == [2, 4]
    assert payload["kind"] == "eta"
    assert payload["value"] == 6
    assert payload["status"] == "complete"
    assert set(payload["stats"]) == {"nodes", "seconds"}
    assert payload["witness"]["group"] == [2, 4]


# value, witness as sorted indices, and node count of searches whose tree
# must not change when their pruning state changes representation; the
# orbit-pruned trees also pin the stabiliser chain, the unpruned ones the
# bare search
PINNED_SEARCHES = [
    ([2, 4, 4], "d", None, True, 8, [1, 2, 2, 2, 8, 8, 8], 24269),
    ([2, 2, 8], "d", None, True, 10, [1, 2, 4, 4, 4, 4, 4, 4, 4], 56625),
    ([2, 2, 2], "dk", 2, True, 7, [1, 2, 3, 4, 5, 6], 126),
    ([2, 2, 2], "dk", 3, True, 9, [1, 1, 1, 2, 3, 4, 5, 6], 852),
    ([2, 2, 2], "dk", 4, True, 11, [1, 1, 1, 1, 1, 2, 3, 4, 5, 6], 4001),
    ([2, 2, 4], "dk", 2, True, 10, [1, 2, 4, 4, 4, 4, 4, 4, 4], 19620),
    ([2, 2, 6], "eta", None, True, 10, [1, 2, 4, 4, 4, 4, 4, 5, 6], 12917),
    ([2, 2, 4], "s", None, True, 11, [0, 0, 0, 1, 2, 4, 4, 4, 5, 6], 5446),
    ([2, 2, 2], "dk", 2, False, 7, [1, 2, 3, 4, 5, 6], 1235),
    ([2, 2, 2], "dk", 3, False, 9, [1, 1, 1, 2, 3, 4, 5, 6], 5971),
    ([2, 2, 4], "eta", None, False, 8, [1, 2, 4, 4, 4, 5, 6], 15214),
    ([2, 2, 4], "s", None, False, 11, [0, 0, 0, 1, 2, 4, 4, 4, 5, 6], 98850),
]


@pytest.mark.parametrize(
    "factors,kind,k,orbit,value,witness,nodes", PINNED_SEARCHES,
    ids=["x".join(f"C{f}" for f in case[0]) + f"-{case[1]}{case[2] or ''}"
         + ("" if case[3] else "-unpruned") for case in PINNED_SEARCHES])
def test_pinned_search_trees(factors, kind, k, orbit, value, witness, nodes):
    res = compute(make_group(factors), kind, k=k, orbit_pruning=orbit)
    assert res.value == value
    assert res.witness == Sequence.from_indices(res.group, witness)
    assert res.stats.nodes == nodes


def _check_carried_family(state, prefix):
    """The top of a _DkState stack: ``count`` disjoint zero-sum parts that
    divide the prefix, and the subsum masks of the prefix and of the terms
    outside the family, recomputed with sets."""
    group = state.group

    def subsum_mask(terms):
        sums = set()
        for t in terms:
            sums |= {group.add_index(s, t) for s in sums} | {t}
        return sum(1 << e for e in sums)

    count, family = state.counts[-1], state.families[-1]
    assert len(family) == count
    free = list(prefix)
    for part in family:
        assert part and Sequence.from_indices(group, part).sum().index == 0
        for i in part:
            free.remove(i)
    assert state.frees[-1] == subsum_mask(free)
    assert state.sums[-1] == subsum_mask(prefix)
    return count


def test_dk_state_carries_a_maximum_disjoint_family(small_groups):
    rng = random.Random(41)
    for _ in range(150):
        group = rng.choice(small_groups)
        k = rng.randint(2, 5)
        state = invariants._DkState(group, k)
        prefix = []
        for _ in range(rng.randint(1, 10)):
            if prefix and rng.random() < 0.2:
                state.pop(prefix.pop())
                continue
            g = rng.randrange(group.order)
            grown = Sequence.from_indices(group, prefix + [g])
            if not state.try_push(g):
                assert brute_max_disjoint(grown) >= k
                assert len(state.counts) == len(prefix) + 1
                continue
            prefix.append(g)
            assert _check_carried_family(state, prefix) == brute_max_disjoint(grown) < k


def test_dk_search_carries_families_from_both_lift_paths(monkeypatch):
    # D_3(C6) takes both paths: the cheap lift through the free terms, and
    # the exhaustive lift whose family the state then carries
    collected = []
    lifts = invariants.lifts_disjoint_count

    def counting_lifts(*args, collect=None, **kwargs):
        lifted = lifts(*args, collect=collect, **kwargs)
        if lifted and collect is not None:
            collected.append(tuple(collect))
        return lifted

    monkeypatch.setattr(invariants, "lifts_disjoint_count", counting_lifts)

    class Checked(invariants._DkState):
        __slots__ = ("path",)

        def __init__(self, group, k):
            super().__init__(group, k)
            self.path = []

        def try_push(self, g):
            if not super().try_push(g):
                return False
            self.path.append(g)
            _check_carried_family(self, self.path)
            return True

        def pop(self, g):
            super().pop(g)
            self.path.pop()

    group = make_group([6])
    out = dfs_run(group, Checked(group, 3), orbit_pruning=True)
    assert (out.best + 1, out.stats.nodes) == (18, 2370)
    assert collected
