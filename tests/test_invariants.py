import functools
import itertools
import random

import pytest

import zerosum.invariants as invariants
import zerosum.search as search
from zerosum import (
    Budget,
    InvalidInputError,
    Sequence,
    check_property_d,
    compute,
    detect_arithmetic_tail,
    enumerate_eta_extremal,
    enumerate_s_extremal,
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

from conftest import CountedState, brute_max_disjoint, brute_subsums


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
    # the unpruned search uses neither the orbit rules nor the multiplicity
    # bound, so it checks both
    for factors in ([2, 4], [3, 3], [2, 2, 2], [2, 2, 4], [4, 4], [2, 6]):
        g = make_group(factors)
        for kind in ("d", "eta", "s"):
            bare = compute(g, kind, orbit_pruning=False)
            pruned = compute(g, kind, orbit_pruning=True)
            assert (pruned.value, pruned.witness) == (bare.value, bare.witness), \
                (factors, kind)
            assert pruned.stats.nodes < bare.stats.nodes


def test_budget_gives_partial_lower_bound():
    g = make_group([2, 4, 4])
    res = compute(g, "d", budget=Budget(max_nodes=800))
    assert res.status == "partial"
    assert res.checkpoint is not None
    assert res.value <= 8
    assert not has_nonempty_zero_sum(res.witness)


def test_resume_reaches_identical_result():
    g = make_group([3, 9])
    full = compute(g, "d")
    partial = compute(g, "d", budget=Budget(max_nodes=800))
    assert partial.status == "partial"
    rounds = 0
    while partial.status == "partial":
        partial = compute(g, "d", budget=Budget(max_nodes=800),
                          resume=partial.checkpoint)
        rounds += 1
        assert rounds < 50
    assert rounds >= 3
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


# eta and s of each group, from the rank-two formulas 2m + n - 2 and
# 2m + 2n - 3 of C_m + C_n (m | n), and 2^r, 2^r + 1 for C2^r
CONSTANTS = {(4,): (4, 7), (6,): (6, 11), (2, 4): (6, 9), (3, 3): (7, 9), (2, 2, 2): (8, 9)}


@pytest.mark.parametrize("kind", ["eta", "s"])
@pytest.mark.parametrize("factors", list(CONSTANTS), ids=str)
def test_enumeration_depth_cut_keeps_exactly_the_extremal_sequences(factors, kind):
    """At the constant's length minus one, where the multiplicity bound
    cuts subtrees, and at the constant itself, where nothing is left,
    dfs_run with search_state emits exactly the multisets without the
    property, in lexicographic order, that brute-force subsums find.
    Every sub-multiset of a multiset without the property lacks it too,
    so the candidates of each length are the sorted one-term extensions
    of the previous length's list."""
    group = make_group(list(factors))
    exp = group.exponent
    constant = CONSTANTS[factors][kind == "s"]
    lacking = [()]
    for length in range(1, constant + 1):
        candidates = [c + (g,) for c in lacking for g in range(c[-1] if c else 0, group.order)]
        lacking = []
        for combo in candidates:
            lengths = brute_subsums(Sequence.from_indices(group, combo))[0]
            if not (exp in lengths if kind == "s" else any(0 < L <= exp for L in lengths)):
                lacking.append(combo)
        if length < constant - 1:
            continue
        emitted = []
        out = dfs_run(group, search_state(group, kind), target_length=length,
                      emit=emitted.append)
        assert emitted == lacking, length
        assert bool(lacking) == (length < constant)
        assert out.stats.slack_prunes > 0


def test_result_json_shape():
    res = compute(make_group([2, 4]), "eta")
    payload = res.to_json()
    assert payload["group"] == [2, 4]
    assert payload["kind"] == "eta"
    assert payload["value"] == 6
    assert payload["status"] == "complete"
    assert set(payload["stats"]) == {"nodes", "seconds", "slack_prunes"}
    assert payload["witness"]["group"] == [2, 4]


# value, witness as sorted indices, and node count of searches whose tree
# must not change when their pruning state changes representation; the
# orbit-pruned trees also pin the stabiliser chain and the depth bounds
# (an orbit-pruned dk count includes the D search of its bound), the
# unpruned ones the bare search
PINNED_SEARCHES = [
    ([2, 4, 4], "d", None, True, 8, [1, 2, 2, 2, 8, 8, 8], 1654),
    ([2, 2, 8], "d", None, True, 10, [1, 2, 4, 4, 4, 4, 4, 4, 4], 4173),
    ([2, 2, 2], "dk", 2, True, 7, [1, 2, 3, 4, 5, 6], 35),
    ([2, 2, 2], "dk", 3, True, 9, [1, 1, 1, 2, 3, 4, 5, 6], 101),
    ([2, 2, 2], "dk", 4, True, 11, [1, 1, 1, 1, 1, 2, 3, 4, 5, 6], 262),
    ([2, 2, 4], "dk", 2, True, 10, [1, 2, 4, 4, 4, 4, 4, 4, 4], 1682),
    ([6], "dk", 3, True, 18, [1] * 17, 275),
    ([2, 2, 6], "eta", None, True, 10, [1, 2, 4, 4, 4, 4, 4, 5, 6], 573),
    ([2, 2, 4], "s", None, True, 11, [0, 0, 0, 1, 2, 4, 4, 4, 5, 6], 188),
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


MASKED_SEARCHES = [case[:3] for case in PINNED_SEARCHES if case[3]] + \
    [([4, 4], "s", None), ([2, 6], "s", None), ([2, 4, 4], "eta", None)]


@pytest.mark.parametrize("factors,kind,k", MASKED_SEARCHES,
                         ids=[str(f) if kind == "d" else f"{f}-{kind}{k or ''}"
                              for f, kind, k in MASKED_SEARCHES])
def test_open_mask_skips_exactly_the_refused_pushes(factors, kind, k):
    """The orbit-pruned D, D_k, eta and s searches find the same value,
    witness and slack prunes with and without the state's open() mask,
    and with it every push tried is accepted: its nodes are the unmasked
    run's accepted pushes."""
    group = make_group(factors)
    # as compute() runs them: s pins 0 first and prunes by translations,
    # and D(G) bounds the depth of dk
    anchor = {"restrict_prefix": [0], "translations": True} if kind == "s" else {}
    davenport = compute(group, "d").value if kind == "dk" else None
    masked = dfs_run(group, search_state(group, kind, k, davenport), orbit_pruning=True,
                     **anchor)
    wrapped = CountedState(search_state(group, kind, k, davenport))
    unmasked = dfs_run(group, wrapped, orbit_pruning=True, **anchor)
    assert (masked.best, masked.witness, masked.stats.slack_prunes) == \
        (unmasked.best, unmasked.witness, unmasked.stats.slack_prunes)
    assert masked.stats.nodes == wrapped.accepted < unmasked.stats.nodes


# sequences found and node count of the extremal enumerations, whose tree
# the multiplicity depth bound cuts wherever no tuple below reaches the
# length; the Property D scan of C3 + C3 is pinned beside them
PINNED_ENUMERATIONS = [
    ([4, 4], "s", 192, 70919),
    ([3, 6], "eta", 96, 9545),
    ([2, 6], "s", 198, 49515),
]


@pytest.mark.parametrize(
    "factors,kind,found,nodes", PINNED_ENUMERATIONS,
    ids=["x".join(f"C{f}" for f in case[0]) + f"-{case[1]}" for case in PINNED_ENUMERATIONS])
def test_pinned_enumeration_trees(factors, kind, found, nodes):
    enumerate_extremal = {"eta": enumerate_eta_extremal, "s": enumerate_s_extremal}[kind]
    sequences, out = enumerate_extremal(make_group(factors))
    assert out.status == "complete"
    assert len(sequences) == found
    assert out.stats.nodes == nodes


def test_pinned_property_d_tree():
    report = check_property_d(3)
    assert report.holds and report.status == "complete"
    assert report.extremal_count == 54
    assert report.stats.nodes == 741


# the extremal enumerations as their callers run them, and the Property D
# scan of C3 + C3 at length 4m - 4 = 8
MASKED_ENUMERATIONS = [(factors, kind, formula_oracle(make_group(factors), kind) - 1)
                       for factors, kind, *_ in PINNED_ENUMERATIONS] + [([3, 3], "s", 8)]


@pytest.mark.parametrize("factors,kind,length", MASKED_ENUMERATIONS,
                         ids=[f"{f}-{kind}{length}" for f, kind, length in MASKED_ENUMERATIONS])
def test_open_mask_skips_exactly_the_refused_pushes_in_enumerations(factors, kind, length):
    """An enumeration emits the same tuples, in the same order, with the
    same slack prunes, with and without the state's open() mask, and with
    it every push tried is accepted: its nodes are the unmasked run's
    accepted pushes."""
    group = make_group(factors)
    masked, unmasked = [], []
    out = dfs_run(group, search_state(group, kind), target_length=length,
                  emit=masked.append)
    wrapped = CountedState(search_state(group, kind))
    plain = dfs_run(group, wrapped, target_length=length, emit=unmasked.append)
    assert masked and masked == unmasked
    assert out.stats.slack_prunes == plain.stats.slack_prunes
    assert out.stats.nodes == wrapped.accepted < plain.stats.nodes


def test_dk_state_carries_the_disjoint_count(small_groups):
    """The top of a _DkState stack holds the prefix's disjoint zero-sum
    count and its negated subsum mask, the empty sum included, recomputed
    with sets; a refused push is one that reaches k."""
    def negated_subsum_mask(group, terms):
        sums = {0}
        for t in terms:
            sums |= {group.add_index(s, t) for s in sums}
        negated = {next(y for y in range(group.order) if group.add_index(x, y) == 0)
                   for x in sums}
        return sum(1 << e for e in negated)

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
            assert state.counts[-1] == brute_max_disjoint(grown) < k
            assert state.sums[-1] == negated_subsum_mask(group, prefix)


def test_dk_reach_table_decides_lifts_as_brute_force(small_groups, monkeypatch):
    # with the cap at 16^5 bits every count up to 4 has a table on these
    # groups; prefixes drawn from a few elements and extra zeros reach it
    monkeypatch.setattr(invariants, "DK_REACH_MAX_BITS", 1 << 20)
    groups = small_groups + [make_group([2, 2, 4]), make_group([4, 4])]
    rng = random.Random(7)
    brute = functools.lru_cache(maxsize=None)(
        lambda group, terms, cap: brute_max_disjoint(Sequence.from_indices(group, terms), cap))
    seen = set()
    for _ in range(90):
        group = rng.choice(groups)
        palette = [0] + rng.sample(range(group.order), min(4, group.order))
        state = invariants._DkState(group, 5)
        prefix = []
        for _ in range(rng.randint(1, 11)):
            if prefix and rng.random() < 0.15:
                state.pop(prefix.pop())
            elif state.try_push(g := rng.choice(palette)):
                prefix.append(g)
        count = state.counts[-1]
        assert count < state.levels
        assert brute(group, tuple(sorted(prefix)), count + 1) == count
        table = state._tables()[count]
        # the table is negated: g lifts when it holds (g, 0, ..., 0), bit g
        for g in range(group.order):
            lifts = brute(group, tuple(sorted(prefix + [g])), count + 1) > count
            assert (table >> g) & 1 == lifts, (group, prefix, g)
        seen.add(count)
    assert seen == {0, 1, 2, 3, 4}


def test_budgeted_dk_search_past_the_orbit_cap_stays_in_budget(monkeypatch):
    """Past the orbit cap compute runs no D search for the D_k depth bound:
    that search would run outside the budget with nothing but the subsum
    count to cut it, so a budgeted dk search stops within its budget."""
    group = make_group([2, 2, 4])
    monkeypatch.setattr(search, "ORBIT_PRUNING_MAX_ORDER", 1)
    res = compute(group, "dk", k=2, budget=Budget(max_nodes=5))
    assert res.status == "partial" and res.stats.nodes == 5
    full = compute(group, "dk", k=2)
    assert full.value == formula_oracle(group, "dk", 2)


def test_dk_search_without_reach_tables_keeps_its_tree(monkeypatch):
    """Without reach tables lifts_disjoint_count decides every lift and no
    push is skipped: the search finds the tabled run's value, witness and
    slack prunes, and the tabled run tries exactly the pushes it accepts."""
    group = make_group([2, 2, 4])
    davenport = compute(group, "d").value
    tabled = dfs_run(group, search_state(group, "dk", 3, davenport), orbit_pruning=True)
    # below |G|, so there are no tables and open() masks nothing at count 2
    monkeypatch.setattr(invariants, "DK_REACH_MAX_BITS", 1)
    state = search_state(group, "dk", 3, davenport)
    assert state.levels == 0
    wrapped = CountedState(state)
    plain = dfs_run(group, wrapped, orbit_pruning=True)
    assert (tabled.best, tabled.witness, tabled.stats.slack_prunes) == \
        (plain.best, plain.witness, plain.stats.slack_prunes)
    assert plain.best + 1 == 14
    assert tabled.stats.nodes == wrapped.accepted < plain.stats.nodes
