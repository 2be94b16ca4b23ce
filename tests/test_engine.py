import random

import pytest

from zerosum import (
    ExtractionFailure,
    InvalidInputError,
    Sequence,
    enumerate_minimal_zero_sums,
    enumerate_subgroups,
    extract_exp_length_zero_sum,
    extract_short_zero_sum_free,
    has_nonempty_zero_sum,
    has_short_zero_sum,
    has_zero_sum_of_length,
    inductive_partition,
    make_group,
    max_disjoint_decomposition,
    max_disjoint_zero_sums,
    quotient,
    reach_table,
    restricted_sums,
    subgroup_generated_by,
    sums_of_length,
)
from zerosum import engine
from zerosum.engine import (_iter_minimal_zero_sums, _reach_masks, extract_lex_smallest,
                            lifts_disjoint_count)
from zerosum.errors import CapacityError

from conftest import (
    brute_lex_smallest,
    brute_max_disjoint,
    brute_minimal_zero_sums,
    brute_subsums,
    random_sequence,
    unpack_table,
)


def test_reach_table_examples():
    c9 = make_group([9])
    s = Sequence.from_terms(c9, [(1, 8)])
    assert restricted_sums(s, 7) == {1, 2, 3, 4, 5, 6, 7}

    lengths = unpack_table(reach_table(Sequence.empty(c9), 0), 9, 0)
    assert lengths == {e: {0} if e == 0 else set() for e in range(9)}

    c5 = make_group([5])
    lengths = unpack_table(reach_table(Sequence.from_terms(c5, [(0, 3)]), 3), 5, 3)
    assert lengths == {e: {0, 1, 2, 3} if e == 0 else set() for e in range(5)}

    with pytest.raises(InvalidInputError):
        reach_table(s, -1)


def test_reach_table_against_brute_force(small_groups):
    """The packed table, read bit by bit, and the fixed-length and
    restricted sum sets at every length, past the table's and the
    sequence's too, equal the brute-force subsums.  Every other table
    stops below the sequence length, so its pushes drop their top row."""
    rng = random.Random(11)
    for i in range(200):
        group = rng.choice(small_groups)
        seq = random_sequence(rng, group, 9)
        max_len = rng.randrange(len(seq)) if i % 2 and len(seq) else len(seq)
        oracle = brute_subsums(seq)
        assert unpack_table(reach_table(seq, max_len), group.order, max_len) == \
            {e: {L for L in lengths if L <= max_len} for e, lengths in oracle.items()}
        restricted = set()
        for L in range(len(seq) + 2):
            row = {e for e in range(group.order) if L in oracle[e]}
            assert sums_of_length(seq, L) == row
            if L:
                restricted |= row
            assert restricted_sums(seq, L) == restricted
        for reader in (reach_table, sums_of_length, restricted_sums):
            with pytest.raises(InvalidInputError):
                reader(seq, -1)


def test_sigma_monotonicity_and_translation_law(small_groups):
    rng = random.Random(12)
    for _ in range(120):
        group = rng.choice(small_groups)
        seq = random_sequence(rng, group, 8)
        ext = seq * random_sequence(rng, group, 3)
        for k in range(len(seq)):
            a = restricted_sums(seq, k)
            assert a <= restricted_sums(seq, k + 1)
            assert a <= restricted_sums(ext, k)
        # translation shifts each fixed-length slice by k*c
        c = rng.randrange(group.order)
        shifted = seq.translate(group.element(c))
        for k in range(len(seq) + 1):
            kc = group.scale_index(k, c)
            assert sums_of_length(shifted, k) == \
                {group.add_index(kc, e) for e in sums_of_length(seq, k)}


def test_zero_sum_detectors():
    c9 = make_group([9])
    assert not has_nonempty_zero_sum(Sequence.from_terms(c9, [(1, 8)]))
    assert has_nonempty_zero_sum(Sequence.from_terms(c9, [(0, 1), (1, 2)]))
    c22 = make_group([2, 2])
    assert has_nonempty_zero_sum(Sequence.from_elements(c22, [[1, 0], [0, 1], [1, 1]]))

    # three equal terms of order three: short relative to exp(C9) = 9
    assert has_short_zero_sum(Sequence.from_terms(c9, [(3, 3)]))
    assert has_short_zero_sum(Sequence.from_terms(c9, [(0, 1), (1, 5)]))
    assert not has_short_zero_sum(Sequence.from_terms(c9, [(1, 8)]))

    cb = Sequence.from_terms(c9, [(4, 8), (5, 8)])
    assert not has_zero_sum_of_length(cb, 9)
    assert has_zero_sum_of_length(cb, 0)
    assert has_zero_sum_of_length(Sequence.from_terms(c9, [(0, 9)]), 9)
    assert not has_zero_sum_of_length(Sequence.from_terms(c9, [(1, 2)]), 5)


def test_minimal_zero_sums_examples():
    c22 = make_group([2, 2])
    full = Sequence.from_elements(c22, [[1, 0], [0, 1], [1, 1]])
    assert enumerate_minimal_zero_sums(full) == [full]

    c5 = make_group([5])
    doubled_zero = Sequence.from_terms(c5, [(0, 2)])
    assert enumerate_minimal_zero_sums(doubled_zero) == \
        [Sequence.from_terms(c5, [(0, 1)])]

    assert enumerate_minimal_zero_sums(Sequence.from_terms(c5, [(1, 3)])) == []


def test_minimal_zero_sums_against_brute_force(small_groups):
    rng = random.Random(13)
    for _ in range(200):
        group = rng.choice(small_groups)
        seq = random_sequence(rng, group, 8)
        mine = {tuple(m.mult) for m in enumerate_minimal_zero_sums(seq)}
        assert mine == brute_minimal_zero_sums(seq)
        for g in seq.support_indices():
            through = {tuple(sorted(t)) for t in
                       _iter_minimal_zero_sums(group, list(seq.mult), containing=g)}
            want = set()
            for combo in brute_minimal_zero_sums(seq):
                if combo[g]:
                    idxs = []
                    for i, c in enumerate(combo):
                        idxs.extend([i] * c)
                    want.add(tuple(idxs))
            assert through == want


def test_minimal_zero_sums_capacity():
    c2 = make_group([2])
    with pytest.raises(CapacityError):
        enumerate_minimal_zero_sums(Sequence.from_terms(c2, [(0, 100)]))


def test_max_disjoint_examples():
    c5 = make_group([5])
    assert max_disjoint_zero_sums(Sequence.from_terms(c5, [(0, 4)]), 99) == 4
    assert max_disjoint_zero_sums(Sequence.from_terms(c5, [(1, 3)]), 99) == 0
    assert max_disjoint_zero_sums(Sequence.from_terms(c5, [(0, 9)]), 3) == 3


def test_max_disjoint_against_brute_force(small_groups):
    rng = random.Random(14)
    for _ in range(120):
        group = rng.choice(small_groups)
        seq = random_sequence(rng, group, 8)
        got = max_disjoint_zero_sums(seq, 12)
        assert got == brute_max_disjoint(seq)
        decomp = max_disjoint_decomposition(seq, 12)
        assert len(decomp.parts) == got
        decomp.check(seq)


def test_max_disjoint_appending_zero_increments(small_groups):
    rng = random.Random(15)
    for _ in range(60):
        group = rng.choice(small_groups)
        seq = random_sequence(rng, group, 7)
        with_zero = seq * Sequence.from_terms(group, [(0, 1)])
        assert max_disjoint_zero_sums(with_zero, 12) == \
            max_disjoint_zero_sums(seq, 12) + 1


def test_disjoint_lift_detector(small_groups):
    """The lift decision matches the brute-force count, without a memo and
    with a memo shared across the calls of each group.  The second loop
    grows by 0 or adds copies of 0, the cases a zero part discharges."""
    memos = {}

    def check(group, seq, g):
        count = max_disjoint_zero_sums(seq, 12)
        grown = seq * Sequence.from_indices(group, [g])
        lifted = lifts_disjoint_count(group, list(grown.mult), g, count + 1)
        assert (count + 1 if lifted else count) == brute_max_disjoint(grown)
        memo = memos.setdefault(group, {})
        assert lifts_disjoint_count(group, list(grown.mult), g, count + 1,
                                    memo=memo) == lifted

    rng = random.Random(16)
    for _ in range(100):
        group = rng.choice(small_groups)
        seq = random_sequence(rng, group, 7)
        check(group, seq, rng.randrange(group.order))
    rng = random.Random(18)
    for trial in range(60):
        group = rng.choice(small_groups)
        seq = random_sequence(rng, group, 6)
        if trial % 2:
            seq = seq * Sequence.from_indices(group, [0] * rng.randint(1, 2))
        check(group, seq, 0 if trial % 3 else rng.randrange(group.order))
    assert any(memos.values())


def test_inductive_partition_examples():
    g244 = make_group([2, 4, 4])
    h = subgroup_generated_by(g244, [g244.element([0, 2, 0]), g244.element([0, 0, 2])])

    # kernel elements become singleton blocks
    s = Sequence.from_elements(g244, [[0, 2, 0], [0, 0, 2], [0, 2, 2]])
    part = inductive_partition(s, h)
    assert all(len(b) == 1 for b in part.blocks)
    assert len(part.tail) == 0
    part.check(s)

    rng = random.Random(17)
    for _ in range(40):
        s = random_sequence(rng, g244, 12)
        part = inductive_partition(s, h)
        part.check(s)
        assert all(len(b) <= 2 for b in part.blocks)
        # tail projects to distinct non-zero elements: a repeat or a zero
        # would itself be a projected zero-sum of length <= 2
        seen = set()
        for el, v in part.tail.terms():
            image = part.projection.table[el.index]
            assert image != 0 and image not in seen and v == 1
            seen.add(image)


def test_projected_reach_table_matches_brute_subsums():
    """The fold through a quotient map holds the subsums of the projected
    sequence, on C2 x C2 x C4 for subgroups of every order."""
    group = make_group([2, 2, 4])
    rng = random.Random(14)
    subs = enumerate_subgroups(group)
    picked = [subs[0], subs[-1]] + rng.sample(subs[1:-1], 6)
    for sub in picked:
        qm = quotient(group, sub)
        image = qm.target
        for _ in range(10):
            seq = random_sequence(rng, group, 7)
            projected = [0] * image.order
            for i, v in enumerate(seq.mult):
                projected[qm.table[i]] += v
            oracle = brute_subsums(Sequence(image, projected))
            for max_len in (image.exponent, len(seq)):
                table = _reach_masks(image, seq.mult, max_len, qm.table)
                assert unpack_table(table, image.order, max_len) == \
                    {e: {L for L in lengths if L <= max_len} for e, lengths in oracle.items()}


@pytest.mark.parametrize("factors", [[6], [3, 3], [2, 4], [2, 2, 4]], ids=str)
def test_extract_lex_smallest_against_brute_force(factors):
    """The lexicographically first sorted tuple of each length and target,
    with and without a quotient map, equals the first match among
    itertools.combinations of the multiset."""
    group = make_group(factors)
    rng = random.Random(sum(factors) * 31 + len(factors))
    subs = enumerate_subgroups(group)
    found = 0
    for _ in range(60):
        seq = random_sequence(rng, group, 8)
        sub = rng.choice(subs)
        qm = quotient(group, sub)
        for hom, image in ((None, group), (qm.table, qm.target)):
            for length in range(len(seq) + 2):
                target = rng.randrange(image.order)
                expected = brute_lex_smallest(group, seq.mult, length, target, hom, image)
                assert extract_lex_smallest(image, list(seq.mult), length, target,
                                            hom) == expected, (seq, sub, length, target)
                found += expected is not None
    assert found > 100


def test_extract_exp_length_zero_sum_pilot_of_zeros():
    g = make_group([2, 2, 4])   # eta = 8, exp = 4
    pilot = Sequence.from_terms(g, [(0, 1)])
    rng = random.Random(18)
    for _ in range(80):
        s = Sequence.from_indices(
            g, [0] + [rng.randrange(16) for _ in range(10)])
        res = extract_exp_length_zero_sum(s, pilot, g.zero(), 8)
        assert isinstance(res, Sequence)
        assert len(res) == 4 and res.sum().index == 0 and res.divides(s)


def test_extract_exp_length_zero_sum_single_element_pilot():
    g = make_group([2, 2, 2])   # eta = 8, exp = 2
    rng = random.Random(19)
    for _ in range(120):
        idxs = [rng.randrange(8) for _ in range(9)]
        s = Sequence.from_indices(g, idxs)
        anchor = idxs[0]
        pilot = Sequence.from_indices(g, [anchor])
        res = extract_exp_length_zero_sum(s, pilot, g.element(anchor), 8)
        assert isinstance(res, Sequence)
        assert len(res) == 2 and res.sum().index == 0 and res.divides(s)


def test_extract_returns_zero_block_when_present():
    g = make_group([2, 2, 4])
    s = Sequence.from_terms(g, [(0, 5)]) * Sequence.from_indices(g, [5, 6, 7, 9, 11, 13])
    pilot = Sequence.from_terms(g, [(0, 1)])
    res = extract_exp_length_zero_sum(s, pilot, g.zero(), 8)
    assert res == Sequence.from_terms(g, [(0, 4)])


def test_extract_failure_reports_wrong_eta():
    g = make_group([2, 2, 2])
    s = Sequence.from_elements(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = extract_exp_length_zero_sum(s, Sequence.empty(g), g.zero(), 2)
    assert isinstance(res, ExtractionFailure)
    assert res.step == "eta-bound"


def test_extract_precondition_errors():
    g = make_group([2, 2, 2])
    s = Sequence.from_indices(g, [1] * 9)
    with pytest.raises(InvalidInputError):
        # pilot not a subsequence
        extract_exp_length_zero_sum(s, Sequence.from_indices(g, [5, 5]), g.zero(), 8)
    with pytest.raises(InvalidInputError, match="for j=1$"):
        # j*h never a subsum of the pilot
        extract_exp_length_zero_sum(s, Sequence.from_indices(g, [1]), g.element(2), 8)
    c4 = make_group([4])
    with pytest.raises(InvalidInputError, match="for j=2$"):
        # 1*2 is the term 2, but 2*2 = 0 is not 1 + 2: the first failing j is 2
        extract_exp_length_zero_sum(Sequence.from_indices(c4, [1, 2] + [3] * 5),
                                    Sequence.from_indices(c4, [1, 2]), c4.element(2), 4)
    with pytest.raises(InvalidInputError):
        # sequence too short
        extract_exp_length_zero_sum(Sequence.from_indices(g, [1] * 4),
                                    Sequence.from_indices(g, [1]), g.element(1), 8)
    big = make_group([2, 16])
    with pytest.raises(InvalidInputError):
        # pilot shorter than floor((exp-1)/2)
        extract_exp_length_zero_sum(
            Sequence.from_terms(big, [(big.element([0, 1]), 32)]),
            Sequence.from_terms(big, [(big.element([0, 1]), 2)]),
            big.element([0, 1]), 17)


def test_extraction_and_partition_build_one_table_per_multiset(monkeypatch):
    """The extraction builds one suffix table of the shifted pilot, which
    both checks the premise and yields the pilot part, and one of the
    rest; the partition builds one per block, whose zero test and walk
    share it, plus one for the zero test that finds no block."""
    built = []
    suffix_tables = engine._suffix_tables

    def counted(*args):
        built.append(args[2])
        return suffix_tables(*args)

    monkeypatch.setattr(engine, "_suffix_tables", counted)
    c4 = make_group([4])
    # the rest (2)(3) has no zero-sum, so all four terms come from the pilot
    res = extract_exp_length_zero_sum(Sequence.from_indices(c4, [0] * 5 + [2, 3]),
                                      Sequence.from_terms(c4, [(0, 5)]), c4.zero(), 4)
    assert res == Sequence.from_terms(c4, [(0, 4)])
    assert built == [5, 2]

    g244 = make_group([2, 4, 4])
    h = subgroup_generated_by(g244, [g244.element([0, 2, 0]), g244.element([0, 0, 2])])
    rng = random.Random(29)
    for _ in range(20):
        built.clear()
        s = random_sequence(rng, g244, 12)
        part = inductive_partition(s, h)
        assert len(built) == len(part.blocks) + (len(part.tail) > 0)


def test_extract_short_zero_sum_free_small_exhaustive():
    # every length-6 sequence over C4 without a length-4 zero-sum yields a
    # length-3 subsequence of the shifted sequence with no short zero-sum
    import itertools
    c4 = make_group([4])
    hits = 0
    for combo in itertools.combinations_with_replacement(range(4), 6):
        s = Sequence.from_indices(c4, combo)
        if has_zero_sum_of_length(s, 4):
            continue
        hits += 1
        anchor = combo[0]
        pilot = Sequence.from_indices(c4, [anchor])
        res = extract_short_zero_sum_free(s, pilot, c4.element(anchor), 4)
        assert isinstance(res, Sequence), (combo, res)
        assert len(res) == 3
        assert not has_short_zero_sum(res)
    assert hits > 0


def test_extract_short_zero_sum_free_rejects_bad_input():
    c4 = make_group([4])
    s = Sequence.from_terms(c4, [(0, 4), (1, 2)])
    with pytest.raises(InvalidInputError):
        extract_short_zero_sum_free(s, Sequence.from_indices(c4, [1]),
                                    c4.element(1), 4)
