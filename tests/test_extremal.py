import random

import pytest

import zerosum.extremal as extremal
from zerosum import (
    InvalidInputError,
    SearchStats,
    Sequence,
    build_dk_witness,
    build_eta_extremal,
    build_s_extremal,
    check_property_d,
    check_stability,
    classify_eta_extremal,
    classify_s_extremal,
    enumerate_eta_extremal,
    enumerate_s_extremal,
    eta_extremal_family,
    find_subsum_certificate,
    formula_oracle,
    has_short_zero_sum,
    has_zero_sum_of_length,
    make_group,
    max_disjoint_zero_sums,
    rank_two_params,
    restricted_sums,
    s_extremal_family,
    square_counterexample_report,
    verify_subsum_certificate,
)
from zerosum.extremal import rank_two_split
from zerosum.search import DfsOutcome

from conftest import brute_subgroup_masks, brute_subsums, random_sequence


def test_rank_two_split():
    assert rank_two_split(make_group([])) == (1, 1)
    assert rank_two_split(make_group([9])) == (1, 9)
    assert rank_two_split(make_group([3, 6])) == (3, 2)
    with pytest.raises(InvalidInputError):
        rank_two_split(make_group([2, 2, 2]))


def test_params_validation():
    h = make_group([2, 4])
    b1, b2 = h.element([1, 0]), h.element([0, 1])
    p = rank_two_params(h, b1, b2, s=1)
    assert (p.m, p.n, p.d) == (2, 2, 1) and p.independent

    # dependent pair: ord(b1) = 4 with 2*b1 = 2*b2
    p = rank_two_params(h, h.element([1, 1]), b2, s=2)
    assert p.d == 2 and not p.independent

    with pytest.raises(InvalidInputError):
        rank_two_params(h, b1, h.element([1, 0]), s=1)   # ord(b2) != 4
    with pytest.raises(InvalidInputError):
        rank_two_params(h, h.zero(), h.element([0, 1]), s=1)  # not generating
    with pytest.raises(InvalidInputError):
        rank_two_params(h, b1, b2, s=5)
    with pytest.raises(InvalidInputError):
        rank_two_params(h, b1, b2, s=1, x=2)              # gcd(2, 2) != 1


def test_eta_builder_example():
    h = make_group([2, 4])
    b1, b2 = h.element([1, 0]), h.element([0, 1])
    seq = build_eta_extremal(rank_two_params(h, b1, b2, s=1))
    assert seq == Sequence.from_terms(h, [(b1, 1), (b2, 1), (-b1 + b2, 3)])
    assert len(seq) == formula_oracle(h, "eta") - 1 == 5
    assert not has_short_zero_sum(seq)


def test_eta_builder_degenerates_for_cyclic():
    c7 = make_group([7])
    seq = build_eta_extremal(rank_two_params(c7, c7.element(0), c7.element(3), s=1))
    assert seq == Sequence.from_terms(c7, [(3, 6)])


def test_eta_builder_rejects_bad_side_condition():
    h = make_group([2, 4])
    dependent = rank_two_params(h, h.element([1, 1]), h.element([0, 1]), s=1)
    with pytest.raises(InvalidInputError):
        build_eta_extremal(dependent)   # dependent pair needs s = n


def test_s_builder_degenerate_example():
    h = make_group([2, 4])
    b1, b2 = h.element([1, 0]), h.element([0, 1])
    seq = build_s_extremal(rank_two_params(h, b1, b2, s=2, t=2))
    assert seq == Sequence.from_terms(
        h, [(h.zero(), 3), (b1, 1), (b2, 3), (-b1 + b2, 1)])
    assert len(seq) == formula_oracle(h, "s") - 1 == 8
    assert not has_zero_sum_of_length(seq, h.exponent)


def test_s_builder_cyclic_form():
    c7 = make_group([7])
    c = c7.element(2)
    seq = build_s_extremal(rank_two_params(c7, c7.element(0), c7.element(3),
                                           s=1, t=1, c=c))
    assert seq == Sequence.from_terms(c7, [(c, 6), (c + c7.element(3), 6)])


def test_s_builder_warns_on_unknown_property_d():
    h = make_group([11, 11])
    b1, b2 = h.element([1, 0]), h.element([0, 1])
    with pytest.warns(UserWarning):
        build_s_extremal(rank_two_params(h, b1, b2, s=1, t=1))


def test_dk_witness_shape():
    seq = build_dk_witness(1, 2)
    assert seq.group.invariant_factors == (2, 2, 2)
    assert len(seq) == 6
    assert seq.sum() == -seq.group.element([0, 0, 1])
    assert max_disjoint_zero_sums(seq, 2) == 1

    seq = build_dk_witness(2, 3)
    assert seq.group.invariant_factors == (2, 4, 4)
    assert len(seq) == 2 * 2 + 2 * 2 * 3

    with pytest.raises(InvalidInputError):
        build_dk_witness(2, 1)
    with pytest.raises(InvalidInputError):
        build_dk_witness(0, 2)


def test_families_are_verified_extremal():
    for factors in ([4], [2, 4], [3, 3]):
        h = make_group(factors)
        family = eta_extremal_family(h)
        assert family
        for seq in family:
            assert len(seq) == formula_oracle(h, "eta") - 1
            assert not has_short_zero_sum(seq)
    for factors in ([4], [2, 4]):
        h = make_group(factors)
        family = s_extremal_family(h)
        assert family
        for seq in family:
            assert len(seq) == formula_oracle(h, "s") - 1
            assert not has_zero_sum_of_length(seq, h.exponent)


def test_s_family_sums_to_zero_when_m_is_two():
    for factors in ([2, 2], [2, 4], [2, 6]):
        h = make_group(factors)
        family = s_extremal_family(h)
        assert family
        for seq in family:
            assert seq.sum() == h.zero(), (factors, str(seq))


def test_classify_eta_c4():
    c4 = make_group([4])
    sequences, _ = enumerate_eta_extremal(c4)
    assert set(sequences) == {Sequence.from_terms(c4, [(1, 3)]),
                              Sequence.from_terms(c4, [(3, 3)])}
    report = classify_eta_extremal(c4)
    assert report.total == 2 and report.matched == 2
    assert report.complete_match
    # no closed form fixes the extremal length over C3^3 or C2^4
    with pytest.raises(InvalidInputError):
        enumerate_eta_extremal(make_group([3, 3, 3]))
    with pytest.raises(InvalidInputError):
        enumerate_s_extremal(make_group([2, 2, 2, 2]))


def test_classify_eta_c2():
    report = classify_eta_extremal(make_group([2]))
    assert report.total == 1 and report.matched == 1


def test_classify_small_groups():
    for factors in ([6], [2, 4]):
        report = classify_eta_extremal(make_group(factors))
        assert report.complete_match, (factors, report.total, report.matched)
    for factors in ([4], [2, 4]):
        report = classify_s_extremal(make_group(factors))
        assert report.complete_match, (factors, report.total, report.matched)


def test_classify_s_needs_known_property_d():
    with pytest.raises(InvalidInputError):
        classify_s_extremal(make_group([11, 11]))


@pytest.mark.parametrize("status, reported", [("complete", "complete"),
                                               ("partial", "inconclusive")])
def test_property_d_reports_the_first_sequence_that_is_no_power(monkeypatch, status, reported):
    """Property D holds for every m the scan can reach, so the enumeration
    is replaced by a crafted list: squares (the (m-1)-th powers for m = 3)
    first, then two sequences that are not."""
    group = make_group([3, 3])
    squares = [Sequence.from_terms(group, [([0, 0], 2), ([1, 0], 2), ([0, 1], 2), ([1, 1], 2)]),
               Sequence.from_terms(group, [([0, 0], 4), ([1, 2], 4)])]
    bad = [Sequence.from_terms(group, [([0, 0], 3), ([1, 0], 1), ([0, 1], 2), ([1, 1], 2)]),
           Sequence.from_terms(group, [([0, 0], 1), ([2, 2], 7)])]
    stats = SearchStats(nodes=17)

    def enumerate_crafted(g, budget):
        assert g == group and budget is None
        return squares + bad, DfsOutcome(None, stats, status)

    monkeypatch.setattr(extremal, "enumerate_s_extremal", enumerate_crafted)
    report = check_property_d(3)
    assert report.holds is False
    assert report.counterexample == bad[0]
    assert report.extremal_count == len(squares + bad)
    assert report.status == reported and report.stats is stats


def test_stability_small():
    def stable(factors, kind):
        group = make_group(factors)
        enumerate_extremal = enumerate_eta_extremal if kind == "eta" else enumerate_s_extremal
        sequences, out = enumerate_extremal(group)
        assert out.status == "complete"
        return check_stability(group, kind, sequences=sequences).holds

    assert stable([4], "eta")
    c4 = make_group([4])
    one, three = Sequence.from_terms(c4, [(1, 3)]), Sequence.from_terms(c4, [(3, 3)])
    assert len(one.gcd(three)) == 0

    assert stable([2], "eta")
    assert stable([2, 4], "eta")
    assert stable([2, 4], "s")


def test_stability_rejects_fabricated_near_pair():
    # two sequences differing in one element must be caught
    c4 = make_group([4])
    a = Sequence.from_terms(c4, [(1, 3)])
    b = Sequence.from_terms(c4, [(1, 2), (3, 1)])
    report = check_stability(c4, "eta", sequences=[a, b])
    assert not report.holds and report.pair is not None


def test_subsum_certificate_cyclic():
    c9 = make_group([9])
    seq = Sequence.from_terms(c9, [(1, 8)])
    cert = find_subsum_certificate(seq, "eta")
    assert cert is not None
    assert verify_subsum_certificate(seq, cert)
    # the trivial-subgroup certificate with k' = b also works
    covered = restricted_sums(seq, 7)
    assert set(range(9)) - covered - {0} == {8}    # only -b is missed


def test_subsum_certificate_for_enumerated_extremals():
    h = make_group([2, 4])
    for seq in enumerate_eta_extremal(h)[0]:
        cert = find_subsum_certificate(seq, "eta")
        assert cert is not None and verify_subsum_certificate(seq, cert), seq
    for seq in enumerate_s_extremal(h)[0]:
        cert = find_subsum_certificate(seq, "s")
        assert cert is not None and verify_subsum_certificate(seq, cert), seq


def _oracle_certificate(seq, variant):
    """(subgroup mask, k') of the first certificate, or None, by sets: the
    missed elements from brute_subsums, the proper subgroups from
    brute_subgroup_masks by decreasing order then mask, k' ascending, and
    each coset -k'+K through add_index."""
    group = seq.group
    m, n = rank_two_split(group)
    bound = m * n - 2
    subsums = brute_subsums(seq)
    if variant == "eta":
        missing = {e for e, lengths in subsums.items()
                   if e and not any(1 <= L <= bound for L in lengths)}
    else:
        missing = {e for e, lengths in subsums.items() if bound not in lengths}
    proper = [k for k in brute_subgroup_masks(group) if k != (1 << group.order) - 1]
    for mask in sorted(proper, key=lambda k: (-bin(k).count("1"), k)):
        members = [h for h in range(group.order) if (mask >> h) & 1]
        for kp in range(group.order):
            if kp in members:
                continue
            if missing <= {group.add_index(group.neg_index(kp), h) for h in members}:
                return mask, kp
    return None


def test_subsum_certificate_against_set_oracle():
    """The first certificate equals the set-based oracle's for extremal
    sequences, their translates through 0 and random sequences, in both
    variants, and there is none for the square counterexamples (m = 3, 4)
    and the antipodal sequences over C5."""
    rng = random.Random(55)
    cases = []
    for factors in ([6], [2, 4], [3, 3], [5]):
        group = make_group(factors)
        for seq in enumerate_eta_extremal(group)[0] + enumerate_s_extremal(group)[0]:
            g = rng.choice(seq.support_indices())
            cases += [seq, seq.translate(-group.element(g))]
        cases += [random_sequence(rng, group, 9) for _ in range(10)]
    c5 = make_group([5])
    no_certificate = [(square_counterexample_report(m).sequence, "eta") for m in (3, 4)]
    no_certificate += [(Sequence.from_terms(c5, [(x, 4), (5 - x, 4)]), "s") for x in (1, 2)]
    certified = 0
    for seq in cases + [seq for seq, _ in no_certificate]:
        for variant in ("eta", "s"):
            cert = find_subsum_certificate(seq, variant)
            found = cert and (cert.subgroup.mask, cert.k_prime.index)
            assert found == _oracle_certificate(seq, variant), (seq, variant)
            if cert is not None:
                assert verify_subsum_certificate(seq, cert)
                certified += 1
    for seq, variant in no_certificate:
        assert find_subsum_certificate(seq, variant) is None, seq
    assert certified > 50


@pytest.mark.parametrize("m", [3, 4, 5])
def test_square_counterexample(m):
    report = square_counterexample_report(m)
    assert report.confirmed
    assert not report.certificate_exists
    assert report.missed_coset_b1 and report.missed_coset_b2
