"""Acceptance suite: one test per criterion, zero tolerance on every value.

Each criterion prints a single PASS line on success (run with -s to see
them; a failure shows up as the test failing).  Search values are cached
in-module so later criteria can reuse earlier computations.
"""

import itertools
import os
import random
import time
from math import comb, gcd

import pytest

from zerosum import (
    Budget,
    Sequence,
    build_dk_witness,
    build_eta_extremal,
    build_s_extremal,
    check_property_d,
    check_stability,
    classify_eta_extremal,
    classify_s_extremal,
    compute,
    detect_arithmetic_tail,
    enumerate_eta_extremal,
    enumerate_s_extremal,
    extract_exp_length_zero_sum,
    find_subsum_certificate,
    formula_oracle,
    has_short_zero_sum,
    has_zero_sum_of_length,
    make_group,
    max_disjoint_zero_sums,
    square_counterexample_report,
    sums_of_length,
    verify_subsum_certificate,
)
from zerosum.extremal import (
    RankTwoParams,
    _generating_pairs,
    _s_side_condition,
    eta_extremal_family,
    rank_two_split,
)

from conftest import brute_max_disjoint, brute_subsums

LONG_PROFILE = os.environ.get("ZEROSUM_LONG") == "1"

# Node budgets of 50 times the largest count a search of the kind takes
# here, so that a search state which stops refusing pushes fails a test
# instead of hanging it: D(C2xC2xC8), eta(C2xC4xC4), s(C10), D_3(C6), the
# tails' D_3(C2xC2xC4), and with ZEROSUM_LONG the hard eta(C2xC6xC6).  A
# D_k count includes the D search of its depth bound.
SEARCH_NODES = {"d": 50 * 4_173, "eta": 50 * 4_716, "s": 50 * 11_595, "dk": 50 * 275}
TAIL_NODES = 50 * 16_786
HARD_NODES = 50 * 2_536_278

_cache = {}


def searched(factors, kind, k=None, max_nodes=None):
    key = (tuple(factors), kind, k)
    if key not in _cache:
        budget = Budget(max_nodes=max_nodes or SEARCH_NODES[kind])
        result = compute(make_group(factors), kind, k=k, budget=budget)
        assert result.status == "complete", key
        _cache[key] = result
    return _cache[key]


def _check_block(entries, kind, max_nodes=None):
    for factors, k, expect in entries:
        group = make_group(factors)
        res = searched(factors, kind, k, max_nodes)
        oracle = formula_oracle(group, kind, k)
        assert res.value == expect == oracle, \
            f"{kind}({group.label()}, k={k}): search={res.value} " \
            f"formula={oracle} expected={expect}"


def test_criterion_1_formula_reproduction_by_search():
    started = time.time()

    # Davenport constants
    t0 = time.time()
    d_entries = [
        ([2, 2, 2], None, 4), ([2, 2, 4], None, 6),
        ([2, 4, 4], None, 8), ([2, 2, 8], None, 10),
    ]
    for m in (1, 2, 3):
        for mn in range(1, 10):
            if mn % m:
                continue
            d_entries.append(([m, mn], None, m + mn - 1))
    _check_block(d_entries, "d")
    d_elapsed = time.time() - t0
    assert d_elapsed < 60, f"Davenport block took {d_elapsed:.0f}s"

    # eta constants
    t0 = time.time()
    eta_entries = [([n], None, n) for n in range(2, 13)]
    eta_entries += [
        ([2, 2], None, 4), ([2, 4], None, 6), ([2, 6], None, 8),
        ([3, 3], None, 7), ([3, 6], None, 10),
        ([2, 2, 2], None, 8), ([2, 2, 4], None, 8),
        ([2, 2, 6], None, 10), ([2, 4, 4], None, 14),
    ]
    _check_block(eta_entries, "eta")
    eta_elapsed = time.time() - t0
    assert eta_elapsed < 1800, f"eta block took {eta_elapsed:.0f}s"

    # EGZ constants
    t0 = time.time()
    s_entries = [([n], None, 2 * n - 1) for n in range(2, 11)]
    s_entries += [([2, 2, 2], None, 9), ([2, 2, 4], None, 11), ([3, 3], None, 9)]
    _check_block(s_entries, "s")
    s_elapsed = time.time() - t0
    assert s_elapsed < 1800, f"s block took {s_elapsed:.0f}s"

    # multiwise Davenport constants and the arithmetic tail; each tail
    # searches D_1..D_horizon once, and those values are checked here
    t0 = time.time()
    for factors, horizon, expect, d0, kd in (
            ([2, 2, 2], 4, [4, 7, 9, 11], 3, 2),
            ([2, 2, 4], 3, [6, 10, 14], 2, 1)):
        group = make_group(factors)
        tail = detect_arithmetic_tail(group, horizon, Budget(max_nodes=TAIL_NODES))
        oracle = [formula_oracle(group, "dk", k) for k in range(1, horizon + 1)]
        assert tail.dk_values == expect == oracle, \
            f"dk({group.label()}): search={tail.dk_values} formula={oracle} expected={expect}"
        assert (tail.d0, tail.kd, tail.status) == (d0, kd, "provisional")
    dk_entries = []
    for n in range(2, 7):
        for k in (1, 2, 3):
            dk_entries.append(([n], k, k * n))
    _check_block(dk_entries, "dk")
    dk_elapsed = time.time() - t0
    assert dk_elapsed < 600, f"dk block took {dk_elapsed:.0f}s"

    note = ""
    if LONG_PROFILE:
        t0 = time.time()
        _check_hard_searches()
        note = f", hard {time.time() - t0:.1f}s"
    print(f"\nACCEPTANCE 1 (formula reproduction by search): PASS "
          f"[d {d_elapsed:.1f}s, eta {eta_elapsed:.1f}s, s {s_elapsed:.1f}s, "
          f"dk {dk_elapsed:.1f}s{note}]")


# the paper's next instances that the search completes: report --long
# runs them too
HARD_SEARCHES = [([2, 4, 4], "s", None, 17), ([2, 2, 8], "s", None, 19),
                 ([2, 4, 8], "eta", None, 16), ([2, 4, 4], "dk", 2, 13),
                 ([2, 6, 6], "eta", None, 20), ([2, 2, 8], "dk", 2, 18)]


def _check_hard_searches():
    """Each hard search against the formula at zero tolerance, and its
    witness re-checked by brute force: by its subsums, no zero-sum of
    length exp(G) for s and none of length 1..exp(G) for eta; by
    recursion over its minimal zero-sums, fewer than k disjoint ones for
    dk."""
    for factors, kind, k, expect in HARD_SEARCHES:
        _check_block([(factors, k, expect)], kind, HARD_NODES)
        witness = searched(factors, kind, k).witness
        exp = witness.group.exponent
        zero_lengths = brute_subsums(witness)[0]
        assert len(witness) == expect - 1
        if kind == "s":
            assert exp not in zero_lengths, (factors, kind)
        elif kind == "eta":
            assert not zero_lengths & set(range(1, exp + 1)), (factors, kind)
        else:
            assert brute_max_disjoint(witness, cap=k) < k, (factors, kind, k)


def _s_family_c0(group):
    """The s-extremal parameterization restricted to c = 0, deduplicated."""
    m, n = rank_two_split(group)
    out = {}
    for base in _generating_pairs(group):
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                for x in range(1, m + 1):
                    if gcd(x, m) != 1:
                        continue
                    p = RankTwoParams(group, base.b1, base.b2, s, t, x,
                                      group.zero(), m, n, base.d)
                    if not _s_side_condition(p):
                        continue
                    out.setdefault(build_s_extremal(p, warn_unknown_property_d=False), p)
    return out


def test_criterion_2_witness_verification_beyond_search():
    started = time.time()
    rng = random.Random(2024)

    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            group = make_group([m, m * n]) if m > 1 else make_group([n] if n > 1 else [])
            # every eta-family member avoids short zero-sums
            family = eta_extremal_family(group)
            assert family
            for seq in family:
                assert len(seq) == m * (n + 2) - 3
                assert not has_short_zero_sum(seq), (m, n, str(seq))

            # every s-family member with c = 0 avoids exp-length zero-sums;
            # the c != 0 members are exactly the translates (asserted below),
            # and the avoided property is translation invariant
            family_s = _s_family_c0(group)
            assert family_s
            exp = group.exponent
            for seq in family_s:
                assert len(seq) == 2 * m + 2 * m * n - 4
                assert not has_zero_sum_of_length(seq, exp), (m, n, str(seq))

            sample = list(family_s.items())
            rng.shuffle(sample)
            for seq, params in sample[:5]:
                for c_idx in range(group.order):
                    c = group.element(c_idx)
                    shifted = RankTwoParams(group, params.b1, params.b2,
                                            params.s, params.t, params.x, c,
                                            params.m, params.n, params.d)
                    built = build_s_extremal(shifted, warn_unknown_property_d=False)
                    assert built == seq.translate(c)
                    assert has_zero_sum_of_length(built, exp) == \
                        has_zero_sum_of_length(seq, exp)
            # small groups: verify every member with every c directly
            if group.order <= 8:
                for seq, params in family_s.items():
                    for c_idx in range(group.order):
                        shifted = RankTwoParams(group, params.b1, params.b2,
                                                params.s, params.t, params.x,
                                                group.element(c_idx),
                                                params.m, params.n, params.d)
                        built = build_s_extremal(shifted,
                                                 warn_unknown_property_d=False)
                        assert not has_zero_sum_of_length(built, exp)

    # the disjoint-zero-sum witnesses
    for m in (1, 2, 3, 4):
        for k in (2, 3, 4):
            seq = build_dk_witness(m, k)
            e3 = seq.group.element([0, 0, 1])
            assert len(seq) == 2 * m + 2 * m * k
            assert seq.sum() == -e3
            assert max_disjoint_zero_sums(seq, k) == k - 1

    elapsed = time.time() - started
    assert elapsed < 300, f"criterion 2 took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 2 (witness verification beyond search): PASS "
          f"[{elapsed:.1f}s]")


ETA_CLASSIFY_GROUPS = ([4], [6], [8], [9], [2, 4], [2, 6], [3, 6])
S_CLASSIFY_GROUPS = ([4], [6], [2, 4])

_extremal_cache = {}


def extremal_sets(factors, kind):
    key = (tuple(factors), kind)
    if key not in _extremal_cache:
        group = make_group(factors)
        if kind == "eta":
            seqs, out = enumerate_eta_extremal(group)
        else:
            seqs, out = enumerate_s_extremal(group)
        assert out.status == "complete"
        _extremal_cache[key] = seqs
    return _extremal_cache[key]


def test_criterion_3_classification_completeness():
    started = time.time()
    for factors in ETA_CLASSIFY_GROUPS:
        report = classify_eta_extremal(make_group(factors))
        assert report.status == "complete"
        assert report.matched == report.total, \
            f"eta classification over {make_group(factors).label()}: " \
            f"{report.matched}/{report.total}, unmatched={report.unmatched[:3]}"
    for factors in S_CLASSIFY_GROUPS:
        report = classify_s_extremal(make_group(factors))
        assert report.status == "complete"
        assert report.matched == report.total, \
            f"s classification over {make_group(factors).label()}: " \
            f"{report.matched}/{report.total}"
    print(f"\nACCEPTANCE 3 (classification completeness): PASS "
          f"[{time.time() - started:.1f}s]")


def test_criterion_4_property_d():
    started = time.time()
    for m, full_count in ((1, 1), (2, 1), (3, None)):
        report = check_property_d(m)
        assert report.status == "complete"
        assert report.holds, f"Property D failed for m={m}: {report.counterexample}"
        if full_count is not None:
            assert report.extremal_count == full_count
    if LONG_PROFILE:
        report = check_property_d(4)
        assert report.status == "complete" and report.holds
    note = " (m=4 included)" if LONG_PROFILE else ""
    print(f"\nACCEPTANCE 4 (Property D m in 1..3{note}): PASS "
          f"[{time.time() - started:.1f}s]")


CERTIFICATE_GROUPS = ([3], [4], [5], [6], [7], [8], [9], [2, 4], [2, 6], [3, 6])


def test_criterion_5_lemma_suite():
    started = time.time()

    # stability, both kinds, over every classification group
    for factors in ETA_CLASSIFY_GROUPS:
        for kind in ("eta", "s"):
            report = check_stability(make_group(factors), kind,
                                     sequences=extremal_sets(factors, kind))
            assert report.holds, (factors, kind, report.pair)

    # coverage certificates for every extremal sequence, short-sum variant
    for factors in CERTIFICATE_GROUPS:
        for seq in extremal_sets(factors, "eta"):
            cert = find_subsum_certificate(seq, "eta")
            assert cert is not None, (factors, str(seq))
            assert verify_subsum_certificate(seq, cert)

    # the square-group counterexample: no certificate, both cosets missed
    for m in (3, 4, 5):
        report = square_counterexample_report(m)
        assert report.confirmed, (m, report)

    print(f"\nACCEPTANCE 5 (stability, eta-certificates, counterexample): PASS "
          f"[{time.time() - started:.1f}s]")


def test_criterion_5_s_variant_certificates_as_stated():
    """The s-variant coverage claim in the form the argument establishes:
    for every s-extremal sequence S over the listed groups and every g in
    supp(S), the translate S - g, which contains 0, has an exact-length
    coverage certificate (a proper subgroup K and k' not in K whose coset
    -k'+K holds everything the length-(mn-2) subsums miss), and the
    certificate verifies from a fresh reach table.  Having no zero-sum of
    length exp(H) is translation invariant, but the length-(mn-2) subsums
    move by (mn-2)g, so the claim is stated for the translate normalized
    to contain 0.  The un-normalized form fails exactly on the antipodal
    sequences x^(n-1) * (-x)^(n-1) over odd cyclic groups; the companion
    test pins that set.  The case g = 0 is the literal check for every
    sequence that already contains 0.
    """
    started = time.time()
    missing = []
    checked = 0
    for factors in CERTIFICATE_GROUPS:
        for seq in extremal_sets(factors, "s"):
            for g in seq.support():
                anchored = seq.translate(-g)
                assert anchored.mult[0] > 0, (factors, str(seq), g)
                cert = find_subsum_certificate(anchored, "s")
                checked += 1
                if cert is None:
                    missing.append((make_group(factors).label(), str(seq), g))
                else:
                    assert verify_subsum_certificate(anchored, cert), \
                        (factors, str(seq), g)
    assert not missing, \
        f"{len(missing)} normalized s-extremal translates admit no " \
        f"certificate: {missing}"
    print(f"\nACCEPTANCE 5 (s-variant certificates, normalized translates, "
          f"{checked} checked): PASS [{time.time() - started:.1f}s]")


def test_criterion_5_s_variant_defect_characterization():
    """The certificate-less s-extremal sequences are exactly the antipodal
    pairs x^(n-1) * (-x)^(n-1) over the odd cyclic groups in the list, and
    the translation normalizing their first element to 0 restores a
    verified certificate.  Every other listed group certifies fully.
    """
    started = time.time()
    for factors in CERTIFICATE_GROUPS:
        group = make_group(factors)
        n = group.order
        expected_fail = set()
        if group.rank == 1 and n % 2 == 1:
            for x in range(1, n):
                if group.order_of_index(x) == n:
                    expected_fail.add(Sequence.from_terms(
                        group, [(x, n - 1), (group.neg_index(x), n - 1)]))
        actual_fail = {seq for seq in extremal_sets(factors, "s")
                       if find_subsum_certificate(seq, "s") is None}
        assert actual_fail == expected_fail, \
            (factors, len(actual_fail), len(expected_fail))
        for seq in actual_fail:
            anchored = seq.translate(-seq.support()[0])
            cert = find_subsum_certificate(anchored, "s")
            assert cert is not None and verify_subsum_certificate(anchored, cert)
    print(f"\nACCEPTANCE 5 addendum (defect characterized, normalized "
          f"translates certified): PASS [{time.time() - started:.1f}s]")


CRITERION_1_GROUPS = sorted({
    (2, 2, 2), (2, 2, 4), (2, 4, 4), (2, 2, 8), (2, 2, 6),
    *[tuple(make_group([m, mn]).invariant_factors)
      for m in (1, 2, 3) for mn in range(1, 10) if mn % m == 0],
    *[(n,) for n in range(2, 13)],
    (2, 2), (2, 4), (2, 6), (3, 3), (3, 6),
})

SEARCHED_TRIPLE_GROUPS = (
    [3], [4], [5], [6], [7], [8], [9], [10],
    [2, 2, 2], [2, 2, 4], [3, 3],
)


def test_criterion_6_property_suites():
    started = time.time()
    rng = random.Random(424242)

    # reach table vs direct sub-multiset enumeration
    pool = [make_group(f) for f in
            ([2], [3], [4], [5], [6], [7], [8], [9], [10], [11], [12],
             [13], [14], [15], [16], [2, 2], [2, 4], [2, 6], [2, 8],
             [3, 3], [4, 4], [2, 2, 2], [2, 2, 4], [2, 2, 2, 2])]
    for _ in range(1000):
        group = rng.choice(pool)
        length = rng.randrange(0, 13)
        seq = Sequence.from_indices(
            group, [rng.randrange(group.order) for _ in range(length)])
        rows = [sums_of_length(seq, L) for L in range(len(seq) + 1)]
        oracle = brute_subsums(seq)
        for e in range(group.order):
            assert {L for L, row in enumerate(rows) if e in row} == oracle[e], (str(seq), e)

    # sandwich and Gao equality with full search triples
    for factors in SEARCHED_TRIPLE_GROUPS:
        group = make_group(factors)
        d = searched(factors, "d").value
        eta = searched(factors, "eta").value
        s = searched(factors, "s").value
        exp = group.exponent
        assert d <= eta <= s - exp + 1, (factors, d, eta, s)
        assert s == eta + exp - 1, (factors, eta, s)

    # and across every criterion-1 group, using the cross-validated values
    for factors in CRITERION_1_GROUPS:
        group = make_group(factors)
        d = formula_oracle(group, "d")
        eta = formula_oracle(group, "eta")
        s = formula_oracle(group, "s")
        exp = group.exponent
        assert d <= eta <= s - exp + 1, (factors, d, eta, s)
        assert s == eta + exp - 1, (factors, eta, s)

    # translation and monoid laws
    for _ in range(1000):
        group = rng.choice(pool)
        a = Sequence.from_indices(
            group, [rng.randrange(group.order) for _ in range(rng.randrange(7))])
        b = Sequence.from_indices(
            group, [rng.randrange(group.order) for _ in range(rng.randrange(7))])
        c = group.element(rng.randrange(group.order))
        assert (a * b).sum() == a.sum() + b.sum()
        assert a * b == b * a
        assert a.gcd(b) == b.gcd(a)
        assert a.translate(c).translate(-c) == a
        k = rng.randrange(0, len(a) + 1)
        kc = group.scale_index(k, c.index)
        lhs = sums_of_length(a.translate(c), k)
        rhs = {group.add_index(kc, e) for e in sums_of_length(a, k)}
        assert lhs == rhs

    print(f"\nACCEPTANCE 6 (oracle equivalence and laws): PASS "
          f"[{time.time() - started:.1f}s]")


def test_criterion_7_constructive_extraction():
    """Exhaustive admissible instances of the exp-length extraction.

    Over C_2^3: every multiset S of length eta+exp-1 = 9, with every
    anchor h in the support and the full power C = h^v_h(S) as pilot
    (always admissible).  Over C_2xC_2xC_4 the lemma's data is
    translation equivariant, so S ranges over a translation transversal:
    every multiset of length 11 containing 0 with maximal multiplicity;
    the anchor is the smallest element of maximal multiplicity, and every
    97th instance additionally runs with every support element as anchor.
    """
    started = time.time()

    group = make_group([2, 2, 2])
    count = 0
    for combo in itertools.combinations_with_replacement(range(8), 9):
        seq = Sequence.from_indices(group, combo)
        for anchor in sorted(set(combo)):
            pilot = Sequence.from_terms(group, [(anchor, seq.mult[anchor])])
            res = extract_exp_length_zero_sum(seq, pilot, group.element(anchor), 8)
            assert isinstance(res, Sequence), (combo, anchor, res)
            assert len(res) == 2 and res.sum().index == 0 and res.divides(seq)
            count += 1
    assert count > comb(15, 9)

    group = make_group([2, 2, 4])
    scanned = 0
    ran = 0
    for combo in itertools.combinations_with_replacement(range(16), 10):
        mult = [0] * 16
        mult[0] = 1
        for i in combo:
            mult[i] += 1
        if mult[0] < max(mult):
            continue
        scanned += 1
        seq = Sequence(group, mult)
        anchors = [min(i for i, v in enumerate(mult) if v == max(mult))]
        if scanned % 97 == 0:
            anchors = seq.support_indices()
        for anchor in anchors:
            pilot = Sequence.from_terms(group, [(anchor, mult[anchor])])
            res = extract_exp_length_zero_sum(seq, pilot, group.element(anchor), 8)
            assert isinstance(res, Sequence), (tuple(mult), anchor, res)
            assert len(res) == 4 and res.sum().index == 0 and res.divides(seq)
            ran += 1
    assert scanned > 100_000

    print(f"\nACCEPTANCE 7 (constructive extraction): PASS "
          f"[{count} + {ran} instances over {scanned} transversal multisets, "
          f"{time.time() - started:.1f}s]")
