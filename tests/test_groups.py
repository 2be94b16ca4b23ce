import itertools
import random

import pytest

from zerosum import (
    CapacityError,
    InvalidInputError,
    Group,
    Subgroup,
    enumerate_subgroups,
    find_inductive_subgroup,
    make_group,
    parse_group,
    quotient,
    subgroup_generated_by,
)
from zerosum.groups import canonical_invariant_factors

from conftest import brute_subgroup_masks, is_isomorphic_to


def test_make_group_basics():
    g = make_group([2, 4, 8])
    assert (g.order, g.exponent, g.rank) == (64, 8, 3)
    trivial = make_group([])
    assert (trivial.order, trivial.exponent, trivial.rank) == (1, 1, 0)


def test_make_group_canonicalizes():
    # Smith form of diag(4, 2) computed by hand: diag(2, 4)
    assert make_group([4, 2]).invariant_factors == (2, 4)
    assert make_group([2, 3]).invariant_factors == (6,)
    assert make_group([6, 4]).invariant_factors == (2, 12)
    assert make_group([2, 4, 4]) == make_group([4, 2, 4])
    assert make_group([1, 5]).invariant_factors == (5,)


def test_make_group_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        make_group([0, 3])
    with pytest.raises(InvalidInputError):
        make_group([-2])


def test_group_constructor_requires_divisor_chain():
    with pytest.raises(InvalidInputError):
        Group((4, 2))
    with pytest.raises(InvalidInputError):
        Group((2, 3))


def test_exponent_is_lcm_of_element_orders():
    from math import gcd

    for factors in ([], [5], [2, 4], [2, 6], [2, 2, 4], [3, 9]):
        g = make_group(factors)
        acc = 1
        for a in range(g.order):
            o = g.order_of_index(a)
            acc = acc * o // gcd(acc, o)
        assert acc == g.exponent


def test_element_orders():
    h = make_group([2, 4])
    assert h.element([1, 2]).order == 2
    assert h.zero().order == 1
    g = make_group([2, 4, 8])
    assert g.element([1, 1, 1]).order == 8


def test_index_residue_roundtrip_and_arithmetic():
    for factors in ([3], [2, 4], [2, 2, 4]):
        g = make_group(factors)
        for a in range(g.order):
            assert g.index_of(g.residues_of(a)) == a
        for a in range(g.order):
            for b in range(g.order):
                via_index = g.add_index(a, b)
                via_res = g.index_of([
                    (x + y) % f for x, y, f in
                    zip(g.residues_of(a), g.residues_of(b), g.invariant_factors)])
                assert via_index == via_res
            assert g.add_index(a, g.neg_index(a)) == 0


def test_element_operators():
    g = make_group([3, 9])
    a, b = g.element([1, 2]), g.element([2, 8])
    assert (a + b).residues == (0, 1)
    assert (a - a).index == 0
    assert (4 * a).residues == (1, 8)
    assert (-a) + a == g.zero()


def test_enumerate_subgroups_counts():
    c22 = make_group([2, 2])
    assert len(enumerate_subgroups(c22)) == 5 == len(brute_subgroup_masks(c22))
    assert len(enumerate_subgroups(make_group([5]))) == 2
    # subspace count of a rank-3 binary space: 1 + 7 + 7 + 1
    assert len(enumerate_subgroups(make_group([2, 2, 2]))) == 16
    c12 = make_group([12])
    assert len(enumerate_subgroups(c12)) == 6 == len(brute_subgroup_masks(c12))


@pytest.mark.parametrize("factors", [[2, 4], [3, 3], [2, 2, 2]], ids=str)
def test_enumerate_subgroups_are_the_closed_subsets(factors):
    group = make_group(factors)
    subs = enumerate_subgroups(group)
    assert tuple(sorted(s.mask for s in subs)) == brute_subgroup_masks(group)
    for s in subs:
        assert s.order == len(s.member_indices())
        assert subgroup_generated_by(group, s.generators).mask == s.mask


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subgroup_count_p_squared(p):
    assert len(enumerate_subgroups(make_group([p, p]))) == p + 3


def test_subgroups_satisfy_lagrange_and_closure():
    for factors in ([2, 4], [3, 3], [2, 2, 2], [12]):
        g = make_group(factors)
        for sub in enumerate_subgroups(g):
            assert g.order % sub.order == 0
            members = sub.member_indices()
            assert 0 in members
            for a in members:
                assert sub.contains_index(g.neg_index(a))
                for b in members:
                    assert sub.contains_index(g.add_index(a, b))


def test_subgroup_abstract_structure():
    g = make_group([2, 4, 4])
    h = subgroup_generated_by(g, [g.element([0, 2, 0]), g.element([0, 0, 2])])
    assert is_isomorphic_to(g, h.mask, [2, 2])
    assert not is_isomorphic_to(g, h.mask, [4])
    assert h.order == 4
    k = subgroup_generated_by(g, [g.element([0, 1, 0])])
    assert is_isomorphic_to(g, k.mask, [4])
    assert not is_isomorphic_to(g, k.mask, [2, 2])
    assert is_isomorphic_to(g, subgroup_generated_by(g, []).mask, [])
    assert Subgroup._fields == ("parent", "mask", "generators")


def test_enumerate_subgroups_capacity():
    with pytest.raises(CapacityError):
        enumerate_subgroups(make_group([2] * 13))


def test_quotient_c244_by_doubles():
    g = make_group([2, 4, 4])
    h = subgroup_generated_by(g, [g.element([0, 2, 0]), g.element([0, 0, 2])])
    qm = quotient(g, h)
    assert qm.target.invariant_factors == (2, 2, 2)
    # kernel is exactly h
    kernel = {a for a in range(g.order) if qm.table[a] == 0}
    assert kernel == set(h.member_indices())


def test_quotient_trivial_and_cyclic():
    g = make_group([2, 4, 4])
    basis = [g.element([1, 0, 0]), g.element([0, 1, 0]), g.element([0, 0, 1])]
    assert quotient(g, subgroup_generated_by(g, basis)).target.rank == 0
    c4 = make_group([4])
    qm = quotient(c4, subgroup_generated_by(c4, [c4.element(2)]))
    assert qm.target.invariant_factors == (2,)


def test_quotient_is_homomorphism_exhaustive():
    for factors in ([2, 4], [3, 9], [2, 2, 4]):
        g = make_group(factors)
        for sub in enumerate_subgroups(g):
            qm = quotient(g, sub)
            t = qm.target
            assert t.order * sub.order == g.order
            for a in range(g.order):
                for b in range(g.order):
                    assert qm.table[g.add_index(a, b)] == \
                        t.add_index(qm.table[a], qm.table[b])


def test_quotient_sampled_above_exhaustive_range():
    import random

    g = make_group([4, 16, 32])   # order 2048
    h = subgroup_generated_by(g, [g.element([2, 0, 0]), g.element([0, 4, 0]),
                                  g.element([0, 0, 4])])
    qm = quotient(g, h)
    assert qm.target.order * h.order == g.order
    rng = random.Random(5)
    for _ in range(500):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        assert qm.table[g.add_index(a, b)] == \
            qm.target.add_index(qm.table[a], qm.table[b])


def test_quotient_rejects_foreign_subgroup():
    g = make_group([2, 4])
    h = subgroup_generated_by(make_group([2, 2]), [])
    with pytest.raises(InvalidInputError):
        quotient(g, h)


def test_find_inductive_subgroup():
    g = make_group([2, 4, 4])
    h = find_inductive_subgroup(g)
    assert is_isomorphic_to(g, h.mask, [2, 2]) and h.order == 4
    assert quotient(g, h).target.invariant_factors == (2, 2, 2)

    assert find_inductive_subgroup(make_group([2, 2, 2])).is_trivial

    g = make_group([2, 4, 8])
    h = find_inductive_subgroup(g)
    assert is_isomorphic_to(g, h.mask, [2, 4])
    assert quotient(g, h).target.invariant_factors == (2, 2, 2)

    g = make_group([2, 6, 12])          # m = 3, n = 2: H = C3 + C6
    assert is_isomorphic_to(g, find_inductive_subgroup(g).mask, [3, 6])

    for factors in ([3, 3, 3], [4, 4, 4], [2, 4]):
        with pytest.raises(InvalidInputError):
            find_inductive_subgroup(make_group(factors))


def test_automorphism_counts():
    assert len(make_group([2]).automorphisms()) == 1
    assert len(make_group([3]).automorphisms()) == 2
    assert len(make_group([4]).automorphisms()) == 2
    # GL(2, 2), GL(3, 2) and GL(4, 2)
    assert len(make_group([2, 2]).automorphisms()) == 6
    assert len(make_group([2, 2, 2]).automorphisms()) == 168
    assert len(make_group([2, 2, 2, 2]).automorphisms()) == 20160


def test_automorphisms_are_homomorphic_bijections():
    g = make_group([2, 4])
    for perm in g.automorphisms():
        assert sorted(perm) == list(range(g.order))
        assert perm[0] == 0
        for a in range(g.order):
            for b in range(g.order):
                assert perm[g.add_index(a, b)] == g.add_index(perm[a], perm[b])


def test_automorphism_capacity():
    with pytest.raises(CapacityError):
        make_group([2, 8, 8]).automorphisms()


def test_parse_group_forms():
    assert parse_group("C2xC4xC8").invariant_factors == (2, 4, 8)
    assert parse_group("2,4,8").invariant_factors == (2, 4, 8)
    assert parse_group([4, 2]).invariant_factors == (2, 4)
    assert parse_group("c6").invariant_factors == (6,)
    with pytest.raises(InvalidInputError):
        parse_group("Q8")


def test_canonical_invariant_factors_direct():
    assert canonical_invariant_factors([30, 12]) == (6, 60)
    assert canonical_invariant_factors([2, 2, 3]) == (2, 6)
    assert canonical_invariant_factors([1, 1]) == ()


@pytest.mark.parametrize("factors", [[8], [2, 6], [2, 2, 4], [4, 4, 4], [2, 2, 2, 8]],
                         ids=str)
def test_mask_shifts_translate_like_add_row(factors):
    """Slot x + g of each row of the translate holds slot x of that row,
    for slots of 1, 3 and 7 bits in 1 or 3 rows, with x + g from
    add_index."""
    group = make_group(factors)
    n = group.order
    rng = random.Random(n)
    for width, rows in itertools.product((1, 3, 7), (1, 3)):
        full = (1 << width) - 1
        for g in range(n):
            for _ in range(4):
                mask = rng.getrandbits(n * width * rows)
                want = 0
                for r in range(rows):
                    for x in range(n):
                        slot = (mask >> ((r * n + x) * width)) & full
                        want |= slot << ((r * n + group.add_index(x, g)) * width)
                got = mask
                for lo, up, hi, down in group.mask_shifts(g, width, rows):
                    got = ((got & lo) << up) | ((got & hi) >> down)
                assert got == want
                assert group.translate_mask(mask, g, width, rows) == want
        assert group.mask_shifts(0, width, rows) == ()
        assert group.mask_shifts(1, width, rows) is group.mask_shifts(1, width, rows)


def test_records_construct_compare_and_hash_as_declared():
    from zerosum import Budget, InvariantResult, SearchStats, rank_two_params
    from zerosum.groups import replace

    g = make_group([2, 4])
    a, b = g.element([1, 2]), g.element([1, 2])
    assert a == b and a is not b and {a: 1}[b] == 1 and len({a, b, g.zero()}) == 2
    assert repr(a) == "Element(1, 2)"
    sub = subgroup_generated_by(g, [a])
    assert sub == subgroup_generated_by(g, [b]) and {sub} == {subgroup_generated_by(g, [b])}
    assert repr(sub) == "Subgroup(order=2 of C2xC4)"
    with pytest.raises(AttributeError):
        a.index = 0
    # positional and keyword arguments, defaults, and a fresh default per instance
    assert Budget() == Budget(None, None) == Budget(max_seconds=None)
    assert Budget(5) == Budget(max_nodes=5) != Budget(6) and hash(Budget(5)) == hash(Budget(5))
    assert repr(Budget(5)) == "Budget(max_nodes=5, max_seconds=None)"
    one, two = InvariantResult(g, "d", 5, "search"), InvariantResult(g, "d", 5, "search")
    assert one == two and one.stats == SearchStats() and one.stats is not two.stats
    assert (one.k, one.witness, one.status, one.checkpoint) == (None, None, "complete", None)
    with pytest.raises(TypeError):
        hash(one)
    for bad in (lambda: Budget(1, 2, 3), lambda: Budget(1, max_nodes=2),
                lambda: Budget(nodes=1), lambda: InvariantResult(g, "d")):
        with pytest.raises(TypeError):
            bad()
    p = rank_two_params(g, [1, 0], [0, 1], s=1)
    q = replace(p, s=2)
    assert (p.s, q.s) == (1, 2) and q != p and replace(q, s=1) == p
