import random
from math import comb

import pytest

from zerosum import Budget, InvalidInputError, Sequence, make_group
from zerosum.search import dfs_run

from conftest import random_sequence


class PermissiveState:
    """Search state accepting every push that ``refuse(path, g)`` allows."""

    def __init__(self, refuse):
        self.path = []
        self.refuse = refuse

    def try_push(self, g):
        if self.refuse(self.path, g):
            return False
        self.path.append(g)
        return True

    def pop(self, g):
        self.path.pop()

    def open(self):
        return None

    def slack(self, last, run):
        return None


def enumerate_tuples(group, length, refuse=lambda path, g: False, **kwargs):
    """Every tuple ``dfs_run`` emits in enumerate mode, in order."""
    seen = []
    dfs_run(group, PermissiveState(refuse), target_length=length, emit=seen.append, **kwargs)
    return seen


def test_sum_examples():
    c5 = make_group([5])
    assert Sequence.from_terms(c5, [(1, 4)]).sum().index == 4
    assert Sequence.empty(c5).sum().index == 0
    c22 = make_group([2, 2])
    full = Sequence.from_elements(c22, [[1, 0], [0, 1], [1, 1]])
    assert full.sum() == c22.zero()


def test_gcd_examples():
    c5 = make_group([5])
    a, b = 1, 2
    s1 = Sequence.from_indices(c5, [a, a, b])
    s2 = Sequence.from_indices(c5, [a, b, b])
    assert s1.gcd(s2) == Sequence.from_indices(c5, [a, b])
    assert s1.gcd(s1) == s1
    assert len(Sequence.from_indices(c5, [a] * 3).gcd(
        Sequence.from_indices(c5, [b] * 3))) == 0


def test_divides_and_quotient():
    c5 = make_group([5])
    t = Sequence.from_indices(c5, [1, 2])
    s = Sequence.from_indices(c5, [1, 1, 2, 2, 2])
    assert t.divides(s)
    assert s.quotient(t) == Sequence.from_indices(c5, [1, 2, 2])
    assert not Sequence.from_indices(c5, [1] * 3).divides(
        Sequence.from_indices(c5, [1] * 2))
    assert Sequence.empty(c5).divides(s)
    assert s.quotient(Sequence.empty(c5)) == s
    with pytest.raises(InvalidInputError):
        t.quotient(s)


def test_group_mismatch_rejected():
    s1 = Sequence.empty(make_group([5]))
    s2 = Sequence.empty(make_group([7]))
    with pytest.raises(InvalidInputError):
        s1.gcd(s2)


def test_translate():
    c9 = make_group([9])
    c, b = c9.element(4), c9.element(1)
    s = Sequence.from_terms(c9, [(c, 8), (c + b, 8)])
    assert s.translate(-c) == Sequence.from_terms(c9, [(0, 8), (b, 8)])
    assert s.translate(c9.zero()) == s
    assert s.translate(c).translate(-c) == s


def test_monoid_laws_random():
    rng = random.Random(101)
    for _ in range(300):
        g = make_group(rng.choice(([4], [2, 4], [3, 3], [2, 2, 2])))
        s = random_sequence(rng, g, 6)
        t = random_sequence(rng, g, 6)
        u = random_sequence(rng, g, 6)
        assert (s * t) * u == s * (t * u)
        assert s * Sequence.empty(g) == s
        for e in range(g.order):
            assert (s * t).mult[e] == s.mult[e] + t.mult[e]
        assert (s * t).sum() == s.sum() + t.sum()
        assert s.gcd(t) == t.gcd(s)
        assert s.gcd(s.gcd(t)) == s.gcd(t)
        assert s.gcd(t).gcd(u) == s.gcd(t.gcd(u))
        c = g.element(rng.randrange(g.order))
        assert s.translate(c).translate(-c) == s


def test_enumerate_multiset_counts():
    assert len(enumerate_tuples(make_group([2, 2, 2]), 2)) == 36
    assert len(enumerate_tuples(make_group([3]), 2)) == 6
    # C(|G| + len - 1, len) in general
    for factors, length in (([4], 3), ([2, 2], 4), ([5], 2)):
        g = make_group(factors)
        assert len(enumerate_tuples(g, length)) == comb(g.order + length - 1, length)
    # every complete multiset distinct and non-decreasing
    seen = enumerate_tuples(make_group([2, 2]), 3)
    assert len(set(seen)) == len(seen)
    assert all(list(p) == sorted(p) for p in seen)


def test_enumerate_multiset_empty_size():
    assert enumerate_tuples(make_group([3]), 0) == [()]


def test_enumerate_prune_protocol():
    """A refused push cuts every extension of that prefix; a budget stops
    the run after the tuples emitted so far."""
    pushes = []

    def refuse(path, g):
        pushes.append(tuple(path) + (g,))
        return tuple(path) + (g,) == (0,)

    seen = enumerate_tuples(make_group([3]), 2, refuse=refuse)
    assert (0,) in pushes
    assert all(p[0] != 0 for p in pushes if len(p) == 2)
    assert seen == [(1, 1), (1, 2), (2, 2)]

    whole = enumerate_tuples(make_group([3]), 2)
    cut = enumerate_tuples(make_group([3]), 2, budget=Budget(max_nodes=4))
    assert cut == whole[:3]


def test_enumerate_first_range_split():
    g = make_group([4])
    whole = enumerate_tuples(g, 2)
    pieces = []
    for first in range(g.order):
        pieces += enumerate_tuples(g, 2, restrict_prefix=[first])
    assert sorted(whole) == sorted(pieces)


def test_text_form_roundtrip():
    h = make_group([2, 4])
    s = Sequence.from_terms(h, [([0, 1], 3), ([1, 2], 1)])
    assert str(s) == "(0,1)^3 * (1,2)"
    assert Sequence.parse(h, str(s)) == s
    assert str(Sequence.empty(h)) == "1"
    assert Sequence.parse(h, "1") == Sequence.empty(h)


def test_json_roundtrip():
    h = make_group([2, 4])
    s = Sequence.from_terms(h, [([0, 1], 3), ([1, 2], 1)])
    payload = s.to_json()
    assert payload["group"] == [2, 4]
    assert Sequence.from_json(payload) == s
    assert Sequence.from_json(Sequence.empty(h).to_json()) == Sequence.empty(h)


def test_power_and_length():
    h = make_group([2, 4])
    s = Sequence.from_terms(h, [([0, 1], 2)])
    assert len(s ** 3) == 6
    assert (s ** 0) == Sequence.empty(h)
    with pytest.raises(InvalidInputError):
        s ** -1
