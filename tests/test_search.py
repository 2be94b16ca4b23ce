"""Orbit pruning: the canonical first two positions and the chain of
pointwise stabilisers against the brute-force list of automorphisms, and
hand-derived orbits above its cap.  The packed subsum tables of the search
states against brute-force subsums."""

import functools
import random

import pytest

from zerosum import InvalidInputError, Sequence, make_group
from zerosum.search import (
    Budget,
    canonical_first_two,
    dfs_run,
    exact_length_state,
    short_zero_sum_state,
    stabiliser_chain,
)

from conftest import brute_subsums, unpack_table

BRUTE_FORCE_GROUPS = [
    [2], [3], [4], [2, 2], [2, 4], [3, 3], [2, 6], [4, 4], [2, 8], [3, 6],
    [2, 2, 2], [2, 2, 4], [2, 2, 6], [2, 2, 8], [2, 4, 4], [4, 8], [2, 16],
    [3, 9], [5, 5], [6, 6], [2, 2, 2, 2],
]


@functools.lru_cache(maxsize=None)
def brute_automorphisms(factors):
    return make_group(factors).automorphisms()


def brute_first_two(group):
    """Lexicographic minima of the element and unordered-pair orbits,
    taken over every automorphism."""
    perms = brute_automorphisms(group.invariant_factors)
    n = group.order
    seeds = {min(p[a] for p in perms) for a in range(n)}
    pairs = {min(tuple(sorted((p[a], p[b]))) for p in perms)
             for a in range(n) for b in range(a, n)}
    return seeds, pairs


@pytest.mark.parametrize("factors", BRUTE_FORCE_GROUPS, ids=str)
def test_canonical_first_two_matches_brute_force(factors):
    group = make_group(factors)
    n = group.order
    automorphisms = set(brute_automorphisms(group.invariant_factors))
    for perm in group.automorphism_generators():
        assert perm[0] == 0
        assert sorted(perm) == list(range(n))
        for a in range(n):
            for b in range(n):
                assert perm[group.add_index(a, b)] == group.add_index(perm[a], perm[b])
        assert perm in automorphisms
    assert canonical_first_two(group) == brute_first_two(group)


@pytest.mark.parametrize("rank", [6, 8])
def test_elementary_abelian_orbits_above_old_cap(rank):
    # GL_r(F_2) is transitive on nonzero vectors and on pairs of distinct
    # nonzero vectors, so the orbits of unordered pairs are {0,0}, {0,x},
    # {x,x} and {x,y} with x != y, both nonzero; 1 and 2 are the two
    # smallest nonzero indices.
    group = make_group([2] * rank)
    seeds, pairs = canonical_first_two(group)
    assert seeds == {0, 1}
    assert pairs == {(0, 0), (0, 1), (1, 1), (1, 2)}
    assert canonical_first_two(group) is canonical_first_two(group)


def chain_generators(node, n):
    return [tuple(s[:n]) for s, _ in node.levels[0][0]] if node.levels else []


@pytest.mark.parametrize("factors", BRUTE_FORCE_GROUPS, ids=str)
def test_stabiliser_chain_matches_brute_force(factors):
    """Along random distinct prefixes, each node's orbit minima equal those
    of the stabiliser filtered from every automorphism, its order equals
    that stabiliser's, and its generators are automorphisms fixing the
    prefix; the nodes stay cached on the group."""
    group = make_group(factors)
    n = group.order
    perms = brute_automorphisms(group.invariant_factors)
    automorphisms = set(perms)
    root = stabiliser_chain(group)
    assert root.order == len(perms) == group.automorphism_order()
    rng = random.Random(n)
    for _ in range(12):
        prefix = rng.sample(range(n), rng.randint(1, min(n, 5)))
        node = root
        for i in range(len(prefix) + 1):
            stab = [p for p in perms if all(p[x] == x for x in prefix[:i])]
            assert node.mask == sum(1 << x for x in range(n)
                                    if all(p[x] >= x for p in stab))
            assert node.order == len(stab)
            for gen in chain_generators(node, n):
                assert gen in automorphisms
                assert all(gen[x] == x for x in prefix[:i])
            if i < len(prefix):
                node = node.child(prefix[i])
        again = root
        for b in prefix:
            again = again.child(b)
        assert again is node
    assert stabiliser_chain(group) is root


@pytest.mark.parametrize("rank", [7, 8])
def test_elementary_abelian_stabilisers_above_old_cap(rank):
    # GL_r(F_2) fixes the span of a prefix pointwise and, on the
    # complement of the span, is transitive; so the orbit minima are the
    # span and the least vector outside it
    group = make_group([2] * rank)
    n = group.order
    rng = random.Random(rank)
    for _ in range(4):
        node = stabiliser_chain(group)
        span = {0}
        for b in sorted(rng.sample(range(1, n), 4)):
            node = node.child(b)
            span |= {x ^ b for x in span}
            outside = min(set(range(n)) - span, default=None)
            assert node.mask == sum(1 << x for x in span | {outside} - {None})


class _RefuseSecond:
    """Records every tuple offered and refuses every push at depth 1, so
    a maximise search tries each allowed first element and pair once."""

    def __init__(self):
        self.path = []
        self.tried = []

    def try_push(self, g):
        self.tried.append(tuple(self.path) + (g,))
        if self.path:
            return False
        self.path.append(g)
        return True

    def pop(self, g):
        self.path.pop()

    def slack(self):
        return None


def test_dfs_run_prunes_orbits_at_order_128():
    group = make_group([2, 8, 8])
    seeds, pairs = canonical_first_two(group)
    assert len(seeds) < group.order
    state = _RefuseSecond()
    out = dfs_run(group, state, budget=Budget(max_nodes=1000), orbit_pruning=True)
    assert out.status == "complete"
    assert {t[0] for t in state.tried if len(t) == 1} == seeds
    assert {t for t in state.tried if len(t) == 2} == pairs
    # without pruning the 128 first elements and 8,256 pairs exceed the
    # same budget
    out = dfs_run(group, _RefuseSecond(), budget=Budget(max_nodes=1000),
                  orbit_pruning=False)
    assert out.status == "partial"


def test_dfs_run_refuses_orbit_pruning_in_enumerate_mode():
    # the orbit rules keep maxima, not counts
    group = make_group([2, 2])
    with pytest.raises(InvalidInputError):
        dfs_run(group, short_zero_sum_state(group), target_length=2,
                emit=[].append, orbit_pruning=True)


@pytest.mark.parametrize("factors", [[7], [2, 6], [4, 4], [2, 2, 4], [2, 2, 2, 2]], ids=str)
def test_reach_state_tables_match_brute_subsums(factors):
    """Every table on the stack of a short-zero-sum or exact-length state
    holds the subsums of its prefix up to max_len, and a push is refused
    exactly when it would create a forbidden length at 0."""
    group = make_group(factors)
    exp = group.exponent
    rng = random.Random(group.order)
    for make, max_len, forbidden in (
            (short_zero_sum_state, exp, set(range(1, exp + 1))),
            (lambda g: exact_length_state(g, exp), exp, {exp}),
            (lambda g: exact_length_state(g, 3), 3, {3})):
        for _ in range(8):
            state = make(group)
            prefix = []
            for _ in range(10):
                g = rng.randrange(group.order)
                oracle = brute_subsums(Sequence.from_indices(group, prefix + [g]))
                clipped = {e: {L for L in lengths if L <= max_len}
                           for e, lengths in oracle.items()}
                accepted = state.try_push(g)
                assert accepted == (not clipped[0] & forbidden)
                if accepted:
                    prefix.append(g)
                    assert unpack_table(state.stack[-1], group.order, max_len) == clipped
            while prefix:
                state.pop(prefix.pop())
            assert state.stack == [1]
