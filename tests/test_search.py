"""Orbit pruning of the first two positions: generators of Aut(G) against
the brute-force list of automorphisms, and hand-derived orbits above its cap.
The packed subsum tables of the search states against brute-force subsums."""

import random

import pytest

from zerosum import Sequence, make_group
from zerosum.search import (
    Budget,
    canonical_first_two,
    dfs_run,
    exact_length_state,
    short_zero_sum_state,
)

from conftest import brute_subsums, unpack_table

BRUTE_FORCE_GROUPS = [
    [2], [3], [4], [2, 2], [2, 4], [3, 3], [2, 6], [4, 4], [2, 8], [3, 6],
    [2, 2, 2], [2, 2, 4], [2, 2, 6], [2, 2, 8], [2, 4, 4], [4, 8], [2, 16],
    [3, 9], [5, 5], [6, 6], [2, 2, 2, 2],
]


def brute_first_two(group):
    """Lexicographic minima of the element and unordered-pair orbits,
    taken over every automorphism."""
    perms = group.automorphisms()
    n = group.order
    seeds = {min(p[a] for p in perms) for a in range(n)}
    pairs = {min(tuple(sorted((p[a], p[b]))) for p in perms)
             for a in range(n) for b in range(a, n)}
    return seeds, pairs


@pytest.mark.parametrize("factors", BRUTE_FORCE_GROUPS, ids=str)
def test_canonical_first_two_matches_brute_force(factors):
    group = make_group(factors)
    n = group.order
    automorphisms = set(group.automorphisms())
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


class _AcceptAll:
    def try_push(self, g):
        return True

    def pop(self, g):
        pass

    def slack(self):
        return None


def test_dfs_run_prunes_orbits_at_order_128():
    group = make_group([2, 8, 8])
    seeds, pairs = canonical_first_two(group)
    assert len(seeds) < group.order
    prefixes = []
    out = dfs_run(group, _AcceptAll(), target_length=2, emit=prefixes.append,
                  budget=Budget(max_nodes=1000), orbit_pruning=True)
    assert out.status == "complete"
    assert {p[0] for p in prefixes} == seeds
    assert set(prefixes) == pairs
    # without pruning the 8,256 pairs exceed the same budget
    out = dfs_run(group, _AcceptAll(), target_length=2,
                  budget=Budget(max_nodes=1000), orbit_pruning=False)
    assert out.status == "partial"


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
