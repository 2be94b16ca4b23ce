"""Shared brute-force oracles, independent of the library's code paths."""

import functools
import itertools
import math

import pytest

from zerosum import Sequence, make_group


def brute_subsums(seq):
    """Every (element, length) pair realizable as a subsum, by iterating
    all sub-multiplicity vectors."""
    group = seq.group
    out = {e: set() for e in range(group.order)}
    ranges = [range(v + 1) for v in seq.mult]
    for combo in itertools.product(*ranges):
        total = 0
        length = 0
        for i, c in enumerate(combo):
            if c:
                total = group.add_index(total, group.scale_index(c, i))
                length += c
        out[total].add(length)
    return out


def unpack_table(table, order, max_len):
    """Element -> set of lengths of a packed reach table, read bit by bit
    from its row layout: bit L*|G| + e for length L at element e."""
    assert table >> (order * (max_len + 1)) == 0
    return {e: {L for L in range(max_len + 1) if (table >> (L * order + e)) & 1}
            for e in range(order)}


def unpack_negated_rows(table, group, max_len):
    """``unpack_table`` of a negated table, where element x stands for -x,
    the y such that add_index(x, y) is 0."""
    n = group.order
    rows = unpack_table(table, n, max_len)
    return {next(y for y in range(n) if group.add_index(x, y) == 0): lengths
            for x, lengths in rows.items()}


def brute_minimal_zero_sums(seq):
    """All minimal zero-sum sub-multisets as multiplicity tuples."""
    group = seq.group
    result = set()
    for combo in itertools.product(*(range(v + 1) for v in seq.mult)):
        length = sum(combo)
        if length == 0:
            continue
        total = 0
        for i, c in enumerate(combo):
            if c:
                total = group.add_index(total, group.scale_index(c, i))
        if total:
            continue
        minimal = True
        for sub in itertools.product(*(range(c + 1) for c in combo)):
            sub_len = sum(sub)
            if sub_len in (0, length):
                continue
            t = 0
            for i, c in enumerate(sub):
                if c:
                    t = group.add_index(t, group.scale_index(c, i))
            if t == 0:
                minimal = False
                break
        if minimal:
            result.add(combo)
    return result


def brute_max_disjoint(seq, cap=12):
    """Exact disjoint zero-sum count by unpruned recursion over removals
    of minimal zero-sums, which brute_minimal_zero_sums lists."""
    group = seq.group

    @functools.lru_cache(maxsize=None)
    def rec(mult):
        best = 0
        for part in brute_minimal_zero_sums(Sequence(group, mult)):
            best = max(best, 1 + rec(tuple(v - c for v, c in zip(mult, part))))
            if best >= cap:
                return best
        return best

    return min(cap, rec(seq.mult))


def brute_lex_smallest(group, mult, length, target, hom=None, image_group=None):
    """First sorted index tuple, in lexicographic order, of a sub-multiset
    of the given length whose sum (projected by hom into image_group) is
    target, or None; combinations of a sorted list come in that order."""
    image_group = group if hom is None else image_group
    terms = [i for i, v in enumerate(mult) for _ in range(v)]
    for combo in itertools.combinations(terms, length):
        total = 0
        for i in combo:
            total = image_group.add_index(total, i if hom is None else hom[i])
        if total == target:
            return combo
    return None


@functools.lru_cache(maxsize=None)
def brute_subgroup_masks(group):
    """Membership masks of every subgroup, ascending: the subsets that
    contain 0 and are closed under addition, found among all subsets;
    tiny groups only."""
    return tuple(bits for bits in range(1, 1 << group.order, 2)
                 if all((bits >> group.add_index(a, b)) & 1
                        for a in range(group.order) if (bits >> a) & 1
                        for b in range(group.order) if (bits >> b) & 1))


def _element_orders(group, indices):
    """Sorted orders of the elements at ``indices``, each the lcm over its
    coordinates of f / gcd(a, f)."""
    return sorted(math.lcm(*(f // math.gcd(a, f) for a, f in
                             zip(group.residues_of(i), group.invariant_factors)))
                  for i in indices)


def is_isomorphic_to(group, mask, factors):
    """Whether the subgroup with membership mask ``mask`` is isomorphic to
    make_group(factors): a finite abelian group is determined by how many
    elements it has of each order."""
    expected = make_group(factors)
    members = [i for i in range(group.order) if (mask >> i) & 1]
    return _element_orders(group, members) == \
        _element_orders(expected, range(expected.order))


def random_sequence(rng, group, max_len):
    length = rng.randrange(0, max_len + 1)
    return Sequence.from_indices(
        group, [rng.randrange(group.order) for _ in range(length)])


class CountedState:
    """A search state wrapper that counts the pushes it accepts and checks
    that each depth bound asked with a ``last`` names the element just
    pushed and its copies on the path.  Unless ``masked`` it leaves every
    refusal to try_push: open() gives no mask."""

    def __init__(self, state, masked=False):
        self.state = state
        self.masked = masked
        self.path = []
        self.accepted = 0

    def try_push(self, g):
        if not self.state.try_push(g):
            return False
        self.path.append(g)
        self.accepted += 1
        return True

    def pop(self, g):
        self.path.pop()
        self.state.pop(g)

    def open(self):
        return self.state.open() if self.masked else None

    def slack(self, last, run):
        if last is not None:
            assert (last, run) == (self.path[-1], self.path.count(last)), self.path
        return self.state.slack(last, run)


@pytest.fixture(scope="session")
def small_groups():
    return [make_group(f) for f in
            ([2], [3], [4], [5], [6], [8], [9], [2, 2], [2, 4], [3, 3],
             [2, 6], [2, 2, 2], [12], [16])]
