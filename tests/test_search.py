"""Orbit pruning: the canonical first two positions and the chain of
pointwise stabilisers against the brute-force list of automorphisms, and
above its cap against an orbit sweep under the generators and
hand-derived orbits.  The packed subsum tables of the search
states against brute-force subsums, and their depth bounds against
exhaustive extension.  Searches stopped on a budget and resumed against
uninterrupted ones, and the checkpoints a resume refuses."""

import collections
import functools
import itertools
import random

import pytest

import zerosum.search as search
from zerosum import InvalidInputError, Sequence, make_group
from zerosum.search import (
    Budget,
    ReachState,
    canonical_first_two,
    dfs_run,
    stabiliser_chain,
)
from zerosum.invariants import search_state

from conftest import CountedState, _element_orders, brute_max_disjoint, brute_subsums, unpack_negated_rows

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


def swept_first_two(group):
    """Least members of the element and unordered-pair orbits, found by
    sweeping all |G|(|G|+1)/2 pairs upward and closing the orbit of each
    pair not yet reached under ``Group.automorphism_generators``; a pair
    a <= b is coded a*n + b, which orders pairs lexicographically.  The
    reference above the brute-force cap."""
    gens = group.automorphism_generators()
    n = group.order

    def minima(points, images):
        reached = set()
        out = []
        for x in points:
            if x in reached:
                continue
            out.append(x)
            reached.add(x)
            stack = [x]
            while stack:
                for y in images(stack.pop()):
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
        return out

    def pair_images(code):
        a, b = divmod(code, n)
        for p in gens:
            x, y = p[a], p[b]
            yield x * n + y if x <= y else y * n + x

    seeds = set(minima(range(n), lambda a: [p[a] for p in gens]))
    codes = (a * n + b for a in range(n) for b in range(a, n))
    pairs = {divmod(code, n) for code in minima(codes, pair_images)}
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


@pytest.mark.parametrize("factors", [
    [2, 4, 8], [2, 6, 6], [4, 4, 4], [2, 8, 8], [2] * 6,
    [4, 4, 4, 4], [2, 4, 4, 8], [2] * 8, [2, 8, 16], [2, 2, 8, 8], [16, 16],
], ids=str)
def test_canonical_first_two_matches_orbit_sweep(factors):
    group = make_group(factors)
    assert canonical_first_two(group) == swept_first_two(group)


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
            assert node.rep == bytes(min(p[x] for p in stab) for x in range(n))
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


class _RefuseLonger:
    """Records every tuple offered and refuses exactly the pushes past
    ``limit`` terms; no depth bound.  With limit 1 a maximise search tries
    each allowed first element and pair once."""

    def __init__(self, limit):
        self.limit = limit
        self.path = []
        self.tried = []

    def try_push(self, g):
        self.tried.append(tuple(self.path) + (g,))
        if len(self.path) >= self.limit:
            return False
        self.path.append(g)
        return True

    def pop(self, g):
        self.path.pop()

    def open(self):
        return None

    def slack(self, last, run):
        return None


def test_dfs_run_prunes_orbits_at_order_128():
    group = make_group([2, 8, 8])
    seeds, pairs = canonical_first_two(group)
    assert len(seeds) < group.order
    state = _RefuseLonger(1)
    out = dfs_run(group, state, budget=Budget(max_nodes=1000), orbit_pruning=True)
    assert out.status == "complete"
    assert {t[0] for t in state.tried if len(t) == 1} == seeds
    assert {t for t in state.tried if len(t) == 2} == pairs
    # without pruning the 128 first elements and 8,256 pairs exceed the
    # same budget
    out = dfs_run(group, _RefuseLonger(1), budget=Budget(max_nodes=1000),
                  orbit_pruning=False)
    assert out.status == "partial"


class _CheckRuns(_RefuseLonger):
    """A ``_RefuseLonger`` that counts the depth bounds asked of it and
    checks that each names the element just pushed and its copies on the
    path."""

    def __init__(self, limit):
        super().__init__(limit)
        self.checked = 0

    def slack(self, last, run):
        assert (last, run) == (self.path[-1], self.path.count(self.path[-1])), self.path
        self.checked += 1
        return None


@pytest.mark.parametrize("mode", [
    {"orbit_pruning": True},
    {"orbit_pruning": True, "restrict_prefix": [0], "translations": True},
    {"target_length": 6},
], ids=["aut", "affine", "enumerate"])
def test_dfs_run_passes_the_copies_of_the_last_element(mode):
    """Outside the reference tree dfs_run reads the copies of the element
    just pushed off its runs; they are the copies on the path."""
    state = _CheckRuns(6)
    dfs_run(make_group([2, 4]), state, **mode)
    assert state.checked > 100


@pytest.mark.parametrize("kind", ["d", "eta"])
def test_search_past_the_orbit_cap_reads_the_mask_and_runs(kind, monkeypatch):
    """With orbit pruning asked for over a group past the cap of the
    orbit rules, a maximise search still reads the state's open() mask
    and the runs of its path: it finds the reference tree's value and
    witness, and every push it tries is accepted."""
    group = make_group([2, 2, 4])
    reference = dfs_run(group, search_state(group, kind))
    monkeypatch.setattr(search, "ORBIT_PRUNING_MAX_ORDER", 1)
    state = CountedState(search_state(group, kind), masked=True)
    out = dfs_run(group, state, orbit_pruning=True)
    assert (out.best, out.witness) == (reference.best, reference.witness)
    assert out.stats.nodes == state.accepted < reference.stats.nodes


def test_dfs_run_refuses_orbit_pruning_in_enumerate_mode():
    # the orbit rules keep maxima, not counts
    group = make_group([2, 2])
    with pytest.raises(InvalidInputError):
        dfs_run(group, ReachState(group, True), target_length=2,
                emit=[].append, orbit_pruning=True)


@pytest.mark.parametrize("path, next, pinned", [
    ([1, 4, 2], 2, None),
    ([2, 4], 4, [1]),
    ([1, 2, 4], 3, None),
], ids=["path-decreasing", "path-not-pinned", "top-cursor-below-path"])
def test_resume_refuses_what_dfs_run_never_writes(path, next, pinned):
    """Without orbit pruning every element is offered (or the pinned one),
    so a checkpoint's path must be non-decreasing and its ``next``, the
    top frame's cursor, at least the last path element."""
    group = make_group([2, 2, 4])
    written = dfs_run(group, search_state(group, "eta"), budget=Budget(max_nodes=30),
                      restrict_prefix=pinned).checkpoint
    with pytest.raises(InvalidInputError, match="does not replay"):
        dfs_run(group, search_state(group, "eta"), restrict_prefix=pinned,
                resume={**written, "path": path, "next": next})


def _resumed(run, max_nodes):
    """``run(budget, resume)`` stopped every ``max_nodes`` nodes and resumed
    from its checkpoint until it completes."""
    out = run(Budget(max_nodes=max_nodes), None)
    while out.status == "partial":
        out = run(Budget(max_nodes=max_nodes), out.checkpoint)
    return out


@pytest.mark.parametrize("factors, kind, k, pinned, nodes", [
    ([2, 2, 4], "eta", None, None, 70),
    ([2, 2, 4], "d", None, None, 54),
    ([2, 2, 2], "dk", 3, None, 98),
    ([2, 2, 4], "s", None, [0], 188),
], ids=["eta-2-2-4", "d-2-2-4", "d3-2-2-2", "s-2-2-4"])
def test_resume_anywhere_reaches_the_uninterrupted_search(factors, kind, k, pinned, nodes):
    """An orbit-pruned search stopped at every budget b and resumed with b
    again until it completes ends as the uninterrupted run does."""
    group = make_group(factors)
    # D(C2^3) = 4 bounds the dk depth
    davenport = 4 if kind == "dk" else None

    def run(budget, resume):
        return dfs_run(group, search_state(group, kind, k, davenport), budget=budget,
                       orbit_pruning=True, resume=resume, restrict_prefix=pinned,
                       translations=bool(pinned))

    full = run(None, None)
    assert full.stats.nodes == nodes
    for max_nodes in range(1, nodes + 1):
        out = _resumed(run, max_nodes)
        assert (out.best, out.witness, out.stats.nodes, out.stats.slack_prunes) == \
            (full.best, full.witness, full.stats.nodes, full.stats.slack_prunes), max_nodes


def test_resume_anywhere_keeps_an_enumeration():
    """The length-6 s enumeration of C2 x C4, stopped at Fibonacci budgets,
    emits the uninterrupted run's tuples in the same order; its checkpoint
    holds no witness."""
    group = make_group([2, 4])

    def run(budget, resume):
        return dfs_run(group, search_state(group, "s"), target_length=6, emit=emitted.append,
                       budget=budget, resume=resume)

    emitted = []
    full = run(None, None)
    expected, emitted = emitted, []
    assert (full.stats.nodes, len(expected)) == (1137, 336)
    a, b = 1, 2
    while a <= 987:
        out = _resumed(run, a)
        assert (emitted, out.stats.nodes, out.best, out.witness) == (expected, 1137, 0, None), a
        emitted = []
        a, b = b, a + b
    # an enumeration keeps no witness
    stopped = run(Budget(max_nodes=100), None).checkpoint
    with pytest.raises(InvalidInputError, match="does not replay"):
        run(None, {**stopped, "witness": []})


@pytest.mark.parametrize("factors", [[7], [2, 6], [4, 4], [2, 2, 4], [2, 2, 2, 2]], ids=str)
def test_reach_state_tables_match_brute_subsums(factors):
    """Every table on the stack of a short-zero-sum (eta) or exp-length (s)
    state holds the subsums of its prefix up to exp(G), and a push is
    refused exactly when it would create a forbidden length at 0."""
    group = make_group(factors)
    exp = group.exponent
    rng = random.Random(group.order)
    for short, forbidden in ((True, set(range(1, exp + 1))), (False, {exp})):
        for _ in range(8):
            state = ReachState(group, short)
            prefix = []
            for _ in range(10):
                g = rng.randrange(group.order)
                oracle = brute_subsums(Sequence.from_indices(group, prefix + [g]))
                clipped = {e: {L for L in lengths if L <= exp}
                           for e, lengths in oracle.items()}
                accepted = state.try_push(g)
                assert accepted == (not clipped[0] & forbidden)
                if accepted:
                    prefix.append(g)
                    assert unpack_negated_rows(state.stack[-1], group, exp) == clipped
            while prefix:
                state.pop(prefix.pop())
            assert state.stack == [1]


ORACLE_GROUPS = [[2, 2, 2], [2, 4], [3, 3], [2, 2, 4], [4, 4]]


def brute_has_property(group, terms, kind):
    """Whether the terms hold a forbidden zero-sum, from brute-force
    subsums: a nonempty one for d, one of length at most exp(G) for eta,
    one of length exactly exp(G) for s."""
    lengths = brute_subsums(Sequence.from_indices(group, terms))[0] - {0}
    exp = group.exponent
    return {"d": bool(lengths), "eta": any(L <= exp for L in lengths),
            "s": exp in lengths}[kind]


def walk_valid_prefixes(group, kind, seed, visit):
    """Call ``visit(state, prefix, keeps)`` along random prefixes without
    the kind's property, with ``keeps`` the h for which prefix + h still
    lacks it (by brute force); each step pushes one of them."""
    rng = random.Random(f"{seed}{group.invariant_factors}{kind}")
    for _ in range(12):
        state = search_state(group, kind)
        prefix = []
        for _ in range(rng.randint(1, 8)):
            keeps = [h for h in range(group.order)
                     if not brute_has_property(group, prefix + [h], kind)]
            visit(state, prefix, keeps)
            if not keeps:
                break
            h = rng.choice(keeps)
            assert state.try_push(h)
            prefix.append(h)


def visit_open_mask(state, prefix, keeps):
    """The state's open() is exactly ``keeps``, try_push refuses every
    other h, and trying them all leaves open() as it was."""
    n = state.group.order
    mask = state.open()
    assert mask >> n == 0
    assert [h for h in range(n) if (mask >> h) & 1] == keeps, prefix
    for h in range(n):
        accepted = state.try_push(h)
        assert accepted == (h in keeps), (prefix, h)
        if accepted:
            state.pop(h)
    assert state.open() == mask


@pytest.mark.parametrize("factors", ORACLE_GROUPS, ids=str)
def test_davenport_open_mask_matches_brute_subsums(factors):
    """On random zero-sum-free prefixes, the D state's open() is exactly
    the set of h for which prefix + h stays zero-sum-free, and try_push
    refuses every other h."""
    walk_valid_prefixes(make_group(factors), "d", "open", visit_open_mask)


@pytest.mark.parametrize("kind", ["eta", "s"])
@pytest.mark.parametrize("factors", ORACLE_GROUPS, ids=str)
def test_reach_state_refuses_exactly_the_forbidden_zero_sums(factors, kind):
    """On random prefixes without a short (eta) or exp-length (s)
    zero-sum, the state's open() is exactly the set of h for which
    prefix + h still has none, by brute-force subsums, and try_push
    refuses every other h."""
    walk_valid_prefixes(make_group(factors), kind, "refuse", visit_open_mask)


def brute_extension(group, kind, k=None):
    """``grow`` and ``longest`` over the subsums of a prefix as a Python set:
    elements for d, (element, length) pairs of lengths up to exp(G) for eta
    and s, which is all that decides whether a prefix plus an extension
    has the kind's property; for dk, over the prefix's sorted terms, whose
    disjoint zero-sums ``brute_max_disjoint`` counts.  ``grow(sums, h)`` is
    None when appending h gives the property; ``longest(sums, last)`` is
    the length of the longest extension by terms at least ``last`` that
    never does."""
    exp = group.exponent
    add = group.add_index

    def grow(sums, h):
        if kind == "dk":
            terms = tuple(sorted(sums + (h,)))
            return None if brute_max_disjoint(Sequence.from_indices(group, terms), k) >= k \
                else terms
        if kind == "d":
            new = sums | {add(e, h) for e in sums} | {h}
            return None if 0 in new else new
        new = sums | {(add(e, h), L + 1) for e, L in sums if L < exp} | {(h, 1)}
        zero_lengths = {L for e, L in new if e == 0}
        if zero_lengths if kind == "eta" else exp in zero_lengths:
            return None
        return new

    @functools.lru_cache(maxsize=None)
    def longest(sums, last):
        best = 0
        for h in range(last, group.order):
            new = grow(sums, h)
            if new is not None:
                best = max(best, 1 + longest(new, h))
        return best

    return grow, longest


# the dk oracle counts disjoint zero-sums of every multiset in the tree by
# recursion over minimal zero-sums, so it runs on the smaller groups only
SLACK_CASES = [(factors, kind) for factors in [[2, 2, 2], [2, 4], [3, 3], [2, 2, 4], [4, 4]]
               for kind in ("d", "eta", "s")]
SLACK_CASES += [([2, 2, 2], "dk2"), ([2, 4], "dk2"), ([3, 3], "dk2"), ([2, 2, 2], "dk3")]


@pytest.mark.parametrize("factors, kind", SLACK_CASES,
                         ids=[f"{factors}-{kind}" for factors, kind in SLACK_CASES])
def test_slack_bounds_every_extension(factors, kind):
    """On random valid non-decreasing prefixes, the depth bound a state
    gives ``dfs_run`` under orbit pruning is at least the longest valid
    extension by terms no smaller than the last, found by exhaustive
    search over sets.  It is exactly |G| - 1 - |sums| for D, for eta
    and s the sum of cap(h) over the h >= last that can still be
    appended, less the copies of ``last`` when it is one of them, and
    for D_k (k - c) * D(G) - 1, with c the prefix's disjoint zero-sum
    count and D(G) found by the same exhaustive search."""
    group = make_group(factors)
    k = int(kind[2:]) if kind.startswith("dk") else None
    kind = kind[:2] if k else kind
    grow, longest = brute_extension(group, kind, k)
    davenport = brute_extension(group, "d")[1](frozenset(), 0) + 1 if k else None
    caps = [_element_orders(group, [h])[0] - 1 if kind == "eta" else group.exponent - 1
            for h in range(group.order)]
    rng = random.Random(f"{factors}{kind}{k or ''}")
    for _ in range(25):
        state = search_state(group, kind, k, davenport)
        prefix, sums = [], () if k else frozenset()
        for _ in range(rng.randint(1, 8)):
            options = [(h, new) for h in range(prefix[-1] if prefix else 0, group.order)
                       if (new := grow(sums, h)) is not None]
            if not options:
                break
            h, sums = rng.choice(options)
            assert state.try_push(h)
            prefix.append(h)
        last, run = prefix[-1], prefix.count(prefix[-1])
        slack = state.slack(last, run)
        assert slack >= longest(sums, last), prefix
        if kind == "d":
            assert slack == group.order - 1 - len(sums), prefix
        elif kind == "dk":
            count = brute_max_disjoint(Sequence.from_indices(group, prefix), k)
            assert slack == (k - count) * davenport - 1, prefix
        else:
            free = [h for h in range(last, group.order) if grow(sums, h) is not None]
            assert slack == sum(caps[h] for h in free) - (run if last in free else 0), prefix


def brute_orbit_minima(group, length, anchored):
    """The least member of the orbit of every sorted tuple of ``length``
    elements under every automorphism; ``anchored`` tuples start with 0,
    and their maps are x -> psi(x - w) for w in the tuple.  Tuples come in
    lexicographic order, so the first one met of each orbit is its least."""
    perms = brute_automorphisms(group.invariant_factors)
    neg = [next(y for y in range(group.order) if group.add_index(x, y) == 0)
           for x in range(group.order)]
    tails = itertools.combinations_with_replacement(range(group.order),
                                                    length - anchored)
    least = {}
    for tail in tails:
        t = (0,) * anchored + tail
        if t in least:
            continue
        shifts = set(t) if anchored else {0}
        for w in shifts:
            moved = [group.add_index(x, neg[w]) for x in t]
            for p in perms:
                least.setdefault(tuple(sorted(p[x] for x in moved)), t)
    return least


def brute_identity_branch(group, anchored):
    """Whether the identity branch of a minimal-image search rejects a
    sorted tuple with runs (p_1, m_1), (p_2, m_2), ...: some automorphism
    that fixes p_1 ... p_(j-1) maps a later p_l below p_j, or onto p_j with
    m_l > m_j; anchored (0 first, translations allowed), some element has
    more copies than 0.  Stabilisers are filtered from every automorphism."""
    perms = brute_automorphisms(group.invariant_factors)

    @functools.lru_cache(maxsize=None)
    def stabiliser(fixed):
        if not fixed:
            return perms
        return [p for p in stabiliser(fixed[:-1]) if p[fixed[-1]] == fixed[-1]]

    @functools.lru_cache(maxsize=None)
    def orbit_min(fixed):
        return [min(p[x] for p in stabiliser(fixed)) for x in range(group.order)]

    def rejects(t):
        runs = sorted(collections.Counter(t).items())
        if anchored and any(m > runs[0][1] for _, m in runs):
            return True
        points = tuple(p for p, _ in runs)
        for j, (p, m) in enumerate(runs):
            least = orbit_min(points[:j])
            if any(least[q] < p or (least[q] == p and mq > m) for q, mq in runs[j:]):
                return True
        return False

    return rejects


@pytest.mark.parametrize("anchored", [False, True], ids=["aut", "affine"])
@pytest.mark.parametrize("factors", BRUTE_FORCE_GROUPS, ids=str)
def test_orbit_pruning_matches_lex_least_prefix_oracle(factors, anchored):
    """With nothing refused below ``limit`` terms, orbit pruning pushes
    exactly the prefixes whose first one and two terms are least in their
    Aut(G)-orbit and whose longer prefixes the identity branch of a
    minimal-image search keeps (for the anchored s search, 0 pinned first
    and translations allowed).  Every child of a pushed prefix that it
    skips has a lexicographically smaller sorted image under some
    automorphism (anchored, some psi after a translation by -w, w in the
    prefix), and it pushes every prefix that is the least of its orbit."""
    group = make_group(factors)
    n = group.order
    limit = 6 if n <= 9 else 5 if n <= 16 else 4
    state = _RefuseLonger(limit)
    dfs_run(group, state, orbit_pruning=True, restrict_prefix=[0] if anchored else None,
            translations=anchored)
    pushed = {t for t in state.tried if len(t) <= limit}

    minima = {}
    for length in range(1, limit + 1):
        minima.update(brute_orbit_minima(group, length, anchored))
    first_two = {**brute_orbit_minima(group, 1, False), **brute_orbit_minima(group, 2, False)}
    rejects = brute_identity_branch(group, anchored)
    root = (0,) if anchored else ()
    expected, frontier = {root} if anchored else set(), [root]
    while frontier:
        prefix = frontier.pop()
        for g in range(prefix[-1] if prefix else 0, n):
            child = prefix + (g,)
            if len(child) > limit:
                break
            if first_two[child] == child if len(child) <= 2 else not rejects(child):
                expected.add(child)
                frontier.append(child)
            elif child not in pushed:
                assert minima[child] < child, child
    assert pushed == expected
    assert {t for t, least in minima.items() if least == t} <= pushed
