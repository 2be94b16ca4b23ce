"""Shared DFS substrate for the invariant searches and enumerations.

Sequences are explored as non-decreasing index tuples (one representative
per multiset).  A search state object owns the incremental pruning data;
``dfs_run`` owns candidate order, optional automorphism-orbit pruning of
maximise searches (the first two positions, and every later position
through a chain of pointwise stabilisers), node/time budgets, and
resumable checkpoints (the serialized cursor stack).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .engine import _layout
from .errors import InvalidInputError
from .groups import Group

ORBIT_PRUNING_MAX_ORDER = 1 << 8


@dataclass(frozen=True)
class Budget:
    """Caps for a search; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass
class SearchStats:
    nodes: int = 0
    seconds: float = 0.0

    def to_json(self):
        return {"nodes": self.nodes, "seconds": round(self.seconds, 3)}


@dataclass
class DfsOutcome:
    best: int
    witness: list | None
    stats: SearchStats
    status: str                      # "complete" | "partial"
    checkpoint: dict | None = None


def _orbit_minima(points, images):
    """Smallest member of each orbit met while sweeping ``points`` upward.

    ``images(x)`` yields the images of x under a generating set; the orbit
    of the first point not yet reached is closed by search, so that point
    is its smallest member.
    """
    reached = set()
    minima = []
    for x in points:
        if x in reached:
            continue
        minima.append(x)
        reached.add(x)
        stack = [x]
        while stack:
            for y in images(stack.pop()):
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    return minima


def canonical_first_two(group: Group):
    """Seeds and pairs that are lexicographic minima of their Aut(G)-orbits.

    Restricting the two smallest elements of a multiset to canonical
    representatives under Aut(G) preserves the canonical form of every
    multiset, hence preserves maxima and existence questions but not
    counts; ``dfs_run`` applies it in maximize mode only.
    Orbits are closed under ``Group.automorphism_generators``; a finite
    group is generated as a monoid by any generating set, so these are the
    Aut(G)-orbits.  Unordered pairs a <= b are coded as a*n + b, which
    orders them lexicographically.  The result is cached on the group.
    """
    if group._canonical_first_two is None:
        gens = group.automorphism_generators()
        n = group.order

        def pair_images(code):
            a, b = divmod(code, n)
            for p in gens:
                x, y = p[a], p[b]
                yield x * n + y if x <= y else y * n + x

        seeds = set(_orbit_minima(range(n), lambda a: [p[a] for p in gens]))
        codes = (a * n + b for a in range(n) for b in range(a, n))
        pairs = {divmod(code, n) for code in _orbit_minima(codes, pair_images)}
        group._canonical_first_two = (seeds, pairs)
    return group._canonical_first_two


# ---------------------------------------------------------------------------
# Pointwise stabilisers in Aut(G)

# A permutation of the elements of a group of order n <= 256 is a 256-byte
# translation table that fixes n..255, so that p.translate(q), p followed
# by q, runs in C.
_IDENTITY = bytes(range(256))
# consecutive random members of a group that leave the order of the chain
# built so far unchanged before the group's order is declared unreachable;
# each does with probability at most 1/2 while the chain is short of it
_MAX_MISSES = 64


def _close_orbit(gens, trans, new=None):
    """Grow the transversal ``trans`` to a whole orbit under ``gens``.

    ``trans`` maps each point x of the orbit of a base point b to the
    inverse of an element taking b to x; ``gens`` are (s, s^-1) pairs.
    The points already in ``trans`` have met every generator but ``new``
    (none of them when ``new`` is None).
    """
    if new is None:
        frontier = list(trans)
    else:
        frontier = []
        for x, rep in list(trans.items()):
            for s, s_inv in new:
                y = s[x]
                if y not in trans:
                    trans[y] = s_inv.translate(rep)
                    frontier.append(y)
    while frontier:
        x = frontier.pop()
        rep = trans[x]
        for s, s_inv in gens:
            y = s[x]
            if y not in trans:
                trans[y] = s_inv.translate(rep)
                frontier.append(y)


class _Stabiliser:
    """A subgroup of Aut(G) with a base and strong generating set (BSGS).

    ``levels[i]`` holds the strong generators that fix ``base[:i]``, as
    (s, s^-1) pairs, and the transversal of the orbit of ``base[i]`` under
    them (see ``_close_orbit``); ``order`` is the product of the orbit
    sizes.  Once complete, a node also holds ``mask``, with bit x set when
    x is the least point of its orbit, ``fixed``, with bit x set when x is
    fixed, and ``children``, the stabilisers of single points built so far.
    """

    __slots__ = ("n", "base", "levels", "order", "mask", "fixed", "children", "_reps")

    def __init__(self, n, base=(), levels=()):
        self.n = n
        self.base = list(base)
        self.levels = list(levels)
        self.order = 1
        for _, trans in self.levels:
            self.order *= len(trans)
        self.children = {}
        self._reps = None

    def absorb(self, g):
        """Sift g down the chain and add what is left of it, unless the
        identity, as a strong generator; that grows the orbit at the level
        where g left the chain, or adds a level."""
        level = 0
        for level, point in enumerate(self.base):
            rep = self.levels[level][1].get(g[point])
            if rep is None:
                break
            g = g.translate(rep)
        else:
            if g == _IDENTITY:
                return
            level = len(self.base)
            point = next(x for x in range(self.n) if g[x] != x)
            self.base.append(point)
            self.levels.append(([], {point: _IDENTITY}))
        pair = (g, bytes.maketrans(g, _IDENTITY))
        self.order = 1
        for i, (gens, trans) in enumerate(self.levels):
            if i <= level:
                gens.append(pair)
                _close_orbit(gens, trans, [pair])
            self.order *= len(trans)

    def fill(self, target, draws, label):
        """Absorb members of a group of known order ``target`` until the
        chain reaches it, then seal the node.  Every member lies in the
        group, so the chain never outgrows it, and reaching its order
        makes the chain a BSGS of exactly that group."""
        misses = 0
        while self.order < target:
            order = self.order
            self.absorb(next(draws))
            misses = 0 if self.order > order else misses + 1
            if misses > _MAX_MISSES:
                raise RuntimeError(f"the chain of {label} is stuck at order "
                                   f"{self.order} of {target}")
        return self.seal()

    def seal(self):
        """Fill in ``mask`` and ``fixed`` from the strong generators."""
        gens = [s for s, _ in self.levels[0][0]] if self.levels else []
        n = self.n
        self.mask = sum(1 << x for x in _orbit_minima(range(n), lambda x: [s[x] for s in gens]))
        self.fixed = sum(1 << x for x in range(n) if all(s[x] == x for s in gens))
        return self

    def random_element(self, rng):
        """A uniformly random member: one inverse transversal element per
        level, multiplied in level order."""
        if self._reps is None:
            self._reps = [list(trans.values()) for _, trans in self.levels]
        g = _IDENTITY
        for reps in self._reps:
            g = g.translate(reps[rng.randrange(len(reps))])
        return g

    def child(self, b):
        """The stabiliser of b in this group, built on first use."""
        if (self.fixed >> b) & 1:
            return self
        node = self.children.get(b)
        if node is None:
            node = self.children[b] = self._point_stabiliser(b)
        return node

    def _point_stabiliser(self, b):
        if self.base[0] == b:
            # the rest of a BSGS is a BSGS of the first point's stabiliser
            return _Stabiliser(self.n, self.base[1:], self.levels[1:]).seal()
        # Schreier's lemma, with random group members: g followed by the
        # inverse transversal element of b^g fixes b, and it is uniform in
        # the stabiliser when g is uniform in this group
        orbit = {b: _IDENTITY}
        _close_orbit(self.levels[0][0], orbit)
        rng = random.Random(b)

        def draws():
            while True:
                g = self.random_element(rng)
                yield g.translate(orbit[g[b]])

        return _Stabiliser(self.n).fill(self.order // len(orbit), draws(),
                                        f"the stabiliser of {b}")


def _product_replacement(gens, rng):
    """Random members of the group generated by ``gens`` (nonempty), by
    product replacement with an accumulator, after a short warm-up."""
    pool = [gens[i % len(gens)] for i in range(max(10, len(gens)))]
    acc = _IDENTITY
    for step in itertools.count():
        i, j = rng.sample(range(len(pool)), 2)
        pool[i] = pool[i].translate(pool[j])
        acc = acc.translate(pool[i])
        if step >= 50:
            yield acc


def stabiliser_chain(group: Group) -> _Stabiliser:
    """Aut(G) as a BSGS: the root of the chain of pointwise stabilisers.

    The chain is built from ``Group.automorphism_generators`` and
    certified by order: the root stops at ``Group.automorphism_order()``,
    and the stabiliser of b in a group H at |H| / |b^H|.  Random members
    come from seeded generators, so the chain is deterministic; the
    orbits, and hence the search tree, do not depend on which generators
    represent them.  ``child(b)`` walks the chain, and the nodes it builds
    stay cached on the group, keyed by the points fixed on the way down.
    """
    if group._stabiliser_chain is None:
        gens = [bytes(p) + _IDENTITY[group.order:] for p in group.automorphism_generators()]
        draws = itertools.chain(gens, _product_replacement(gens, random.Random(0)))
        group._stabiliser_chain = _Stabiliser(group.order).fill(
            group.automorphism_order(), draws, f"Aut({group.label()})")
    return group._stabiliser_chain


def orbit_pruning_applies(group: Group) -> bool:
    """Whether ``dfs_run(..., orbit_pruning=True)`` prunes by Aut(G)-orbits
    on this group."""
    return 1 < group.order <= ORBIT_PRUNING_MAX_ORDER


def dfs_run(group: Group, state, *, target_length=None, emit=None,
            budget: Budget | None = None, orbit_pruning=False, resume=None,
            restrict_prefix=None) -> DfsOutcome:
    """Run the DFS to completion, exhaustion, or budget.

    Maximize mode (``target_length is None``) tracks the deepest node and
    the first witness attaining it, in preorder.  Enumerate mode calls
    ``emit`` with every surviving tuple of exactly ``target_length``
    elements.  ``restrict_prefix`` pins the first positions (an anchor,
    or parallel splitting); ``resume`` continues from a checkpoint payload.

    Orbit pruning (``orbit_pruning``, for 1 < |G| <= 256) is for maximize
    mode only.  It keeps the first element and the first pair among the
    canonical ones of ``canonical_first_two``, and allows a new distinct
    element b_i at a later position only when b_i is the least point of
    its orbit under the pointwise stabiliser, in Aut(G), of the distinct
    elements b_1 < ... < b_(i-1) before it; repeats pass.  This keeps
    every value and witness.  The witness W is the lexicographically first
    valid tuple of maximum length, and validity is invariant under Aut(G).
    If psi fixed b_1 ... b_(i-1) and mapped b_i to c < b_i, the i smallest
    terms of psi(W) would be bounded term by term by the sorted prefix
    with c in place of b_i, so sorted psi(W) would be a valid tuple of the
    same length lexicographically before W.  So every prefix of W passes
    the test (and, for the same reason, the first-two rule).  The argument
    needs a maximum, not a count: both rules drop tuples an enumeration
    must emit, so enumerate mode refuses ``orbit_pruning``.  Pinned
    positions bypass both rules; with the witness's own prefix pinned, W
    still passes every later test.
    """
    n = group.order
    maximize = target_length is None
    if orbit_pruning and not maximize:
        raise InvalidInputError("orbit pruning drops tuples from an enumeration")
    prune = orbit_pruning and orbit_pruning_applies(group)
    if prune:
        seeds, pairs = canonical_first_two(group)

    if not maximize and target_length == 0:
        if emit is not None:
            emit(())
        return DfsOutcome(0, None, SearchStats(0, 0.0), "complete")

    best = 0
    witness = [] if maximize else None
    path = []
    nodes = 0
    started = time.perf_counter()
    full = (1 << n) - 1
    # chain[d]: pointwise stabiliser of the distinct elements of path[:d]
    chain = [stabiliser_chain(group)] if prune else None

    def allowed(depth):
        """Bitmask of the elements allowed at this depth, before the
        non-decreasing cut."""
        if restrict_prefix is not None and depth < len(restrict_prefix):
            return 1 << restrict_prefix[depth]
        if not prune:
            return full
        if depth == 0:
            return sum(1 << g for g in seeds)
        if depth == 1:
            a = path[0]
            return sum(1 << b for b in range(a, n) if (a, b) in pairs)
        return chain[-1].mask | (1 << path[-1])

    def descend(g):
        """Open the frame below the element g just pushed onto the path."""
        cursors.append(g)
        if prune:
            chain.append(chain[-1].child(g))
        masks.append(allowed(len(path)))

    cursors = [0]
    masks = [allowed(0)]                # parallel to cursors
    if resume is not None:
        for g in resume["path"]:
            if not state.try_push(g):
                raise InvalidInputError("checkpoint does not replay against this search")
            path.append(g)
            descend(g)
        cursors = list(resume["cursors"])
        best = resume["best"]
        witness = list(resume["witness"]) if resume.get("witness") is not None else None
        nodes = resume["nodes"]
    start_nodes = nodes

    status = "complete"
    checkpoint = None
    max_nodes = budget.max_nodes if budget else None
    max_seconds = budget.max_seconds if budget else None

    while cursors:
        g = cursors[-1]
        rest = masks[-1] >> g
        if not rest:
            cursors.pop()
            masks.pop()
            if prune:
                chain.pop()
            if path:
                state.pop(path.pop())
            continue
        g += (rest & -rest).bit_length() - 1
        # budgets are per run; stats and checkpoints stay cumulative
        if (max_nodes is not None and nodes - start_nodes >= max_nodes) or \
           (max_seconds is not None and nodes % 1024 == 0
                and time.perf_counter() - started > max_seconds):
            cursors[-1] = g
            checkpoint = {
                "path": list(path), "cursors": list(cursors),
                "best": best, "witness": witness, "nodes": nodes,
            }
            status = "partial"
            break
        cursors[-1] = g + 1
        nodes += 1
        if not state.try_push(g):
            continue
        path.append(g)
        if maximize:
            if len(path) > best:
                best = len(path)
                witness = list(path)
            slack = state.slack()
            if slack is not None and len(path) + slack <= best:
                state.pop(path.pop())
                continue
            descend(g)
        else:
            if len(path) == target_length:
                if emit is not None:
                    emit(tuple(path))
                state.pop(path.pop())
            else:
                descend(g)

    stats = SearchStats(nodes, time.perf_counter() - started)
    return DfsOutcome(best, witness, stats, status, checkpoint)


# ---------------------------------------------------------------------------
# Incremental search states

class DavenportState:
    """Zero-sum-free prefixes; carries the running subsum bitmask.

    Appending g is legal unless -g is already a subsum (or g is 0).  The
    subsum set of a zero-sum-free sequence grows strictly with each term
    and omits 0, which yields the depth bound used by slack().
    """

    __slots__ = ("group", "neg", "stack")

    def __init__(self, group: Group):
        self.group = group
        self.neg = group.neg_table()
        self.stack = [0]

    def try_push(self, g: int) -> bool:
        sums = self.stack[-1]
        if g == 0 or (sums >> self.neg[g]) & 1:
            return False
        self.stack.append(sums | self.group.translate_mask(sums, g) | (1 << g))
        return True

    def pop(self, g: int):
        self.stack.pop()

    def slack(self):
        return (self.group.order - 1) - self.stack[-1].bit_count()


class ReachState:
    """Prefixes carrying a length-bounded subsum table.

    Each stack entry is a packed reach table (``engine._layout``), and a
    push adds one copy of g with one translate.  ``forbidden`` is a
    bitmask over lengths; a push creating any forbidden length at element
    0, the table's lowest slot, is rejected.  Covers both the
    short-zero-sum and the exact-exp-length detectors.
    """

    __slots__ = ("group", "width", "keep", "forbidden", "stack")

    def __init__(self, group: Group, max_len: int, forbidden: int):
        self.group = group
        self.width, self.keep = _layout(group.order, max_len)
        self.forbidden = forbidden
        self.stack = [1]

    def try_push(self, g: int) -> bool:
        table = self.stack[-1]
        new = table | self.group.translate_mask((table & self.keep) << 1, g, self.width)
        if new & self.forbidden:
            return False
        self.stack.append(new)
        return True

    def pop(self, g: int):
        self.stack.pop()

    def slack(self):
        return None


def short_zero_sum_state(group: Group) -> ReachState:
    exp = group.exponent
    forbidden = ((1 << (exp + 1)) - 1) & ~1
    return ReachState(group, exp, forbidden)


def exact_length_state(group: Group, length: int) -> ReachState:
    return ReachState(group, length, 1 << length)
