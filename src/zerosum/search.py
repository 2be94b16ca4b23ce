"""Shared DFS substrate for the invariant searches and enumerations.

Sequences are explored as non-decreasing index tuples (one representative
per multiset).  A search state object owns the incremental pruning data
(the negated subsums for D, a negated row-major reach table for eta and
s, each with the empty sum at bit 0, so that a push of g is one translate
by -g), its depth bound and the mask of the pushes it would accept;
``dfs_run`` owns candidate order, node/time budgets and resumable
checkpoints.  The reference tree, a maximise search without orbit
pruning, tries every push and cuts by D's subsum count alone; every other
search skips the pushes its state refuses, gives the state's depth bound
the copies of the last term off the runs of the path, and under orbit
pruning also prunes by Aut(G)-orbits through a chain of pointwise
stabilisers.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from .engine import reach_push
from .errors import InvalidInputError
from .groups import Group, record

# A permutation of the elements of a group of order n <= 256 is a 256-byte
# translation table that fixes n..255, so that p.translate(q), p followed
# by q, runs in C; orbit pruning is capped by that table's size.
_IDENTITY = bytes(range(256))
ORBIT_PRUNING_MAX_ORDER = len(_IDENTITY)


@record(frozen=True)
class Budget:
    """Caps for a search; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None


@record
class SearchStats:
    nodes: int = 0
    seconds: float = 0.0
    slack_prunes: int = 0           # pushes whose subtree the depth bound cut: it could
                                    # not beat the best, or reach the target length

    def to_json(self):
        return {"nodes": self.nodes, "seconds": round(self.seconds, 3),
                "slack_prunes": self.slack_prunes}


@record
class DfsOutcome:
    witness: list | None
    stats: SearchStats
    status: str                      # "complete" | "partial"
    checkpoint: dict | None = None


# ---------------------------------------------------------------------------
# Pointwise stabilisers in Aut(G)

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
    sizes.  Once sealed, a node also holds ``rep``, with ``rep[x]`` the
    least point of the orbit of x, ``mask``, with bit x set when
    ``rep[x] == x``, and ``children``, the stabilisers of single points
    built so far (the node itself for a fixed point), and caches the
    masks of ``at_least``.  The chain's root also caches ``first_two``
    (see ``canonical_first_two``).
    """

    __slots__ = ("n", "base", "levels", "order", "rep", "mask", "children", "first_two",
                 "_reps", "_at_least")

    def __init__(self, n, base=(), levels=()):
        self.n = n
        self.base = list(base)
        self.levels = list(levels)
        self.order = 1
        for _, trans in self.levels:
            self.order *= len(trans)
        self.children = {}
        self.first_two = None
        self._reps = None
        self._at_least = {}

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
        """Fill in ``rep`` and ``mask`` in one sweep over the points: the
        first point not yet reached is the least of its orbit."""
        gens = [s for s, _ in self.levels[0][0]] if self.levels else []
        rep = [-1] * self.n
        for x in range(self.n):
            if rep[x] < 0:
                rep[x] = x
                orbit = [x]
                for y in orbit:
                    for z in (s[y] for s in gens):
                        if rep[z] < 0:
                            rep[z] = x
                            orbit.append(z)
        self.rep = bytes(rep)
        self.mask = sum(1 << x for x in set(rep))
        return self

    def at_least(self, p):
        """Bitmask of the x whose orbit holds no point below p, cached."""
        mask = self._at_least.get(p)
        if mask is None:
            mask = self._at_least[p] = sum(1 << x for x, r in enumerate(self.rep) if r >= p)
        return mask

    def random_element(self, rng):
        """A uniformly random member: one inverse transversal element per
        level, multiplied in level order."""
        if self._reps is None:
            self._reps = [list(trans.values()) for _, trans in self.levels]
        g = _IDENTITY
        for reps in self._reps:
            g = g.translate(reps[rng.randrange(len(reps))])
        return g

    def orbit(self, b):
        """The transversal of the orbit of b (see ``_close_orbit``)."""
        orbit = {b: _IDENTITY}
        _close_orbit(self.levels[0][0] if self.levels else (), orbit)
        return orbit

    def child(self, b, orbit=None):
        """The stabiliser of b in this group, built on first use; ``orbit``,
        when given, is ``self.orbit(b)``, so that it is not built twice."""
        node = self.children.get(b)
        if node is None:
            fixed = self.rep.count(b) == 1      # b is alone in its orbit
            node = self.children[b] = self if fixed else self._point_stabiliser(b, orbit)
        return node

    def _point_stabiliser(self, b, orbit):
        if self.base[0] == b:
            # the rest of a BSGS is a BSGS of the first point's stabiliser
            return _Stabiliser(self.n, self.base[1:], self.levels[1:]).seal()
        # Schreier's lemma, with random group members: g followed by the
        # inverse transversal element of b^g fixes b, and it is uniform in
        # the stabiliser when g is uniform in this group
        if orbit is None:
            orbit = self.orbit(b)
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


def canonical_first_two(group: Group):
    """Seeds and pairs that are lexicographic minima of their Aut(G)-orbits.

    Restricting the two smallest elements of a multiset to these keeps
    maxima and existence questions but not counts, so ``dfs_run`` applies
    it in maximize mode only.  The seeds are the orbit minima of the root
    of ``stabiliser_chain``.  For a seed a, so psi(a) >= a for all psi in
    Aut(G), a pair (a, b), b >= a, is least in its orbit when (1) never
    psi(b) < a: ``root.rep[b] >= a``; (2) psi(b) >= b when psi fixes a: b
    is least in its Stab(a)-orbit; (3) psi(a) >= b when psi(b) = a, which
    needs b in the orbit of a.  Those psi are tau, with tau(b) = a from a
    transversal of that orbit, followed by Stab(a), so (3) holds when the
    Stab(a)-orbit minimum of tau(a) is at least b.  b = a passes all
    three.  The result is cached on the root.
    """
    root = stabiliser_chain(group)
    if root.first_two is None:
        seeds = {a for a in range(root.n) if root.rep[a] == a}
        pairs = set()
        for a in seeds:
            orbit = root.orbit(a)
            stab = root.child(a, orbit).rep
            pairs.update((a, b) for b in range(a, root.n)
                         if stab[b] == b and root.rep[b] >= a
                         and (b not in orbit or stab[orbit[b][a]] >= b))
        root.first_two = (seeds, pairs)
    return root.first_two


def orbit_pruning_applies(group: Group) -> bool:
    """Whether ``dfs_run(..., orbit_pruning=True)`` prunes by Aut(G)-orbits
    on this group."""
    return 1 < group.order <= ORBIT_PRUNING_MAX_ORDER


def dfs_run(group: Group, state, *, target_length=None, emit=None,
            budget: Budget | None = None, orbit_pruning=False, resume=None,
            restrict_prefix=None, translations=False) -> DfsOutcome:
    """Run the DFS to completion, exhaustion, or budget.

    Maximize mode (``target_length is None``) tracks the deepest node and
    the first witness attaining it, in preorder.  Enumerate mode calls
    ``emit`` with every surviving tuple of exactly ``target_length``
    elements.  ``restrict_prefix`` pins the first positions (an anchor,
    or parallel splitting).  A budget stops it with a checkpoint (the path,
    ``next``, the top frame's next candidate, the witness, ``nodes`` and
    ``slack_prunes``) that ``resume`` continues, refused unless it replays.

    The reference tree, a maximize search without ``orbit_pruning``,
    tries every push and gives the state's depth bound no ``last``.  Every
    other search ANDs each frame's candidates with ``state.open()``, the
    pushes the state would accept (None: all), so ``nodes`` counts only
    the pushes left open; the accepted pushes and their order, the value,
    witness, emitted tuples and slack prunes are those without the mask.

    Orbit pruning (``orbit_pruning``; its rules apply for 1 < |G| <= 256)
    is for maximize mode only.  It keeps the first element and the first
    pair among the canonical ones of ``canonical_first_two``.  Past them
    the path is a sequence of runs, m_j copies of p_1 < p_2 < ..., and H_j
    is the pointwise stabiliser, in Aut(G), of p_1 ... p_(j-1).  A new
    distinct element b must (1) be the least point of its orbit under the
    stabiliser of every element before it, and (2) pass the gate of every
    run: ``H_j.at_least(p_j)``, no point below p_j in the H_j-orbit of b.
    A repeat of p_j passes while m_j is below (3) its cap, the least m_i
    over the earlier runs i with p_j in the H_i-orbit of p_i.  With
    ``translations`` (the state's property is also invariant under
    x -> x - w, and the search pins 0 first) the cap is also at most the
    number of copies of 0.  The rules read the orbit minima of the nodes
    of ``stabiliser_chain`` and cost O(runs) per opened run.  They keep
    every value and witness.  The witness W is the lexicographically first
    valid tuple of maximum length, and validity is invariant under Aut(G)
    (and, with ``translations``, under translation).  Were a prefix of W
    cut, the rule that cut it names a map that sends W to a valid tuple
    of the same length whose sorted terms come lexicographically first:
    for (1) and (2), a psi in H_j, which keeps the runs of p_1 ...
    p_(j-1) and maps b below p_j; for (3), a psi in H_i with psi(p_j) =
    p_i, which keeps the runs before p_i and gives p_i more than m_i
    copies, or x -> x - p_j, which gives 0 more copies than W has.  So no
    prefix of W is cut (nor by the first-two rule, for the same reason).
    The argument needs a maximum, not a count: the rules drop tuples an
    enumeration must emit, so enumerate mode refuses ``orbit_pruning``.
    Pinned positions bypass the rules (their runs still open gates and
    caps); with the witness's own prefix pinned, W still passes every
    later test.

    A push is cut, with its subtree, when ``len(path) + state.slack(last,
    run)`` is below the goal: one past the witness length in maximize mode,
    ``target_length`` in enumerate mode.  The state bounds how many terms
    could still follow a path that ends in ``run`` copies of ``last``, the
    element just pushed (a bound of None cuts nothing).  D bounds them by
    its subsum count, D_k, given D(G), by its disjoint zero-sum count, and
    eta and s by multiplicity: a kept sequence holds at most cap(h) copies
    of h (ord(h) - 1 for eta, exp(G) - 1 for s), every later term is at
    least ``last``, and an element that cannot be pushed now never can be
    later, since the subsum table only grows, so at most the sum of
    cap(h) - mult(h) over the pushable h >= last terms follow.  The cut
    keeps the witness: no tuple in a cut subtree is longer than the witness,
    and the first tuple of that length was met before it.  Unlike the
    orbit rules it is sound for counts: no tuple in a cut subtree has
    ``target_length`` terms, so an enumeration emits the same tuples in
    the same order.
    """
    n = group.order
    maximize = target_length is None
    if orbit_pruning and not maximize:
        raise InvalidInputError("orbit pruning drops tuples from an enumeration")
    reference = maximize and not orbit_pruning
    prune = orbit_pruning and orbit_pruning_applies(group)
    if prune:
        seeds, pairs = canonical_first_two(group)

    if not maximize and target_length == 0:
        if emit is not None:
            emit(())
        return DfsOutcome(None, SearchStats(), "complete")

    best = 0
    witness = [] if maximize else None
    path = []
    nodes = slack_prunes = 0
    started = time.perf_counter()
    full = (1 << n) - 1
    # runs[j]: [p_j, m_j], the j-th run of equal elements on the path and its
    # copies so far, and under the orbit rules H_j, K_j, cap_j, gate_j: the
    # pointwise stabilisers of p_1 ... p_(j-1) and of p_1 ... p_j, the most
    # copies the caps allow, and the AND of every H_i.at_least(p_i), i <= j
    runs = []

    def allowed(depth):
        """Bitmask of the elements allowed at this depth, before the
        non-decreasing cut; outside the reference tree, only those the
        state leaves open."""
        if restrict_prefix is not None and depth < len(restrict_prefix):
            mask = 1 << restrict_prefix[depth]
        elif not prune:
            mask = full
        elif depth == 0:
            mask = sum(1 << g for g in seeds)
        elif depth == 1:
            a = path[0]
            mask = sum(1 << b for b in range(a, n) if (a, b) in pairs)
        else:
            last, run, _, node, cap, gate = runs[-1]
            bit = 1 << last
            mask = (node.mask & gate & ~bit) | (bit if run < cap else 0)
        open_mask = None if reference else state.open()
        return mask if open_mask is None else mask & open_mask

    def descend(g):
        """Open the frame below the element g just pushed onto the path."""
        if reference:
            pass                        # it reads no runs, so keeps none
        elif runs and runs[-1][0] == g:
            runs[-1][1] += 1
        elif not prune:
            runs.append([g, 1])
        else:
            node = runs[-1][3] if runs else stabiliser_chain(group)
            cap = min((m for p, m, h, *_ in runs if h.rep[g] == p), default=math.inf)
            if translations and runs:
                cap = min(cap, runs[0][1])
            runs.append([g, 1, node, node.child(g), cap,
                         node.at_least(g) & (runs[-1][5] if runs else full)])
        masks.append(allowed(len(path)))

    cursor = 0                          # the top frame's next candidate
    masks = [allowed(0)]                # one per open frame
    if resume is not None:
        # the witness, then the path, replays: each term at or above the one
        # before it and accepted, each path term offered by its frame
        refused = InvalidInputError("checkpoint does not replay against this search")
        keys = ("path", "next", "witness", "nodes", "slack_prunes")
        if not (isinstance(resume, dict) and resume.keys() == set(keys)):
            raise refused
        stored, cursor, witness, nodes, slack_prunes = (resume[key] for key in keys)
        if not (isinstance(stored, list) and cursor in range(n + 1)
                and all(type(c) is int and c >= 0 for c in (cursor, nodes, slack_prunes))
                and (isinstance(witness, list) and len(witness) >= len(stored) if maximize
                     else witness is None)):
            raise refused
        shown = witness or []
        best = len(shown)
        for g, low in zip(shown, [0] + shown):
            if type(g) is not int or not low <= g < n or not state.try_push(g):
                raise refused
        for g in reversed(shown):
            state.pop(g)
        for g, low in zip(stored, [0] + stored):
            if type(g) is not int or g < low or not (masks[-1] >> g) & 1 \
                    or not state.try_push(g):
                raise refused
            path.append(g)
            descend(g)
        if cursor < (path[-1] if path else 0):
            raise refused
    start_nodes = nodes

    status = "complete"
    checkpoint = None
    max_nodes = budget.max_nodes if budget else None
    max_seconds = budget.max_seconds if budget else None

    while masks:
        rest = masks[-1] >> cursor
        if not rest:
            masks.pop()
            if path:
                if not reference:
                    runs[-1][1] -= 1
                    if not runs[-1][1]:
                        runs.pop()
                cursor = path[-1] + 1
                state.pop(path.pop())
            continue
        g = cursor + (rest & -rest).bit_length() - 1
        # budgets are per run; stats and checkpoints stay cumulative
        if (max_nodes is not None and nodes - start_nodes >= max_nodes) or \
           (max_seconds is not None and nodes % 1024 == 0
                and time.perf_counter() - started > max_seconds):
            checkpoint = {"path": list(path), "next": g, "witness": witness,
                          "nodes": nodes, "slack_prunes": slack_prunes}
            status = "partial"
            break
        cursor = g + 1
        nodes += 1
        if not state.try_push(g):
            continue
        path.append(g)
        if maximize:
            if len(path) > best:
                best = len(path)
                witness = list(path)
            goal = best + 1
        elif len(path) == target_length:
            if emit is not None:
                emit(tuple(path))
            state.pop(path.pop())
            continue
        else:
            goal = target_length
        # the path is non-decreasing, so every copy of g ends it: they are
        # the top run, one more if it is g's
        run = runs[-1][1] + 1 if runs and runs[-1][0] == g else 1
        slack = state.slack(None if reference else g, run)
        if slack is not None and len(path) + slack < goal:
            slack_prunes += 1
            state.pop(path.pop())
            continue
        descend(g)
        cursor = g

    stats = SearchStats(nodes, time.perf_counter() - started, slack_prunes)
    return DfsOutcome(witness, stats, status, checkpoint)


# ---------------------------------------------------------------------------
# Incremental search states

class DavenportState:
    """Zero-sum-free prefixes; carries the negated subsum bitmask.

    Each stack entry is N = -Sigma, the negatives of the prefix's subsums
    with the empty sum 0 among them, and a push of g is one translate,
    N | (N - g).  Appending g is legal unless -g is already a subsum, i.e.
    bit g of N is set (bit 0 refuses 0), so open() reads the pushes left
    open off N itself.  The subsum set of a zero-sum-free sequence grows
    strictly with each term, so at most |G| - |N| terms can follow:
    slack() ignores ``last`` and ``run``.
    """

    __slots__ = ("group", "neg", "full", "stack")

    def __init__(self, group: Group):
        self.group = group
        self.neg = group.neg_table()
        self.full = (1 << group.order) - 1
        self.stack = [1]

    def try_push(self, g: int) -> bool:
        negs = self.stack[-1]
        if (negs >> g) & 1:
            return False
        self.stack.append(negs | self.group.translate_mask(negs, self.neg[g]))
        return True

    def pop(self, g: int):
        self.stack.pop()

    def open(self):
        """Bitmask of the g that try_push would accept."""
        return self.full & ~self.stack[-1]

    def slack(self, last, run):
        return self.group.order - self.stack[-1].bit_count()


class ReachState:
    """Prefixes carrying their subsum table up to length exp(G).

    Each stack entry is a reach table in the row layout of ``engine``,
    with lengths L <= exp(G), negated: bit L*|G| + x stands for the sum
    -x, so a push of g is ``engine.reach_push`` of -g.  A ``short`` state
    (eta's) refuses a zero-sum of any length 1 .. exp(G), the other (s's)
    one of length exactly exp(G); a push of g creates a zero-sum of length
    L exactly when bit g of row L - 1 is set.  So the pushes left open are
    the complement of the OR of the refused rows (0 .. exp(G) - 1, or
    exp(G) - 1 alone), folded onto row 0 in halving steps once per table
    and kept on ``opens``, parallel to the stack; try_push refuses from it
    before it translates.

    With ``last``, slack() is the multiplicity bound of ``dfs_run``: h^L
    is a zero-sum of length L when ord(h) divides L, and ord(h) divides
    exp(G), so h has at most cap(h) copies, ord(h) - 1 when short and
    exp(G) - 1 otherwise.  ``classes`` pairs each nonzero cap c with the
    mask of the h whose cap is c, built with the state in O(|G|) steps,
    and the bound is the sum of c times the open h >= last in each class,
    less the ``run`` copies of ``last`` when it is still open.
    """

    __slots__ = ("group", "rows", "keep", "full", "refused",
                 "lowest", "folds", "neg", "stack", "opens", "classes")

    def __init__(self, group: Group, short: bool):
        n = group.order
        exp = group.exponent
        self.group = group
        self.rows = exp + 1
        self.keep = (1 << (n * exp)) - 1         # every row but the top
        self.full = (1 << n) - 1
        # the refused rows lo .. exp - 1, whose bit g refuses a push of g;
        # shifted down by ``lowest`` and folded by ``folds`` they OR onto
        # row 0
        lo = 0 if short else exp - 1
        self.lowest = lo * n
        self.refused = self.keep >> self.lowest << self.lowest
        self.folds = [n << i for i in range((exp - 1 - lo).bit_length())]
        self.neg = group.neg_table()
        self.stack = [1]
        # the empty table holds length 0 at 0 alone: it refuses 0 when row
        # 0 is refused
        self.opens = [self.full & ~(self.refused & 1)]
        classes = {}
        for h in range(n):
            cap = group.order_of_index(h) - 1 if short else exp - 1
            if cap:
                classes[cap] = classes.get(cap, 0) | 1 << h
        self.classes = tuple(classes.items())

    def try_push(self, g: int) -> bool:
        if not (self.opens[-1] >> g) & 1:
            return False
        table = reach_push(self.group, self.stack[-1], self.neg[g], self.keep, self.rows)
        self.stack.append(table)
        refused = (table & self.refused) >> self.lowest
        for fold in self.folds:
            refused |= refused >> fold
        self.opens.append(self.full & ~refused)
        return True

    def pop(self, g: int):
        self.stack.pop()
        self.opens.pop()

    def open(self):
        """Bitmask of the g that try_push would accept."""
        return self.opens[-1]

    def slack(self, last, run):
        if last is None:
            return None
        free = self.opens[-1] >> last << last
        extra = -run if (free >> last) & 1 else 0
        for c, m in self.classes:
            extra += c * (m & free).bit_count()
        return extra
