"""Shared DFS substrate for the invariant searches and enumerations.

Sequences are explored as non-decreasing index tuples (one representative
per multiset).  A search state object owns the incremental pruning data;
the driver owns candidate order, optional automorphism-orbit pruning of
the first two positions, node/time budgets, and resumable checkpoints
(the serialized cursor stack).
"""

from __future__ import annotations

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
    multiset, hence preserves maxima and existence questions (not counts).
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


def dfs_run(group: Group, state, *, target_length=None, emit=None,
            budget: Budget | None = None, orbit_pruning=False,
            anchor_zero=False, resume=None, restrict_prefix=None) -> DfsOutcome:
    """Run the DFS to completion, exhaustion, or budget.

    Maximize mode (``target_length is None``) tracks the deepest node and
    the first witness attaining it, in preorder.  Enumerate mode calls
    ``emit`` with every surviving tuple of exactly ``target_length``
    elements.  ``restrict_prefix`` pins the first positions (parallel
    splitting); ``resume`` continues from a checkpoint payload.
    """
    n = group.order
    maximize = target_length is None
    use_orbit = orbit_pruning and 1 < n <= ORBIT_PRUNING_MAX_ORDER
    seeds = pairs = None
    if use_orbit:
        seeds, pairs = canonical_first_two(group)

    if not maximize and target_length == 0:
        if emit is not None:
            emit(())
        return DfsOutcome(0, None, SearchStats(0, 0.0), "complete")

    best = 0
    witness = [] if maximize else None
    path = []
    cursors = [0]
    nodes = 0
    started = time.perf_counter()

    if resume is not None:
        for g in resume["path"]:
            if not state.try_push(g):
                raise InvalidInputError("checkpoint does not replay against this search")
            path.append(g)
        cursors = list(resume["cursors"])
        best = resume["best"]
        witness = list(resume["witness"]) if resume.get("witness") is not None else None
        nodes = resume["nodes"]
    start_nodes = nodes

    def allowed(depth, g):
        if restrict_prefix is not None and depth < len(restrict_prefix):
            return g == restrict_prefix[depth]
        if depth == 0:
            if anchor_zero:
                return g == 0
            if use_orbit:
                return g in seeds
        elif depth == 1 and use_orbit:
            return (path[0], g) in pairs
        return True

    status = "complete"
    checkpoint = None
    max_nodes = budget.max_nodes if budget else None
    max_seconds = budget.max_seconds if budget else None

    while cursors:
        depth = len(cursors) - 1
        g = cursors[-1]
        while g < n and not allowed(depth, g):
            g += 1
        if g >= n:
            cursors.pop()
            if path:
                state.pop(path.pop())
            continue
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
            cursors.append(g)
        else:
            if len(path) == target_length:
                if emit is not None:
                    emit(tuple(path))
                state.pop(path.pop())
            else:
                cursors.append(g)

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
