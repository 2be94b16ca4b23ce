"""Zero-sum invariants of finite abelian groups, by exact search.

Each constant is 1 + the maximum length of a sequence avoiding the
defining property, found by DFS over non-decreasing multisets with an
incremental pruning state.  Closed-form values for the covered families
(rank at most two, and rank three of the form C_2 + C_2m + C_2mn) are
available through formula_oracle for cross-validation; every search
result re-verifies its own witness through the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import (
    _lex_smallest_walk,
    _slot,
    _suffix_tables,
    has_nonempty_zero_sum,
    has_short_zero_sum,
    has_zero_sum_of_length,
    lifts_disjoint_count,
    max_disjoint_zero_sums,
)
from .errors import InvalidInputError
from .groups import Group
from .search import (
    Budget,
    DavenportState,
    SearchStats,
    dfs_run,
    exact_length_state,
    short_zero_sum_state,
)
from .sequences import Sequence

KIND_D = "d"
KIND_DK = "dk"
KIND_ETA = "eta"
KIND_S = "s"
KINDS = (KIND_D, KIND_DK, KIND_ETA, KIND_S)


def _check_kind(kind, k):
    if kind not in KINDS:
        raise InvalidInputError(f"unknown kind {kind!r}")
    if kind == KIND_DK and (k is None or k < 1):
        raise InvalidInputError("kind 'dk' needs k >= 1")


# ---------------------------------------------------------------------------
# Closed-form values

def property_d_known(m: int) -> bool:
    """True when m is known to have Property D (all prime factors in 2,3,5,7)."""
    if m < 1:
        return False
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


def rank_two_split(group: Group):
    """(m, n) with group = C_m + C_mn; rejects rank > 2."""
    f = group.invariant_factors
    if len(f) > 2:
        raise InvalidInputError(f"{group.label()} has rank above two")
    if len(f) == 0:
        return 1, 1
    if len(f) == 1:
        return 1, f[0]
    return f[0], f[1] // f[0]


def _rank_three_params(group: Group):
    """(m, n) with group = C_2 + C_2m + C_2mn, or None."""
    f = group.invariant_factors
    if len(f) == 3 and f[0] == 2:
        return f[1] // 2, f[2] // f[1]
    return None


def formula_oracle(group: Group, kind: str, k: int | None = None):
    """Exact value for a covered family, else None.

    For kind "s" on the rank-three family with n >= 2 the value is only
    emitted when m is known to have Property D.
    """
    if kind not in ("d0", "kd"):
        _check_kind(kind, k)
    if group.rank <= 2:
        m, n = rank_two_split(group)
        if kind == KIND_D:
            return m + m * n - 1
        if kind == KIND_DK:
            return m + k * m * n - 1
        if kind == KIND_ETA:
            return 2 * m + m * n - 2
        if kind == KIND_S:
            return 2 * m + 2 * m * n - 3
        if kind == "d0":
            return m - 1
        if kind == "kd":
            return 1
    three = _rank_three_params(group)
    if three is not None:
        m, n = three
        if kind == KIND_D:
            return 2 * m + 2 * m * n
        if kind == KIND_DK:
            if n >= 2:
                return 2 * m + k * 2 * m * n
            if k == 1:
                return 4 * m
            return (2 * m + 1) + k * 2 * m
        if kind == KIND_ETA:
            return 6 * m + 2 if n == 1 else 4 * m + 2 * m * n
        if kind == KIND_S:
            if n == 1:
                return 8 * m + 1
            return 4 * m + 4 * m * n - 1 if property_d_known(m) else None
        if kind == "d0":
            return 2 * m if n >= 2 else 2 * m + 1
        if kind == "kd":
            return 1 if n >= 2 else 2
    return None


# ---------------------------------------------------------------------------
# Search results

@dataclass
class InvariantResult:
    group: Group
    kind: str
    value: int
    method: str                      # "search" | "formula"
    k: int | None = None
    witness: Sequence | None = None
    stats: SearchStats = field(default_factory=SearchStats)
    status: str = "complete"         # "complete" | "partial"
    checkpoint: dict | None = None

    def to_json(self):
        return {
            "group": list(self.group.invariant_factors),
            "kind": self.kind,
            "k": self.k,
            "value": self.value,
            "method": self.method,
            "status": self.status,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "stats": self.stats.to_json(),
        }


class _DkState:
    """Prefixes with fewer than k disjoint zero-sum subsequences.

    The count can only grow by one per appended element, and only when the
    new element closes some zero-sum, i.e. -g is already a subsum; the
    running subsum bitmask ``sums`` gates the lift test.  Each prefix also
    carries a family of ``count`` disjoint zero-sum parts dividing it, and
    ``free``, the subsum bitmask of the terms outside that family.  When g
    is 0 or -g is in ``free``, the family plus a zero-sum through g from
    the free terms gives count+1 parts, so the count lifts with no search;
    only otherwise does the exact ``lifts_disjoint_count`` run, with a memo
    of its sub-decisions kept across the whole search.  Every decision is
    exact, so the search tree does not depend on which family is carried.
    """

    __slots__ = ("group", "k", "mult", "neg", "counts", "sums", "families",
                 "frees", "memo")

    def __init__(self, group: Group, k: int):
        self.group = group
        self.k = k
        self.mult = [0] * group.order
        self.neg = group.neg_table()
        self.counts = [0]
        self.sums = [0]
        self.families = [()]
        self.frees = [0]
        self.memo = {}

    def try_push(self, g: int) -> bool:
        count = self.counts[-1]
        sums = self.sums[-1]
        family = self.families[-1]
        free = self.frees[-1]
        translate = self.group.translate_mask
        neg = self.neg[g]
        self.mult[g] += 1
        lifted = False
        if g == 0 or (free >> neg) & 1:
            lifted = True
            found = None
        elif (sums >> neg) & 1:
            found = [] if count + 1 < self.k else None
            lifted = lifts_disjoint_count(self.group, self.mult, g, count + 1,
                                          memo=self.memo, collect=found)
        if lifted:
            if count + 1 >= self.k:
                self.mult[g] -= 1
                return False
            count += 1
            if found is None:
                family, free = self._extend(family, g)
            else:
                family = tuple(found)
                free = self._free_mask(self._free_terms(family))
        else:
            free |= translate(free, g) | (1 << g)
        self.counts.append(count)
        self.sums.append(sums | translate(sums, g) | (1 << g))
        self.families.append(family)
        self.frees.append(free)
        return True

    def _free_terms(self, family):
        work = list(self.mult)
        for part in family:
            for i in part:
                work[i] -= 1
        return work

    def _free_mask(self, work):
        translate = self.group.translate_mask
        free = 0
        for e, v in enumerate(work):
            for _ in range(v):
                free |= translate(free, e) | (1 << e)
        return free

    def _extend(self, family, g):
        """The family plus the shortest part through g from the free
        terms, and the new free mask."""
        work = self._free_terms(family)
        work[g] -= 1
        if g == 0:
            rest = ()
        else:
            # one fold of the free terms serves the shortest length
            # through g and the lexicographic walk
            neg = self.neg[g]
            total = sum(work)
            support, tables = _suffix_tables(self.group, work, total)
            lengths = _slot(tables[0], neg, total) & ~1
            shortest = (lengths & -lengths).bit_length() - 1
            rest = _lex_smallest_walk(self.group, work, support, tables, total,
                                      shortest, neg)
            for i in rest:
                work[i] -= 1
        return family + (tuple(sorted(rest + (g,))),), self._free_mask(work)

    def pop(self, g: int):
        self.mult[g] -= 1
        self.counts.pop()
        self.sums.pop()
        self.families.pop()
        self.frees.pop()

    def slack(self):
        return None


def search_state(group: Group, kind: str, k: int | None = None):
    """The DFS state of a kind's search: it refuses exactly the pushes that
    give the prefix the kind's property (a non-empty zero-sum for d, k
    disjoint ones for dk, a short one for eta, one of length exp(G) for s).
    """
    _check_kind(kind, k)
    if kind == KIND_D:
        return DavenportState(group)
    if kind == KIND_DK:
        return _DkState(group, k)
    if kind == KIND_ETA:
        return short_zero_sum_state(group)
    return exact_length_state(group, group.exponent)


def has_property(seq: Sequence, kind: str, k: int | None = None) -> bool:
    """Whether seq has the kind's property, re-checked by the engine's
    detectors; the sequences a kind's search keeps are those without it."""
    _check_kind(kind, k)
    if kind == KIND_D:
        return has_nonempty_zero_sum(seq)
    if kind == KIND_DK:
        return max_disjoint_zero_sums(seq, k) >= k
    if kind == KIND_ETA:
        return has_short_zero_sum(seq)
    return has_zero_sum_of_length(seq, seq.group.exponent)


def compute(group: Group, kind: str, k: int | None = None,
            budget: Budget | None = None, *, orbit_pruning=True, resume=None,
            restrict_prefix=None) -> InvariantResult:
    """The constant of ``kind`` (d, dk with k, eta or s) over ``group``:
    1 + the maximum length of a sequence without the kind's property.

    The s property is translation invariant, so its search pins 0 as the
    smallest element; every extremal translation class has such a
    representative.  ``restrict_prefix`` pins the positions after that
    anchor.  The witness is re-verified against the property.
    """
    anchor = [0] if kind == KIND_S else []
    out = dfs_run(group, search_state(group, kind, k), budget=budget,
                  orbit_pruning=orbit_pruning, resume=resume,
                  restrict_prefix=anchor + list(restrict_prefix or ()))
    witness = Sequence.from_indices(group, out.witness) if out.witness is not None else None
    if witness is not None and (len(witness) != out.best or has_property(witness, kind, k)):
        raise InvalidInputError(
            f"search witness fails re-verification for {kind} over {group.label()}")
    return InvariantResult(group, kind, out.best + 1, "search",
                           k=k if kind == KIND_DK else None, witness=witness,
                           stats=out.stats, status=out.status,
                           checkpoint=out.checkpoint)


# ---------------------------------------------------------------------------
# Arithmetic tail of (D_k)

@dataclass
class TailReport:
    group: Group
    horizon: int
    dk_values: list
    d0: int | None
    kd: int | None
    status: str                       # "provisional" | "inconclusive" | "partial"

    def to_json(self):
        return {
            "group": list(self.group.invariant_factors),
            "horizon": self.horizon,
            "dk": self.dk_values,
            "d0": self.d0,
            "kd": self.kd,
            "status": self.status,
        }


def detect_arithmetic_tail(group: Group, k_max: int,
                           budget: Budget | None = None) -> TailReport:
    """Least k_0 with D_k - k*exp(G) constant on [k_0, k_max], plus that
    constant.  Certified only up to the horizon, hence always provisional.
    """
    if k_max < 2:
        raise InvalidInputError("need k_max >= 2 to observe a tail")
    values = []
    for k in range(1, k_max + 1):
        res = compute(group, KIND_DK, k, budget)
        if res.status != "complete":
            return TailReport(group, k_max, values, None, None, "partial")
        values.append(res.value)
    exp = group.exponent
    offsets = [v - (i + 1) * exp for i, v in enumerate(values)]
    k0 = k_max
    while k0 > 1 and offsets[k0 - 2] == offsets[-1]:
        k0 -= 1
    if k0 > k_max - 2:
        # require the constant stretch to reach stabilization + 2
        return TailReport(group, k_max, values, None, None, "inconclusive")
    return TailReport(group, k_max, values, offsets[-1], k0, "provisional")


# ---------------------------------------------------------------------------
# Property D

@dataclass
class PropertyDReport:
    m: int
    holds: bool
    extremal_count: int
    counterexample: Sequence | None
    status: str = "complete"
    stats: SearchStats = field(default_factory=SearchStats)

    def to_json(self):
        return {
            "m": self.m,
            "holds": self.holds,
            "extremal_count": self.extremal_count,
            "counterexample": (self.counterexample.to_json()
                               if self.counterexample is not None else None),
            "status": self.status,
            "stats": self.stats.to_json(),
        }


def check_property_d(m: int, budget: Budget | None = None) -> PropertyDReport:
    """Scan every length-(4m-4) sequence over C_m^2 without a zero-sum of
    length m; Property D holds when each is a perfect (m-1)-th power,
    i.e. every multiplicity is divisible by m-1.
    """
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if m == 1:
        return PropertyDReport(1, True, 1, None)
    group = Group((m, m))
    target_len = 4 * m - 4
    found = {"count": 0, "bad": None}

    def emit(prefix):
        found["count"] += 1
        if found["bad"] is None:
            mult = [0] * group.order
            for i in prefix:
                mult[i] += 1
            if any(v % (m - 1) for v in mult):
                found["bad"] = Sequence.from_indices(group, prefix)

    out = dfs_run(group, search_state(group, KIND_S), target_length=target_len,
                  emit=emit, budget=budget)
    status = "complete" if out.status == "complete" else "inconclusive"
    return PropertyDReport(m, found["bad"] is None, found["count"],
                           found["bad"], status, out.stats)
