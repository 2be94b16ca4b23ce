"""Zero-sum invariants of finite abelian groups, by exact search.

Each constant is 1 + the maximum length of a sequence avoiding the
defining property, found by DFS over non-decreasing multisets with an
incremental pruning state.  Closed-form values for the covered groups
(rank at most two, and rank three of the form C_2 + C_2m + C_2mn) are
available through formula_oracle for cross-validation; every search
result re-verifies its own witness through the engine.
"""

from __future__ import annotations

from .engine import (
    has_nonempty_zero_sum,
    has_short_zero_sum,
    has_zero_sum_of_length,
    lifts_disjoint_count,
    max_disjoint_zero_sums,
)
from .errors import InvalidInputError
from .groups import Group, _rank_three_params, factory, record
from .search import (
    Budget,
    DavenportState,
    ReachState,
    SearchStats,
    dfs_run,
    orbit_pruning_applies,
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

@record
class InvariantResult:
    group: Group
    kind: str
    value: int
    method: str                      # "search" | "formula"
    k: int | None = None
    witness: Sequence | None = None
    stats: SearchStats = factory(SearchStats)
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


# bits |G|^(count+1) of the D_k part-sum reach table; a larger count
# decides its lifts by lifts_disjoint_count
DK_REACH_MAX_BITS = 1 << 16


class _DkState:
    """Prefixes with fewer than k disjoint zero-sum subsequences.

    Its masks are negated, like those of the D, eta and s states: bit x
    stands for the sum -x.  ``sums`` holds -Sigma with the empty sum 0, so
    a push of g is one translate by -g, as in ``DavenportState``.  The
    count c can only grow by one per appended element g, and only when g
    closes some zero-sum, i.e. -g is already a subsum, the empty one
    included: bit g of ``sums`` gates the lift test, and a copy of 0
    always passes it.  ``counts`` holds c for every prefix on the stack.

    Past the gate one bit of a part-sum reach table decides.  ``tables[t]``
    lives in G^(t+1): bit x_0 + x_1*|G| + ... + x_t*|G|^t is set when the
    prefix holds disjoint P_0, P_1, ..., P_t with sums -x_0, ..., -x_t,
    where P_1 .. P_t are nonempty and were opened in the order the terms
    were folded in.  A folded copy of g, folded as -g, is left out, joins
    P_0 or an open part, or opens P_(t+1); opening parts in order keeps c+1
    tables where a flag per part would need 2^c.  The prefix has exactly c
    disjoint zero-sums, so every family of c+1 in the grown prefix uses a
    copy of g, which may be taken to be the new one, and its part without
    that copy sums to -g.  So g lifts exactly when ``tables[c]`` holds
    (g, 0, ..., 0), bit g, in whatever order the terms were folded.

    No table depends on the count, so one list serves every count c < k
    with |G|^(c+1) <= ``DK_REACH_MAX_BITS`` and is never dropped.  The
    ``reach`` stack holds it for the root; a push records only -g, and the
    folds pending below the last materialised tables are done at the first
    decision that needs them.  Past the cap ``lifts_disjoint_count``
    decides the lift, with a memo of its sub-decisions kept across the
    whole search.  Both decisions are exact, so the search tree does not
    depend on which one decided.

    So open() leaves every push open below count k - 1, and at k - 1 the
    g whose bit in ``tables[k - 1]`` is clear, the pushes that keep the
    count below k (None past the table cap).  With ``davenport``, D(G),
    slack() bounds the depth: the terms that follow the prefix hold at
    most k - 1 - c disjoint zero-sums, and any j * D(G) terms hold j of
    them, so at most (k - c) * D(G) - 1 terms follow.
    """

    __slots__ = ("group", "k", "davenport", "full", "mult", "neg", "sums", "counts",
                 "levels", "reach", "shifts", "memo")

    def __init__(self, group: Group, k: int, davenport: int | None = None):
        self.group = group
        self.k = k
        self.davenport = davenport
        self.full = (1 << group.order) - 1
        self.mult = [0] * group.order
        self.neg = group.neg_table()
        self.sums = [1]
        self.counts = [0]
        # tables[c] for every count c < k with |G|^(c+1) bits within the cap
        levels = 0
        while levels < k and group.order ** (levels + 1) <= DK_REACH_MAX_BITS:
            levels += 1
        self.levels = levels
        self.reach = [[1] + [0] * (levels - 1)]
        self.shifts = {}
        self.memo = {}

    def try_push(self, g: int) -> bool:
        sums = self.sums[-1]
        count = self.counts[-1]
        self.mult[g] += 1
        if not (sums >> g) & 1:
            lifted = False
        elif count < self.levels:
            lifted = (self._tables()[count] >> g) & 1
        else:
            lifted = lifts_disjoint_count(self.group, self.mult, g, count + 1,
                                          memo=self.memo)
        if lifted:
            count += 1
            if count >= self.k:
                self.mult[g] -= 1
                return False
        minus = self.neg[g]
        self.sums.append(sums | self.group.translate_mask(sums, minus))
        self.counts.append(count)
        # the child's tables are this prefix's folded with -g, when needed
        self.reach.append(minus)
        return True

    def _tables(self):
        """The reach tables of the prefix: the pending folds below the
        last materialised tables on the stack are done now."""
        reach = self.reach
        top = len(reach) - 1
        i = top
        while type(reach[i]) is int:
            i -= 1
        for j in range(i + 1, top + 1):
            reach[j] = self._fold(reach[j - 1], reach[j])
        return reach[top]

    def _fold(self, tables, h):
        """The reach tables after one more term, folded as h: -g for a copy
        of g."""
        shifts = self.shifts.get(h)
        if shifts is None:
            shifts = self._level_shifts(h)
        step = h
        opened = 0
        out = []
        for table, level in zip(tables, shifts):
            # P_t is empty in tables[t-1], so opening it with h is a shift
            grown = table | (opened << step)
            for coordinate in level:
                part = table
                for lo, up, hi, down in coordinate:
                    part = ((part & lo) << up) | ((part & hi) >> down)
                grown |= part
            out.append(grown)
            opened = table
            step *= self.group.order
        return out

    def _level_shifts(self, h):
        """Per table t and coordinate i <= t, the masked shifts that add h
        to x_i: ``Group.mask_shifts(h, |G|^i)`` over one row per value of
        the higher coordinates of G^(t+1)."""
        n = self.group.order
        shifts = []
        for t in range(self.levels):
            level = (self.group.mask_shifts(h, n ** i, rows=n ** (t - i)) for i in range(t + 1))
            shifts.append(tuple(c for c in level if c))
        self.shifts[h] = shifts = tuple(shifts)
        return shifts

    def pop(self, g: int):
        self.mult[g] -= 1
        self.sums.pop()
        self.counts.pop()
        self.reach.pop()

    def open(self):
        """Bitmask of the g that try_push would accept, or None past the
        table cap."""
        count = self.counts[-1]
        if count < self.k - 1:
            return self.full
        if count < self.levels:
            return self.full & ~self._tables()[count]
        return None

    def slack(self, last, run):
        if last is None or self.davenport is None:
            return None
        return (self.k - self.counts[-1]) * self.davenport - 1


def search_state(group: Group, kind: str, k: int | None = None,
                 davenport: int | None = None):
    """The DFS state of a kind's search: it refuses exactly the pushes that
    give the prefix the kind's property (a non-empty zero-sum for d, k
    disjoint ones for dk, a short one for eta, one of length exp(G) for s).
    ``davenport``, D(G), gives the dk state its depth bound.
    """
    _check_kind(kind, k)
    if kind == KIND_D:
        return DavenportState(group)
    if kind == KIND_DK:
        return _DkState(group, k, davenport)
    return ReachState(group, kind == KIND_ETA)


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
    representative, and orbit pruning may use the translations.
    ``restrict_prefix`` pins the positions after that anchor, and
    ``resume`` continues a partial result's ``checkpoint`` (``dfs_run``
    refuses one it could not have written).  The witness is re-verified
    against the property.

    A dk search with k >= 2 under orbit pruning first runs an orbit-pruned
    D search, to completion and outside the budget, for the D(G) of its
    depth bound; that tree is the count-0 part of the dk tree.  Its nodes
    and slack prunes count in the returned ``stats``, not in the
    checkpoint, so a resumed search ends at the total of an uninterrupted
    one.  Past the orbit cap only the subsum count would cut that D tree,
    which no budget could stop, so there the dk search runs unbounded.
    """
    _check_kind(kind, k)
    anchor = [0] if kind == KIND_S else []
    first = None
    if kind == KIND_DK and k > 1 and orbit_pruning and orbit_pruning_applies(group):
        first = dfs_run(group, DavenportState(group), orbit_pruning=True)
    out = dfs_run(group, search_state(group, kind, k, first.best + 1 if first else None),
                  budget=budget, orbit_pruning=orbit_pruning, resume=resume,
                  restrict_prefix=anchor + list(restrict_prefix or ()),
                  translations=bool(anchor))
    if first is not None:
        out.stats.nodes += first.stats.nodes
        out.stats.seconds += first.stats.seconds
        out.stats.slack_prunes += first.stats.slack_prunes
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

@record
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

@record
class PropertyDReport:
    m: int
    holds: bool
    extremal_count: int
    counterexample: Sequence | None
    status: str = "complete"
    stats: SearchStats = factory(SearchStats)

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
