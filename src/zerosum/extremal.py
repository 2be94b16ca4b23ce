"""Extremal sequences over rank-two groups and their verification.

The eta-extremal sequences over H = C_m + C_mn are exactly

    b1^(m-1) * b2^(sm-1) * (-x*b1 + b2)^((n+1-s)m-1)

for a generating pair {b1, b2} with ord(b2) = mn, s in [1,n], x in [1,m]
coprime to m, where the pair is independent or s = n and x = 1.  The
s-extremal sequences add a translation c and a second split parameter t.
This module builds those families, classifies search-enumerated extremal
sequences against them, checks the one-element stability property, and
searches for the restricted-subsum coverage certificate (a proper
subgroup K and k' not in K whose coset covers everything the subsums
miss).  It also builds the length-(2m+2mk) witnesses showing that k
disjoint zero-sum subsequences cannot be forced over C_2 + C_2m + C_2m.
"""

from __future__ import annotations

from functools import partial
from math import gcd

from .engine import reach_table
from .errors import InvalidInputError
from .groups import (Element, Group, Subgroup, enumerate_subgroups, make_group, record, replace,
                     subgroup_generated_by)
from .invariants import (KIND_ETA, KIND_S, formula_oracle, property_d_known,
                         rank_two_split, search_state)
from .search import Budget, SearchStats, dfs_run
from .sequences import Sequence


# ---------------------------------------------------------------------------
# Parameters

@record(frozen=True)
class RankTwoParams:
    """Validated parameters (b1, b2, s, t, x, c) for the extremal families.

    d is the order of the intersection of the two cyclic subgroups, and
    the pair is independent exactly when d = 1.
    """

    group: Group
    b1: Element
    b2: Element
    s: int
    t: int
    x: int
    c: Element
    m: int
    n: int
    d: int

    @property
    def independent(self) -> bool:
        return self.d == 1


def rank_two_params(group: Group, b1, b2, *, s: int, t: int | None = None,
                    x: int = 1, c=None) -> RankTwoParams:
    m, n = rank_two_split(group)
    b1 = group.element(b1)
    b2 = group.element(b2)
    c = group.element(c) if c is not None else group.zero()
    if t is None:
        t = n
    if b2.order != m * n:
        raise InvalidInputError(f"ord(b2) = {b2.order}, need {m * n}")
    span = subgroup_generated_by(group, [b1, b2])
    if span.order != group.order:
        raise InvalidInputError("b1, b2 do not generate the group")
    if not 1 <= s <= n:
        raise InvalidInputError(f"s = {s} outside [1, {n}]")
    if not 1 <= t <= n:
        raise InvalidInputError(f"t = {t} outside [1, {n}]")
    if not (1 <= x <= m and gcd(x, m) == 1):
        raise InvalidInputError(f"x = {x} not a unit in [1, {m}]")
    inter = subgroup_generated_by(group, [m * b1])
    d = inter.order
    if b1.order != m * d or n % d:
        raise InvalidInputError("ord(b1) incompatible with a generating pair")
    return RankTwoParams(group, b1, b2, s, t, x, c, m, n, d)


def _eta_side_condition(p: RankTwoParams) -> bool:
    return p.independent or (p.s == p.n and p.x == 1)


def _s_side_condition(p: RankTwoParams) -> bool:
    return p.independent or (p.s == p.n and p.t == p.n and p.x == 1)


# ---------------------------------------------------------------------------
# Constructors

def build_eta_extremal(p: RankTwoParams) -> Sequence:
    """Length eta(H)-1 sequence with no short zero-sum subsequence."""
    if not _eta_side_condition(p):
        raise InvalidInputError(
            "parameters need an independent pair, or s = n with x = 1")
    m, n, s = p.m, p.n, p.s
    return Sequence.from_terms(p.group, [
        (p.b1, m - 1),
        (p.b2, s * m - 1),
        (-(p.x * p.b1) + p.b2, (n + 1 - s) * m - 1),
    ])


def build_s_extremal(p: RankTwoParams, *, warn_unknown_property_d=True) -> Sequence:
    """Length s(H)-1 sequence with no zero-sum subsequence of length exp(H).

    The build itself never needs Property D; only the claim that the
    family is complete does, so an unknown m merely warns.
    """
    if not _s_side_condition(p):
        raise InvalidInputError(
            "parameters need an independent pair, or s = t = n with x = 1")
    if warn_unknown_property_d and not property_d_known(p.m):
        import warnings
        warnings.warn(f"Property D unknown for m = {p.m}; the family is still "
                      "a valid witness but may be incomplete")
    m, n, s, t, c = p.m, p.n, p.s, p.t, p.c
    return Sequence.from_terms(p.group, [
        (c, t * m - 1),
        (p.b1 + c, (n + 1 - t) * m - 1),
        (p.b2 + c, s * m - 1),
        (-(p.x * p.b1) + p.b2 + c, (n + 1 - s) * m - 1),
    ])


def build_dk_witness(m: int, k: int) -> Sequence:
    """Sequence of length 2m + 2mk over C_2 + C_2m + C_2m without k
    disjoint non-empty zero-sum subsequences (defined for k >= 2)."""
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if k < 2:
        raise InvalidInputError("the construction needs k >= 2")
    group = make_group([2, 2 * m, 2 * m])
    e1 = group.element([1, 0, 0])
    e2 = group.element([0, 1, 0])
    e3 = group.element([0, 0, 1])
    return Sequence.from_terms(group, [
        (e2 + e3, 2 * (k - 1) * m - 1),
        (e2, 2 * m - 1),
        (e3, 2 * (m - 1)),
        (e1, 1),
        (e1 + e2 + e3, 1),
        (e1 + e2, 1),
        (e1 + e3, 1),
    ])


# ---------------------------------------------------------------------------
# Families (all valid parameter choices, deduplicated)

def _generating_pairs(group: Group):
    m, n = rank_two_split(group)
    order_target = m * n
    b2s = [g for g in group.elements() if g.order == order_target]
    for b2 in b2s:
        for b1 in group.elements():
            try:
                yield rank_two_params(group, b1, b2, s=1)
            except InvalidInputError:
                continue


def _family(group: Group, ts, cs, condition, build):
    """The multisets ``build`` makes from every generating pair and every
    s in [1, n], t in ``ts``, unit x in [1, m] and c in ``cs`` that meet
    ``condition``, each mapped to the first parameters that give it."""
    m, n = rank_two_split(group)
    out = {}
    for base in _generating_pairs(group):
        for s in range(1, n + 1):
            for t in ts:
                for x in range(1, m + 1):
                    if gcd(x, m) != 1:
                        continue
                    for c in cs:
                        p = replace(base, s=s, t=t, x=x, c=c)
                        if condition(p):
                            out.setdefault(build(p), p)
    return out


def eta_extremal_family(group: Group):
    """Every multiset the eta parameterization produces, deduplicated; its
    parameters are the s family's with t = n and c = 0."""
    _, n = rank_two_split(group)
    return _family(group, (n,), (group.zero(),), _eta_side_condition, build_eta_extremal)


def s_extremal_family(group: Group):
    """Every multiset the s parameterization produces, deduplicated."""
    _, n = rank_two_split(group)
    return _family(group, range(1, n + 1), group.elements(), _s_side_condition,
                   partial(build_s_extremal, warn_unknown_property_d=False))


# ---------------------------------------------------------------------------
# Exhaustive enumeration of extremal sequences

def _extremal_sequences(group: Group, kind: str, budget: Budget | None):
    """Every sequence of length (the constant of kind) - 1 without the
    kind's property, eta or s, enumerated with no orbit pruning."""
    if kind not in (KIND_ETA, KIND_S):
        raise InvalidInputError(f"extremal kind must be eta or s, got {kind!r}")
    value = formula_oracle(group, kind)
    if value is None:
        raise InvalidInputError(
            f"{kind}({group.label()}) has no closed form to fix the extremal length")
    found = []
    out = dfs_run(group, search_state(group, kind), target_length=value - 1,
                  emit=lambda p: found.append(Sequence.from_indices(group, p)),
                  budget=budget)
    return found, out


def enumerate_eta_extremal(group: Group, budget: Budget | None = None):
    """All sequences of length eta(H)-1 without a short zero-sum."""
    return _extremal_sequences(group, KIND_ETA, budget)


def enumerate_s_extremal(group: Group, budget: Budget | None = None):
    """All sequences of length s(H)-1 without an exp-length zero-sum."""
    return _extremal_sequences(group, KIND_S, budget)


@record
class ClassificationReport:
    group: Group
    kind: str
    length: int
    total: int
    matched: int
    unmatched: list
    status: str
    stats: SearchStats

    @property
    def complete_match(self) -> bool:
        return self.status == "complete" and self.matched == self.total

    def to_json(self):
        return {
            "group": list(self.group.invariant_factors),
            "kind": self.kind,
            "length": self.length,
            "total": self.total,
            "matched": self.matched,
            "unmatched": [s.to_json() for s in self.unmatched],
            "status": self.status,
            "stats": self.stats.to_json(),
        }


def _classify(group, kind, family, budget) -> ClassificationReport:
    found, out = _extremal_sequences(group, kind, budget)
    unmatched = [s for s in found if s not in family]
    return ClassificationReport(group, kind, formula_oracle(group, kind) - 1,
                                len(found), len(found) - len(unmatched),
                                unmatched, out.status, out.stats)


def classify_eta_extremal(group: Group, budget: Budget | None = None) -> ClassificationReport:
    """Enumerate all eta-extremal sequences and match each against the
    parameterized family; an unmatched sequence falsifies the
    classification (or the implementation)."""
    return _classify(group, KIND_ETA, eta_extremal_family(group), budget)


def classify_s_extremal(group: Group, budget: Budget | None = None) -> ClassificationReport:
    m, _ = rank_two_split(group)
    if not property_d_known(m):
        raise InvalidInputError(
            f"classification needs Property D for m = {m}, which is unknown")
    return _classify(group, KIND_S, s_extremal_family(group), budget)


# ---------------------------------------------------------------------------
# Stability: extremal sequences never differ in exactly one element

@record
class StabilityReport:
    group: Group
    kind: str
    holds: bool
    pair: tuple | None
    checked: int

    def to_json(self):
        return {
            "group": list(self.group.invariant_factors),
            "kind": self.kind,
            "holds": self.holds,
            "pair": ([s.to_json() for s in self.pair] if self.pair else None),
            "checked": self.checked,
        }


def check_stability(group: Group, kind: str, sequences=None,
                    budget: Budget | None = None) -> StabilityReport:
    """Any two distinct extremal sequences share at most threshold-3
    elements (equivalently, changing one element of an extremal sequence
    never yields another one).
    """
    if sequences is None:
        sequences, out = _extremal_sequences(group, kind, budget)
        if out.status != "complete":
            raise InvalidInputError("extremal enumeration did not complete")
    for i, a in enumerate(sequences):
        for b in sequences[i + 1:]:
            if sum(map(min, a.mult, b.mult)) >= len(a) - 1:
                return StabilityReport(group, kind, False, (a, b), len(sequences))
    return StabilityReport(group, kind, True, None, len(sequences))


# ---------------------------------------------------------------------------
# Restricted-subsum coverage certificates

@record(frozen=True)
class SubsumCertificate:
    subgroup: Subgroup
    k_prime: Element
    checked_bound: int
    variant: str

    def to_json(self):
        return {
            "subgroup_members": [list(e.residues) for e in self.subgroup.elements()],
            "k_prime": list(self.k_prime.residues),
            "checked_bound": self.checked_bound,
            "variant": self.variant,
        }


def _missed_elements(seq: Sequence, variant: str):
    """The length bound mn-2 and the bitmask of the elements that the
    variant needs covered and the reach table misses: nonzero elements
    without a non-empty subsum of length at most the bound (eta), or
    elements without a subsum of length exactly the bound (s)."""
    m, n = rank_two_split(seq.group)
    bound = m * n - 2
    if variant == KIND_ETA:
        window, needed = range(1, bound + 1), ~1    # 0 needs no cover
    elif variant == KIND_S:
        # the one length mn - 2, none over the trivial group, where it is -1
        window, needed = range(max(bound, 0), bound + 1), ~0
    else:
        raise InvalidInputError(f"variant must be eta or s, got {variant!r}")
    order = seq.group.order
    table = reach_table(seq, min(max(bound, 0), len(seq)))
    covered = 0
    for length in window:
        covered |= table >> (length * order)
    return bound, ((1 << order) - 1) & ~covered & needed


def find_subsum_certificate(seq: Sequence, variant: str):
    """First (largest subgroup, smallest k') pair whose coset -k'+K
    contains everything the restricted subsums miss, or None.

    For the eta variant, existence is guaranteed for extremal sequences
    over C_m + C_mn with n >= 2; for n = 1 the certificate may
    legitimately fail to exist.  For the s variant, existence is
    guaranteed for s-extremal sequences that contain 0, the translate the
    argument normalizes to.  The un-normalized s form can fail: over an
    odd cyclic group the antipodal sequences x^(n-1) * (-x)^(n-1) miss 0
    with every length-(n-2) subsum, so no certificate exists for them.
    """
    group = seq.group
    bound, missing = _missed_elements(seq, variant)
    subgroups = enumerate_subgroups(group, proper_only=True)
    subgroups.sort(key=lambda s: (-s.order, s.mask))
    for sub in subgroups:
        for kp in range(group.order):
            if sub.contains_index(kp):
                continue
            if not missing & ~group.translate_mask(sub.mask, group.neg_index(kp)):
                return SubsumCertificate(sub, group.element(kp), bound, variant)
    return None


def verify_subsum_certificate(seq: Sequence, cert: SubsumCertificate) -> bool:
    """Re-check the inclusion from a fresh reach table."""
    group = seq.group
    _, missing = _missed_elements(seq, cert.variant)
    coset = group.translate_mask(cert.subgroup.mask, group.neg_index(cert.k_prime.index))
    return not missing & ~coset and not cert.subgroup.contains(cert.k_prime)


@record
class SquareCounterexampleReport:
    m: int
    sequence: Sequence
    certificate_exists: bool
    missed_coset_b1: bool
    missed_coset_b2: bool

    @property
    def confirmed(self) -> bool:
        return (not self.certificate_exists) and self.missed_coset_b1 and self.missed_coset_b2

    def to_json(self):
        return {
            "m": self.m,
            "sequence": self.sequence.to_json(),
            "certificate_exists": self.certificate_exists,
            "missed_coset_b1": self.missed_coset_b1,
            "missed_coset_b2": self.missed_coset_b2,
            "confirmed": self.confirmed,
        }


def square_counterexample_report(m: int) -> SquareCounterexampleReport:
    """Over C_m^2 the coverage statement fails: for the standard extremal
    sequence b1^(m-1) b2^(m-1) (b1+b2)^(m-1), the restricted subsums of
    length <= m-2 miss the cosets -b1 + <b2> and -b2 + <b1> entirely, and
    no certificate exists.
    """
    if m < 2:
        raise InvalidInputError("m must be >= 2")
    group = make_group([m, m])
    b1 = group.element([1, 0])
    b2 = group.element([0, 1])
    seq = Sequence.from_terms(group, [(b1, m - 1), (b2, m - 1), (b1 + b2, m - 1)])
    # neither coset holds 0, so the subsums miss a coset exactly when it
    # lies inside the missed elements
    _, missing = _missed_elements(seq, KIND_ETA)

    def coset_missed(b, c):
        coset = group.translate_mask(subgroup_generated_by(group, [c]).mask, (-b).index)
        return not coset & ~missing

    return SquareCounterexampleReport(
        m, seq, find_subsum_certificate(seq, KIND_ETA) is not None,
        coset_missed(b1, b2), coset_missed(b2, b1))
