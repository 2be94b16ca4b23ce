"""Decision procedures over subsequence sums.

The workhorse is a bounded-multiplicity subset-sum table: for every group
element it records the set of subsequence lengths realizing that element
as a subsum, packed into one int (``_layout``); each copy of an element
is added by one ``Group.translate_mask``.  Every detector (non-empty
zero-sum, short zero-sum, fixed length zero-sum) reduces to one query
against that table.  On top of it sit minimal zero-sum enumeration, an
exact branch-and-bound count of disjoint zero-sum subsequences, the
quotient-projection partition used by the inductive method, and the
constructive extraction of a zero-sum of length exp(G) from a long
sequence.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError, InvalidInputError
from .groups import Group, QuotientMap, Subgroup, quotient
from .sequences import Sequence

MINIMAL_ENUM_MAX_LEN = 64
# decisions the disjoint-count memo keeps; later ones are not stored
DISJOINT_MEMO_MAX_ENTRIES = 1 << 22


# ---------------------------------------------------------------------------
# Reach table

@lru_cache(maxsize=None)
def _layout(order: int, max_len: int):
    """Slot width and length-step mask of a packed reach table.

    A packed table is one int with a slot of width = max_len + 1 bits per
    element: bit e*width + L is set when some sub-multiset of length L
    sums to e.  ``keep`` clears the top length bit of every slot, so
    ``(T & keep) << 1`` makes every length one longer without leaving its
    slot, and one copy of g turns T into
    ``T | translate_mask((T & keep) << 1, g, width)``.
    """
    width = max_len + 1
    ones = ((1 << (order * width)) - 1) // ((1 << width) - 1)
    return width, ((1 << max_len) - 1) * ones


def _slot(table: int, e: int, max_len: int) -> int:
    """Length bitmask of element e in a packed table: bit L is set when
    some sub-multiset of length L sums to e."""
    width = max_len + 1
    return (table >> (e * width)) & ((1 << width) - 1)


def _suffix_tables(group: Group, mult, max_len: int, hom=None, image_group: Group = None):
    """The support of ``mult`` and the packed tables of its tails.

    ``tables[k]`` is the table of the sub-multiset on ``support[k:]``, so
    ``tables[0]`` covers the whole multiset.  With ``hom`` the sums live in
    ``image_group``.  Each copy of an element is one monotone step, so
    multiplicities are respected exactly; a copy that adds nothing ends
    its element, since every later copy would add nothing too.
    """
    target = image_group if hom is not None else group
    width, keep = _layout(target.order, max_len)
    translate = target.translate_mask
    support = [g for g, v in enumerate(mult) if v]
    table = 1
    tables = [table]
    for g in reversed(support):
        img = hom[g] if hom is not None else g
        for _ in range(mult[g]):
            new = table | translate((table & keep) << 1, img, width)
            if new == table:
                break
            table = new
        tables.append(table)
    tables.reverse()
    return support, tables


def _reach_masks(group: Group, mult, max_len: int, hom=None, image_group: Group = None) -> int:
    """Packed reach table of the whole multiset (see ``_layout``)."""
    return _suffix_tables(group, mult, max_len, hom, image_group)[1][0]


@dataclass(frozen=True)
class ReachTable:
    """Subsum reachability: which lengths realize which element."""

    group: Group
    max_len: int
    masks: tuple

    def has(self, element, length: int) -> bool:
        idx = self.group.element(element).index
        if length < 0 or length > self.max_len:
            return False
        return bool((self.masks[idx] >> length) & 1)

    def lengths(self, element) -> list:
        idx = self.group.element(element).index
        m = self.masks[idx]
        return [L for L in range(self.max_len + 1) if (m >> L) & 1]

    def sums_of_length(self, length: int) -> set:
        """Indices of elements realizable by a sub-multiset of exact length."""
        if length < 0 or length > self.max_len:
            return set()
        bit = 1 << length
        return {e for e, m in enumerate(self.masks) if m & bit}

    def restricted_sums(self, length: int) -> set:
        """Indices realizable by a non-empty sub-multiset of length <= given."""
        window = ((1 << (min(length, self.max_len) + 1)) - 1) & ~1
        return {e for e, m in enumerate(self.masks) if m & window}


def reach_table(seq: Sequence, max_len: int) -> ReachTable:
    if max_len < 0:
        raise InvalidInputError("negative length bound")
    table = _reach_masks(seq.group, seq.mult, max_len)
    masks = tuple(_slot(table, e, max_len) for e in range(seq.group.order))
    return ReachTable(seq.group, max_len, masks)


def restricted_sums(seq: Sequence, length: int) -> set:
    return reach_table(seq, min(length, len(seq))).restricted_sums(length)


def sums_of_length(seq: Sequence, length: int) -> set:
    if length > len(seq):
        return set()
    return reach_table(seq, length).sums_of_length(length)


# ---------------------------------------------------------------------------
# Zero-sum detectors

def has_nonempty_zero_sum(seq: Sequence) -> bool:
    table = _reach_masks(seq.group, seq.mult, len(seq))
    return bool(_slot(table, 0, len(seq)) & ~1)


def has_short_zero_sum(seq: Sequence) -> bool:
    bound = min(seq.group.exponent, len(seq))
    table = _reach_masks(seq.group, seq.mult, bound)
    return bool(_slot(table, 0, bound) & ~1)


def has_zero_sum_of_length(seq: Sequence, k: int) -> bool:
    if k == 0:
        return True
    if k < 0 or k > len(seq):
        return False
    table = _reach_masks(seq.group, seq.mult, k)
    return bool((_slot(table, 0, k) >> k) & 1)


# ---------------------------------------------------------------------------
# Witness extraction

def extract_lex_smallest(group: Group, mult, length: int, target: int,
                         hom=None, image_group: Group = None):
    """Lexicographically smallest sorted index tuple of a sub-multiset of
    the given length whose (projected) sum is ``target``, or None.

    Greedy on the smallest support element with a suffix-feasibility table,
    so the result is deterministic.
    """
    if length == 0:
        return () if target == 0 else None
    support, suffix = _suffix_tables(group, mult, length, hom, image_group)
    if not (_slot(suffix[0], target, length) >> length) & 1:
        return None
    return _lex_smallest_walk(image_group if hom is not None else group, mult,
                              support, suffix, length, length, target, hom)


def _lex_smallest_walk(target_group: Group, mult, support, suffix, max_len: int,
                       length: int, target: int, hom=None):
    """The greedy walk of ``extract_lex_smallest`` on suffix tables that
    ``_suffix_tables`` built with any ``max_len >= length``."""
    chosen = []
    remaining = length
    tgt = target
    for k, g in enumerate(support):
        if remaining == 0:
            break
        img = hom[g] if hom is not None else g
        best_c = None
        c_max = min(mult[g], remaining)
        # walk multiples of img backwards from c_max
        shift = target_group.scale_index(c_max, img)
        cur = target_group.add_index(tgt, target_group.neg_index(shift))
        for c in range(c_max, -1, -1):
            need = remaining - c
            if (_slot(suffix[k + 1], cur, max_len) >> need) & 1:
                best_c = c
                break
            cur = target_group.add_index(cur, img)
        if best_c is None:
            return None
        chosen.extend([g] * best_c)
        tgt = target_group.add_index(tgt, target_group.neg_index(
            target_group.scale_index(best_c, img)))
        remaining -= best_c
    if remaining:
        return None
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Minimal zero-sum subsequences

def _iter_minimal_zero_sums(group: Group, mult, containing=None, max_len=None):
    """Yield index tuples of minimal zero-sum sub-multisets, each once.

    The DFS keeps zero-sum-free prefixes: appending g closes a zero-sum
    exactly when -g is a previous subsum (or g is 0).  The closed multiset
    P*g is minimal precisely when the full sum vanishes and sigma(P) is
    not also the sum of a proper sub-multiset of P; that single bit is
    maintained incrementally, making the minimality test O(1).

    With ``containing`` the element is committed first and the rest
    enumerated canonically, so exactly the minimal zero-sums through that
    element appear.  ``max_len`` caps the multiset size.
    """
    n = group.order
    avail = list(mult)
    path = []
    negs = group.neg_table()
    add_row = group.add_row
    translate = group.translate_mask

    def rec(start, sigma, sums, sigma_proper):
        # sums is an int bitmask over element indices
        if max_len is not None and len(path) >= max_len:
            return
        for g in range(start, n):
            if not avail[g]:
                continue
            path.append(g)
            if g == 0:
                if len(path) == 1:
                    yield (0,)
            else:
                neg = negs[g]
                if (sums >> neg) & 1:
                    if neg == sigma and not sigma_proper:
                        yield tuple(path)
                else:
                    avail[g] -= 1
                    new_sigma = add_row(g)[sigma]
                    yield from rec(g, new_sigma, sums | translate(sums, g) | (1 << g),
                                   sigma_proper or (sums >> new_sigma) & 1)
                    avail[g] += 1
            path.pop()

    if containing is None:
        yield from rec(0, 0, 0, False)
        return
    g = containing
    if not avail[g]:
        return
    if g == 0:
        yield (0,)
        return
    avail[g] -= 1
    path.append(g)
    yield from rec(0, g, 1 << g, False)


def enumerate_minimal_zero_sums(seq: Sequence):
    """All minimal zero-sum subsequences, each multiset once."""
    if len(seq) > MINIMAL_ENUM_MAX_LEN:
        raise CapacityError(
            f"minimal zero-sum enumeration capped at length {MINIMAL_ENUM_MAX_LEN}, got {len(seq)}"
        )
    return [Sequence.from_indices(seq.group, idxs)
            for idxs in _iter_minimal_zero_sums(seq.group, seq.mult)]


# ---------------------------------------------------------------------------
# Disjoint zero-sum subsequences

@dataclass(frozen=True)
class DisjointDecomposition:
    """Disjoint non-empty zero-sum parts plus the untouched remainder."""

    parts: tuple
    remainder: Sequence

    def check(self, original: Sequence):
        acc = self.remainder
        for part in self.parts:
            if len(part) < 1:
                raise InvalidInputError("empty part in decomposition")
            if part.sum().index != 0:
                raise InvalidInputError("non-zero-sum part in decomposition")
            acc = acc * part
        if acc != original:
            raise InvalidInputError("decomposition does not recompose the sequence")


def _find_disjoint(group: Group, mult, needed: int, collect=None, must_use=None,
                   memo=None):
    """Decide whether ``needed`` disjoint non-empty zero-sums exist.

    Branches on the smallest available element: either it is covered by a
    minimal zero-sum part, or it is dropped altogether.  Copies of 0 are
    always optimal singleton parts.  A part longer than what leaves room
    for the remaining needed parts is never tried, and a branch dies as
    soon as no zero-sum of length at most total/needed exists.  With
    ``must_use`` the first part is forced through that element (sound when
    the maximum without it is needed-1): the forced level branches only on
    parts through it, never drops it, and neither reads nor writes the
    memo; a zero part discharges a forced 0.  ``collect`` receives a
    witness family on success; ``memo`` caches (multiset, needed)
    decisions, of which only refutations are reused while collecting.
    """
    if needed <= 0:
        if collect is not None:
            collect.clear()
        return True
    work = list(mult)

    def rec(total_len, needed, parts, forced=None):
        if needed <= 0:
            if collect is not None:
                collect[:] = parts
            return True
        zeros = work[0]
        if zeros:
            use = min(zeros, needed)
            work[0] = 0
            ok = rec(total_len - zeros, needed - use, parts + [(0,)] * use,
                     None if forced == 0 else forced)
            work[0] = zeros
            return ok
        if total_len < 2 * needed:
            return False
        if forced is None:
            if memo is not None:
                key = (bytes(work), needed)
                hit = memo.get(key)
                if hit is not None and (collect is None or not hit):
                    return hit
            # a zero-sum short enough to pay for `needed` parts must exist
            limit = total_len // needed
            if not _slot(_reach_masks(group, work, limit), 0, limit) & ~1:
                if memo is not None:
                    memo[key] = False
                return False
            g = next(i for i, v in enumerate(work) if v)
        else:
            g = forced
        cap = total_len - 2 * (needed - 1)
        ok = False
        for part in _iter_minimal_zero_sums(group, work, containing=g, max_len=cap):
            for i in part:
                work[i] -= 1
            ok = rec(total_len - len(part), needed - 1, parts + [part])
            for i in part:
                work[i] += 1
            if ok:
                break
        if forced is not None:
            return ok
        if not ok:
            dropped = work[g]
            work[g] = 0
            ok = rec(total_len - dropped, needed, parts)
            work[g] = dropped
        if memo is not None and len(memo) < DISJOINT_MEMO_MAX_ENTRIES:
            memo[key] = ok
        return ok

    return rec(sum(work), needed, [], must_use)


def max_disjoint_zero_sums(seq: Sequence, goal: int) -> int:
    """min(goal, maximum number of disjoint non-empty zero-sum subsequences)."""
    if goal < 0:
        raise InvalidInputError("negative goal")
    count = 0
    while count < goal and _find_disjoint(seq.group, seq.mult, count + 1):
        count += 1
    return count


def max_disjoint_decomposition(seq: Sequence, goal: int) -> DisjointDecomposition:
    """A decomposition witnessing max_disjoint_zero_sums(seq, goal)."""
    count = max_disjoint_zero_sums(seq, goal)
    parts = []
    if count:
        _find_disjoint(seq.group, seq.mult, count, collect=parts)
    part_seqs = tuple(Sequence.from_indices(seq.group, p) for p in parts)
    remainder = seq
    for p in part_seqs:
        remainder = remainder.quotient(p)
    decomp = DisjointDecomposition(part_seqs, remainder)
    decomp.check(seq)
    return decomp


def lifts_disjoint_count(group: Group, mult, g: int, need: int, memo=None,
                         collect=None) -> bool:
    """Whether a multiset that just gained a copy of g reaches ``need``
    disjoint zero-sums, given the maximum without that copy is need-1.

    Any family of ``need`` disjoint parts must consume every copy of g
    including the new one, so forcing the first part through g is
    exhaustive.  ``collect`` receives such a family on success.
    """
    return _find_disjoint(group, mult, need, collect=collect, must_use=g, memo=memo)


# ---------------------------------------------------------------------------
# Inductive-method partition

@dataclass(frozen=True)
class InductivePartition:
    """Blocks with zero-sum projections in G/H, plus the resistant tail."""

    blocks: tuple
    tail: Sequence
    projection: QuotientMap

    def check(self, original: Sequence):
        acc = self.tail
        bound = self.projection.target.exponent
        for block in self.blocks:
            if not 1 <= len(block) <= bound:
                raise InvalidInputError("block length outside [1, exp(G/H)]")
            img = 0
            for i, v in enumerate(block.mult):
                if v:
                    img = self.projection.target.add_index(
                        img, self.projection.target.scale_index(v, self.projection.table[i]))
            if img != 0:
                raise InvalidInputError("block projection is not zero-sum")
            acc = acc * block
        if acc != original:
            raise InvalidInputError("partition does not recompose the sequence")


def inductive_partition(seq: Sequence, sub: Subgroup) -> InductivePartition:
    """Greedily split off shortest subsequences with zero-sum projection.

    Blocks are extracted in order (shortest first, ties broken by the
    lexicographically smallest multiset); the tail has no projected
    zero-sum subsequence of length at most exp(G/H).
    """
    group = seq.group
    qm = quotient(group, sub)
    target = qm.target
    hom = qm.table
    bound = target.exponent
    work = list(seq.mult)
    remaining = len(seq)
    blocks = []
    while remaining:
        cap = min(bound, remaining)
        zero = _slot(_reach_masks(group, work, cap, hom, target), 0, cap) & ~1
        if not zero:
            break
        shortest = (zero & -zero).bit_length() - 1
        picked = extract_lex_smallest(group, work, shortest, 0, hom, target)
        blocks.append(Sequence.from_indices(group, picked))
        for i in picked:
            work[i] -= 1
        remaining -= shortest
    return InductivePartition(tuple(blocks), Sequence(group, work), qm)


# ---------------------------------------------------------------------------
# Constructive extraction of an exp(G)-length zero-sum

@dataclass(frozen=True)
class ExtractionFailure:
    """A proof step whose guarantee failed; signals a wrong caller premise."""

    step: str
    detail: str


def _pilot_prologue(seq: Sequence, pilot: Sequence, anchor, required_len: int):
    """Check the premises of the two extractions and shift by -anchor.

    Returns the anchor a, the shifted pilot, the rest (the shifted
    sequence without the shifted pilot) and the greatest length at most
    exp(G) of a zero-sum subsequence of the rest (0 when there is none).
    """
    group = seq.group
    if pilot.group != group or seq.group != group:
        raise InvalidInputError("sequence and pilot over different groups")
    if not pilot.divides(seq):
        raise InvalidInputError("pilot subsequence does not divide the sequence")
    a = group.element(anchor)
    table = _reach_masks(group, pilot.mult, len(pilot))
    jh = 0
    for j in range(1, len(pilot) + 1):
        jh = group.add_index(jh, a.index)
        if not (_slot(table, jh, len(pilot)) >> j) & 1:
            raise InvalidInputError(
                f"j*h is not a length-j subsum of the pilot for j={j}")
    if len(pilot) < (group.exponent - 1) // 2:
        raise InvalidInputError(
            f"pilot length {len(pilot)} below floor((exp-1)/2) = {(group.exponent - 1) // 2}")
    if len(seq) < required_len:
        raise InvalidInputError(
            f"sequence length {len(seq)} below required {required_len}")
    shifted_pilot = pilot.translate(-a)
    rest = seq.translate(-a).quotient(shifted_pilot)
    cap = min(group.exponent, len(rest))
    tlen = _slot(_reach_masks(group, rest.mult, cap), 0, cap).bit_length() - 1
    return a, shifted_pilot, rest, tlen


def extract_exp_length_zero_sum(seq: Sequence, pilot: Sequence, anchor, eta: int):
    """Zero-sum subsequence of length exactly exp(G), built constructively.

    ``pilot`` must divide ``seq`` and realize j*anchor as a length-j subsum
    for every j up to its length; ``eta`` is the eta-constant of the group,
    supplied by the caller.  Returns the subsequence, or an
    ExtractionFailure naming the failed step (possible only when the
    supplied eta is wrong).
    """
    group = seq.group
    exp = group.exponent
    a, shifted_pilot, rest, tlen = _pilot_prologue(seq, pilot, anchor, eta + exp - 1)
    if len(pilot) >= exp - tlen:
        t_part = extract_lex_smallest(group, rest.mult, tlen, 0) if tlen else ()
        c_part = extract_lex_smallest(group, shifted_pilot.mult, exp - tlen, 0)
        if c_part is None:
            return ExtractionFailure(
                "pilot-zero-sum",
                f"pilot has no zero-sum piece of length {exp - tlen} after shifting")
        result = Sequence.from_indices(group, list(t_part) + list(c_part)).translate(a)
        if not result.divides(seq) or result.sum().index != 0 or len(result) != exp:
            raise InvalidInputError("internal extraction produced an invalid witness")
        return result
    return ExtractionFailure(
        "eta-bound",
        f"residual of length {len(rest) - tlen} >= eta={eta} has no short zero-sum; "
        "the supplied eta exceeds the true value")


def extract_short_zero_sum_free(seq: Sequence, pilot: Sequence, anchor, eta: int):
    """From a sequence without exp-length zero-sums, produce a subsequence
    of the anchor-shifted sequence of length eta-1 with no short zero-sum.

    Companion of extract_exp_length_zero_sum; requires that the sequence has
    no zero-sum subsequence of length exp(G) (verified).
    """
    group = seq.group
    exp = group.exponent
    _, _, rest, tlen = _pilot_prologue(seq, pilot, anchor, (eta - 1) + exp - 1)
    if has_zero_sum_of_length(seq, exp):
        raise InvalidInputError("sequence already has a zero-sum of length exp(G)")
    if len(pilot) >= exp - tlen:
        return ExtractionFailure(
            "exp-free-premise",
            "an exp-length zero-sum is constructible although the sequence was exp-zero-sum-free")
    t_part = extract_lex_smallest(group, rest.mult, tlen, 0) if tlen else ()
    work = list(rest.mult)
    for i in t_part:
        work[i] -= 1
    residual = Sequence(group, work)
    if len(residual) < eta - 1:
        return ExtractionFailure(
            "eta-bound", f"residual shorter than eta-1={eta - 1}")
    picked = []
    for i, v in enumerate(residual.mult):
        take = min(v, eta - 1 - len(picked))
        picked.extend([i] * take)
        if len(picked) == eta - 1:
            break
    return Sequence.from_indices(group, picked)
