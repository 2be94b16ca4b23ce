"""Decision procedures over subsequence sums.

The workhorse is a bounded-multiplicity subset-sum table, packed into one
int in rows: bit L*|G| + e is set when some sub-multiset of length L sums
to e, for L up to a length bound max_len.  ``reach_table`` returns it,
and row L is ``table >> L*|G|`` masked to |G| bits.  Row 0 holds the
empty sum alone, as every subsum mask of the package holds it, so one
copy of an element h, which makes every length one longer and moves
every sum by h, is ``reach_push``: one ``Group.translate_mask`` of all
rows at once.  The search states of ``search`` push the same way.  Every
detector (non-empty zero-sum, short zero-sum, fixed length zero-sum)
reduces to one AND or one bit test against that table.  On top of it sit
minimal zero-sum enumeration, an exact branch-and-bound count of disjoint
zero-sum subsequences, the quotient-projection partition used by the
inductive method, and the constructive extraction of a zero-sum of length
exp(G) from a long sequence.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CapacityError, InvalidInputError
from .groups import Group, QuotientMap, Subgroup, quotient, record
from .sequences import Sequence

MINIMAL_ENUM_MAX_LEN = 64
# decisions the disjoint-count memo keeps; later ones are not stored
DISJOINT_MEMO_MAX_ENTRIES = 1 << 22


# ---------------------------------------------------------------------------
# Reach table

def reach_push(group: Group, table: int, h: int, keep: int, rows: int) -> int:
    """The table after one more copy of h: each row L of ``table`` also
    lands, translated by h, on row L + 1.  ``keep`` masks every row but
    the top one of the ``rows`` rows, whose lengths would pass the bound."""
    return table | group.translate_mask((table & keep) << group.order, h, 1, rows)


@lru_cache(maxsize=None)
def _zero_column(order: int, max_len: int) -> int:
    """Mask of element 0 in rows 1 .. max_len: the non-empty zero-sums."""
    return sum(1 << (L * order) for L in range(1, max_len + 1))


def _suffix_tables(group: Group, mult, max_len: int, hom=None):
    """The support of ``mult`` and the packed tables of its tails.

    ``tables[k]`` is the table of the sub-multiset on ``support[k:]``, so
    ``tables[0]`` covers the whole multiset.  The sums live in ``group``,
    and with ``hom`` a copy of g adds ``hom[g]``.  Each copy of an element is
    one monotone step, so multiplicities are respected exactly; a copy that
    adds nothing ends its element, since every later copy adds nothing too.
    """
    keep = (1 << (group.order * max_len)) - 1
    rows = max_len + 1
    support = [g for g, v in enumerate(mult) if v]
    table = 1
    tables = [table]
    for g in reversed(support):
        img = hom[g] if hom is not None else g
        for _ in range(mult[g]):
            new = reach_push(group, table, img, keep, rows)
            if new == table:
                break
            table = new
        tables.append(table)
    tables.reverse()
    return support, tables


def _reach_masks(group: Group, mult, max_len: int, hom=None) -> int:
    """Packed reach table of the whole multiset (see the module docstring)."""
    return _suffix_tables(group, mult, max_len, hom)[1][0]


def _bits(mask: int) -> set:
    return {e for e in range(mask.bit_length()) if (mask >> e) & 1}


def reach_table(seq: Sequence, max_len: int) -> int:
    """The packed reach table of seq (see the module docstring), with rows
    0 .. max_len."""
    if max_len < 0:
        raise InvalidInputError("negative length bound")
    return _reach_masks(seq.group, seq.mult, max_len)


def restricted_sums(seq: Sequence, length: int) -> set:
    """Indices realizable by a non-empty sub-multiset of length <= given."""
    n = seq.group.order
    bound = min(length, len(seq))
    table = reach_table(seq, bound)
    covered = 0
    for L in range(1, bound + 1):
        covered |= table >> (L * n)
    return _bits(covered & ((1 << n) - 1))


def sums_of_length(seq: Sequence, length: int) -> set:
    """Indices realizable by a sub-multiset of exact length."""
    if length > len(seq):
        return set()
    # the top row is the last one in the table
    return _bits(reach_table(seq, length) >> (length * seq.group.order))


# ---------------------------------------------------------------------------
# Zero-sum detectors

def has_nonempty_zero_sum(seq: Sequence) -> bool:
    table = _reach_masks(seq.group, seq.mult, len(seq))
    return bool(table & _zero_column(seq.group.order, len(seq)))


def has_short_zero_sum(seq: Sequence) -> bool:
    bound = min(seq.group.exponent, len(seq))
    table = _reach_masks(seq.group, seq.mult, bound)
    return bool(table & _zero_column(seq.group.order, bound))


def has_zero_sum_of_length(seq: Sequence, k: int) -> bool:
    if k == 0:
        return True
    if k < 0 or k > len(seq):
        return False
    table = _reach_masks(seq.group, seq.mult, k)
    return bool((table >> (k * seq.group.order)) & 1)


# ---------------------------------------------------------------------------
# Witness extraction

def extract_lex_smallest(group: Group, mult, length: int, target: int, hom=None):
    """Lexicographically smallest sorted index tuple of a sub-multiset of
    the given length whose (projected) sum is ``target``, or None; the
    sums live in ``group`` (see ``_suffix_tables``).

    Greedy on the smallest support element with a suffix-feasibility table,
    so the result is deterministic.
    """
    support, suffix = _suffix_tables(group, mult, length, hom)
    if not (suffix[0] >> (length * group.order + target)) & 1:
        return None
    return _lex_smallest_walk(group, mult, support, suffix, length, target, hom)


def _lex_smallest_walk(group: Group, mult, support, suffix, length: int, target: int,
                       hom=None):
    """The greedy walk of ``extract_lex_smallest`` on suffix tables that
    ``_suffix_tables`` built with any ``max_len >= length``."""
    n = group.order
    neg = group.neg_table()
    add = group.add_index
    chosen = []
    remaining = length
    for k, g in enumerate(support):
        if remaining == 0:
            break
        step = neg[hom[g] if hom is not None else g]
        # left[c] is what the later elements must sum to after c copies of g
        left = [target]
        for _ in range(min(mult[g], remaining)):
            left.append(add(left[-1], step))
        for c in range(len(left) - 1, -1, -1):
            if (suffix[k + 1] >> ((remaining - c) * n + left[c])) & 1:
                break
        else:
            return None
        chosen.extend([g] * c)
        target = left[c]
        remaining -= c
    if remaining:
        return None
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Minimal zero-sum subsequences

def _iter_minimal_zero_sums(group: Group, mult, containing=None, max_len=None):
    """Yield index tuples of minimal zero-sum sub-multisets, each once.

    The DFS keeps zero-sum-free prefixes: appending g closes a zero-sum
    exactly when -g is a subsum of the prefix, the empty sum included, so
    that 0 closes one at once.  The closed multiset P*g is minimal
    precisely when the full sum vanishes and sigma(P) is not also the sum
    of a proper sub-multiset of P; that single bit is maintained
    incrementally, making the minimality test O(1).

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
        # sums is an int bitmask over element indices, bit 0 the empty sum
        if max_len is not None and len(path) >= max_len:
            return
        for g in range(start, n):
            if not avail[g]:
                continue
            path.append(g)
            neg = negs[g]
            if (sums >> neg) & 1:
                if neg == sigma and not sigma_proper:
                    yield tuple(path)
            else:
                avail[g] -= 1
                new_sigma = add_row(g)[sigma]
                yield from rec(g, new_sigma, sums | translate(sums, g),
                               sigma_proper or (sums >> new_sigma) & 1)
                avail[g] += 1
            path.pop()

    if containing is None:
        yield from rec(0, 0, 1, False)
        return
    g = containing
    if not avail[g]:
        return
    if g == 0:
        yield (0,)
        return
    avail[g] -= 1
    path.append(g)
    yield from rec(0, g, 1 | 1 << g, False)


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

@record(frozen=True)
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
    decisions.  The two are not passed together: a cached success holds
    no family.
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
                if hit is not None:
                    return hit
            # a zero-sum short enough to pay for `needed` parts must exist
            limit = total_len // needed
            if not _reach_masks(group, work, limit) & _zero_column(group.order, limit):
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


def lifts_disjoint_count(group: Group, mult, g: int, need: int, memo=None) -> bool:
    """Whether a multiset that just gained a copy of g reaches ``need``
    disjoint zero-sums, given the maximum without that copy is need-1.

    Any family of ``need`` disjoint parts must consume every copy of g
    including the new one, so forcing the first part through g is
    exhaustive.
    """
    return _find_disjoint(group, mult, need, must_use=g, memo=memo)


# ---------------------------------------------------------------------------
# Inductive-method partition

@record(frozen=True)
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
        zero = _reach_masks(target, work, cap, hom) & _zero_column(target.order, cap)
        if not zero:
            break
        shortest = ((zero & -zero).bit_length() - 1) // target.order
        picked = extract_lex_smallest(target, work, shortest, 0, hom)
        blocks.append(Sequence.from_indices(group, picked))
        for i in picked:
            work[i] -= 1
        remaining -= shortest
    return InductivePartition(tuple(blocks), Sequence(group, work), qm)


# ---------------------------------------------------------------------------
# Constructive extraction of an exp(G)-length zero-sum

@record(frozen=True)
class ExtractionFailure:
    """A proof step whose guarantee failed; signals a wrong caller premise."""

    step: str
    detail: str


def _pilot_prologue(seq: Sequence, pilot: Sequence, anchor, required_len: int):
    """Check the premises of the two extractions and shift by -anchor.

    Returns the anchor a, the multiplicity lists of the shifted pilot and
    of the rest (the shifted sequence without the shifted pilot), and the
    lexicographically smallest zero-sum subsequence of the rest among those
    of the greatest length at most exp(G) (empty when there is none).
    """
    group = seq.group
    if pilot.group != group or seq.group != group:
        raise InvalidInputError("sequence and pilot over different groups")
    if not pilot.divides(seq):
        raise InvalidInputError("pilot subsequence does not divide the sequence")
    a = group.element(anchor)
    n = group.order
    table = _reach_masks(group, pilot.mult, len(pilot))
    jh = 0
    for j in range(1, len(pilot) + 1):
        jh = group.add_index(jh, a.index)
        if not (table >> (j * n + jh)) & 1:
            raise InvalidInputError(
                f"j*h is not a length-j subsum of the pilot for j={j}")
    if len(pilot) < (group.exponent - 1) // 2:
        raise InvalidInputError(
            f"pilot length {len(pilot)} below floor((exp-1)/2) = {(group.exponent - 1) // 2}")
    if len(seq) < required_len:
        raise InvalidInputError(
            f"sequence length {len(seq)} below required {required_len}")
    # translating by -a permutes the multiplicity list
    neg_a = group.neg_index(a.index)
    shifted_pilot = [0] * group.order
    rest = [0] * group.order
    for g, v in enumerate(seq.mult):
        if v:
            h = group.add_index(g, neg_a)
            shifted_pilot[h] = pilot.mult[g]
            rest[h] = v - pilot.mult[g]
    cap = min(group.exponent, len(seq) - len(pilot))
    support, tables = _suffix_tables(group, rest, cap)
    # the longest zero-sum length, 0 for the empty one
    tlen = ((tables[0] & _zero_column(n, cap) | 1).bit_length() - 1) // n
    return a, shifted_pilot, rest, _lex_smallest_walk(group, rest, support, tables, tlen, 0)


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
    a, shifted_pilot, rest, t_part = _pilot_prologue(seq, pilot, anchor, eta + exp - 1)
    tlen = len(t_part)
    if len(pilot) >= exp - tlen:
        c_part = extract_lex_smallest(group, shifted_pilot, exp - tlen, 0)
        if c_part is None:
            return ExtractionFailure(
                "pilot-zero-sum",
                f"pilot has no zero-sum piece of length {exp - tlen} after shifting")
        result = Sequence.from_indices(group, [group.add_index(i, a.index)
                                               for i in t_part + c_part])
        if not result.divides(seq) or result.sum().index != 0 or len(result) != exp:
            raise InvalidInputError("internal extraction produced an invalid witness")
        return result
    return ExtractionFailure(
        "eta-bound",
        f"residual of length {sum(rest) - tlen} >= eta={eta} has no short zero-sum; "
        "the supplied eta exceeds the true value")


def extract_short_zero_sum_free(seq: Sequence, pilot: Sequence, anchor, eta: int):
    """From a sequence without exp-length zero-sums, produce a subsequence
    of the anchor-shifted sequence of length eta-1 with no short zero-sum.

    Companion of extract_exp_length_zero_sum; requires that the sequence has
    no zero-sum subsequence of length exp(G) (verified).
    """
    group = seq.group
    exp = group.exponent
    _, _, residual, t_part = _pilot_prologue(seq, pilot, anchor, (eta - 1) + exp - 1)
    if has_zero_sum_of_length(seq, exp):
        raise InvalidInputError("sequence already has a zero-sum of length exp(G)")
    if len(pilot) >= exp - len(t_part):
        return ExtractionFailure(
            "exp-free-premise",
            "an exp-length zero-sum is constructible although the sequence was exp-zero-sum-free")
    for i in t_part:
        residual[i] -= 1
    if sum(residual) < eta - 1:
        return ExtractionFailure(
            "eta-bound", f"residual shorter than eta-1={eta - 1}")
    # the first eta-1 terms of the residual in index order
    picked = [i for i, v in enumerate(residual) for _ in range(v)]
    return Sequence.from_indices(group, picked[:max(eta - 1, 0)])
