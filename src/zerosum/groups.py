"""Exact arithmetic for finite abelian groups in invariant-factor form.

A group is presented by its invariant factors n_1 | n_2 | ... | n_r (each
>= 2; the empty list is the trivial group).  Elements are identified with a
mixed-radix index in [0, |G|-1]: the residue vector (a_1, ..., a_r) with
a_i in [0, n_i - 1] encodes as a_1 + n_1*(a_2 + n_2*(a_3 + ...)).

Everything here is immutable after construction and safe to share between
workers; the only mutable state is the lazily filled caches that
``Group.__init__`` declares, which hold values determined by the group.
"""

from __future__ import annotations

import re
from math import gcd
from operator import attrgetter

from .errors import CapacityError, InvalidInputError

SUBGROUP_ENUM_MAX_ORDER = 1 << 12
AUTOMORPHISM_MAX_ORDER = 1 << 6


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


# ---------------------------------------------------------------------------
# Records

class factory:
    """Default of a record field built afresh for each instance, as in
    ``stats: SearchStats = factory(SearchStats)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


# sets a field of a frozen record too; unlike writing to ``__dict__`` it
# keeps the instance's attribute reads on the fast path
_set_field = object.__setattr__


def _refuse(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def record(cls=None, *, frozen=False):
    """Class decorator: a record over the annotated fields of ``cls``.

    It adds what ``dataclasses.dataclass`` would: a constructor taking the
    fields by position or keyword, with the class-level values as
    defaults; equality between records of the same class with equal
    fields; a repr unless the class writes its own; and, when ``frozen``,
    hashing by the fields and refusal of assignment.  It generates no code,
    which keeps the import of the package short.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    fields = frozenset(names)
    static = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fresh = {name: d.make for name, d in static.items() if isinstance(d, factory)}
    for name in fresh:
        del static[name]
        delattr(cls, name)
    key = attrgetter(*names)

    def bind(args, kwargs):
        """The field values, in order, of a call that names some or leaves
        some to their defaults."""
        values = dict(zip(names, args), **kwargs)
        repeated = len(values) != len(args) + len(kwargs)
        for name, make in fresh.items():
            if name not in values:
                values[name] = make()
        values = {**static, **values}
        if repeated or values.keys() != fields:
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}; got "
                            f"{len(args)} positional and the keywords {', '.join(kwargs)}")
        return [values[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _set_field(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({shown})"

    cls._fields = names
    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def replace(obj, **changes):
    """Copy of the record ``obj`` with the fields named in ``changes`` replaced."""
    values = {name: getattr(obj, name) for name in obj._fields}
    values.update(changes)
    return type(obj)(**values)


def _unit_generators(m: int) -> list:
    """Greedy generating set of the unit group mod m (empty for m <= 2)."""
    gens, span = [], {1}
    for u in range(2, m):
        if gcd(u, m) == 1 and u not in span:
            gens.append(u)
            frontier = list(span)
            while frontier:
                x = frontier.pop()
                for v in gens:
                    y = x * v % m
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
    return gens


# ---------------------------------------------------------------------------
# Smith normal form (integer matrices, small sizes)

def smith_diagonal(rows):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns the list of diagonal entries d_1 | d_2 | ... (non-negative,
    each dividing the next) and the unimodular matrix U such that U*M*V
    equals the diagonal matrix for some unimodular V (V is not tracked; it
    never matters for quotient maps).
    """
    a = [list(row) for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]

    def row_sub(i, j, q):
        if q:
            ai, aj = a[i], a[j]
            for c in range(nc):
                ai[c] -= q * aj[c]
            ui, uj = u[i], u[j]
            for c in range(nr):
                ui[c] -= q * uj[c]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]

    def negate_row(i):
        a[i] = [-v for v in a[i]]
        u[i] = [-v for v in u[i]]

    t = 0
    while t < nr and t < nc:
        # move a nonzero entry of minimal magnitude to the pivot
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = a[i][j]
                if v and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)

        while True:
            # clear the pivot column; a nonzero remainder becomes the new,
            # strictly smaller pivot
            restart = False
            for i in range(t + 1, nr):
                v = a[i][t]
                if v:
                    row_sub(i, t, v // a[t][t])
                    if a[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, nc):
                v = a[t][j]
                if v:
                    q = v // a[t][t]
                    for i in range(nr):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)
        t += 1

    return [a[i][i] for i in range(min(nr, nc))], u


def canonical_invariant_factors(factors) -> tuple:
    """Canonical divisor chain of a direct sum of cyclic groups:
    C_a + C_b = C_gcd(a,b) + C_lcm(a,b), applied to every pair i < j in
    turn, leaves f_i dividing every later factor."""
    fs = [int(f) for f in factors]
    for f in fs:
        if f <= 0:
            raise InvalidInputError(f"cyclic factor must be positive, got {f}")
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            fs[i], fs[j] = gcd(fs[i], fs[j]), _lcm(fs[i], fs[j])
    return tuple(f for f in fs if f > 1)


# ---------------------------------------------------------------------------
# Groups and elements

class Group:
    """Finite abelian group with canonical invariant factors."""

    def __init__(self, factors=()):
        factors = tuple(int(f) for f in factors)
        for i, f in enumerate(factors):
            if f < 2:
                raise InvalidInputError(f"invariant factor {f} < 2")
            if i and factors[i] % factors[i - 1]:
                raise InvalidInputError(
                    f"{factors} is not a divisor chain; use make_group() to canonicalize"
                )
        self.invariant_factors = factors
        self.rank = len(factors)
        order = 1
        strides = []
        for f in factors:
            strides.append(order)
            order *= f
        self.order = order
        self.exponent = factors[-1] if factors else 1
        self._strides = tuple(strides)
        self._add_rows = {}
        self._mask_shifts = {}
        self._neg_table = None
        self._automorphisms = None
        self._stabiliser_chain = None       # filled by search.stabiliser_chain
        self._subgroups = None              # filled by enumerate_subgroups

    # -- identity / value semantics
    def __eq__(self, other):
        return isinstance(other, Group) and self.invariant_factors == other.invariant_factors

    def __hash__(self):
        return hash(self.invariant_factors)

    def __repr__(self):
        return f"Group({list(self.invariant_factors)})"

    def label(self) -> str:
        if not self.invariant_factors:
            return "C1"
        return "x".join(f"C{f}" for f in self.invariant_factors)

    # -- index <-> residues
    def residues_of(self, index: int) -> tuple:
        res = []
        for f in self.invariant_factors:
            index, r = divmod(index, f)
            res.append(r)
        return tuple(res)

    def index_of(self, residues) -> int:
        res = tuple(residues)
        if len(res) != self.rank:
            raise InvalidInputError(
                f"residue vector of length {len(res)} for rank-{self.rank} group"
            )
        idx = 0
        for r, f, s in zip(res, self.invariant_factors, self._strides):
            idx += (int(r) % f) * s
        return idx

    def element(self, spec) -> "Element":
        """Element from an index, a residue vector, or another Element."""
        if isinstance(spec, Element):
            if spec.group != self:
                raise InvalidInputError("element belongs to a different group")
            return spec
        if isinstance(spec, int):
            if not 0 <= spec < self.order:
                raise InvalidInputError(f"element index {spec} out of range")
            return Element(self, spec, self.residues_of(spec))
        idx = self.index_of(spec)
        return Element(self, idx, self.residues_of(idx))

    def zero(self) -> "Element":
        return self.element(0)

    def elements(self):
        return [self.element(i) for i in range(self.order)]

    # -- raw index arithmetic (hot paths)
    def add_index(self, a: int, b: int) -> int:
        idx = 0
        for f, s in zip(self.invariant_factors, self._strides):
            idx += ((a // s + b // s) % f) * s
        return idx

    def neg_index(self, a: int) -> int:
        idx = 0
        for f, s in zip(self.invariant_factors, self._strides):
            idx += ((-(a // s)) % f) * s
        return idx

    def scale_index(self, k: int, a: int) -> int:
        idx = 0
        for f, s in zip(self.invariant_factors, self._strides):
            idx += ((k * (a // s)) % f) * s
        return idx

    def order_of_index(self, a: int) -> int:
        o = 1
        for f, s in zip(self.invariant_factors, self._strides):
            r = (a // s) % f
            o = _lcm(o, f // gcd(r, f))
        return o

    def add_row(self, g: int):
        """Cached translation row: add_row(g)[s] == g + s."""
        row = self._add_rows.get(g)
        if row is None:
            row = [self.add_index(g, s) for s in range(self.order)]
            self._add_rows[g] = row
        return row

    def mask_shifts(self, g: int, width: int = 1, rows: int = 1) -> tuple:
        """Cached masked shifts that translate a slot bitmask by g.

        The mask holds ``rows`` rows of one slot of ``width`` bits per
        element, slot x of row r at bits (r*|G| + x)*width onwards; width
        and rows 1 is an element bitmask.  One ``(lo, up, hi, down)`` per
        nonzero coordinate c of g, with stride s and factor f: ``lo``
        holds the slots whose coordinate is below f - c, which move up by
        c*s slots, and ``hi`` the rest, which wrap down by (f - c)*s
        slots.  f*s divides |G|, so the masks, of period f*s slots, repeat
        across the rows and no slot leaves its row.  Applying them in turn
        is ``translate_mask``.
        """
        key = g if width == rows == 1 else (g, width, rows)
        shifts = self._mask_shifts.get(key)
        if shifts is None:
            full = (1 << (self.order * width * rows)) - 1
            shifts = []
            for f, s in zip(self.invariant_factors, self._strides):
                c = (g // s) % f
                if c:
                    s *= width
                    # (f - c)*s low bits in every period of f*s bits
                    lo = ((1 << ((f - c) * s)) - 1) * (full // ((1 << (f * s)) - 1))
                    shifts.append((lo, c * s, full ^ lo, (f - c) * s))
            shifts = tuple(shifts)
            self._mask_shifts[key] = shifts
        return shifts

    def translate_mask(self, mask: int, g: int, width: int = 1, rows: int = 1) -> int:
        """The slot bitmask with slot x + g of each row holding slot x of
        that row of ``mask``.

        With width and rows 1 this is the element bitmask {x + g : bit x
        of mask set}.  Every subsum update of the package goes through
        here.
        """
        shifts = self._mask_shifts.get(g if width == rows == 1 else (g, width, rows))
        if shifts is None:
            shifts = self.mask_shifts(g, width, rows)
        for lo, up, hi, down in shifts:
            mask = ((mask & lo) << up) | ((mask & hi) >> down)
        return mask

    def neg_table(self):
        if self._neg_table is None:
            self._neg_table = [self.neg_index(a) for a in range(self.order)]
        return self._neg_table

    def automorphism_generators(self):
        """Index-permutation tuples of a generating set of Aut(G).

        On the invariant-factor basis e_1..e_r, of orders n_1 | ... | n_r,
        each generator adds c times coordinate i to coordinate j:
        - j == i: the scaling e_i -> u*e_i, c = u - 1, for u in a
          generating set of the units mod n_i;
        - j = i +- 1: the transvection e_i -> e_i + c*e_j with
          c = n_j / gcd(n_i, n_j), the least c > 0 for which c*e_j has
          order dividing n_i; its powers give every other such c.
        Scalings and transvections between all pairs i != j generate
        Aut(G) (Hillar and Rhea, "Automorphisms of finite abelian groups",
        Amer. Math. Monthly 114 (2007)).  Neighbours suffice: the
        commutator of e_i -> e_i + a*e_j and e_j -> e_j + b*e_k is
        e_i -> e_i - ab*e_k, and along a divisor chain the least c of
        (i, j) times that of (j, k) is the least c of (i, k), both for
        i < j < k and for i > j > k.  So 2(r-1) transvections replace
        r(r-1).  Each permutation is checked to be a bijection.
        """
        fs = self.invariant_factors
        moves = [(i, i, u - 1) for i, f in enumerate(fs) for u in _unit_generators(f)]
        moves += [(i, j, fs[j] // gcd(fs[i], fs[j]))
                  for i in range(self.rank) for j in (i - 1, i + 1) if 0 <= j < self.rank]
        residues = [self.residues_of(x) for x in range(self.order)]
        perms = []
        for i, j, c in moves:
            f, s = fs[j], self._strides[j]
            perm = tuple(x + ((r[j] + c * r[i]) % f - r[j]) * s
                         for x, r in enumerate(residues))
            if len(set(perm)) != self.order:
                raise RuntimeError(
                    f"generator ({i}, {j}, {c}) of Aut({self.label()}) is not a bijection")
            perms.append(perm)
        return perms

    def automorphism_order(self) -> int:
        """|Aut(G)|, the product of |Aut(G_p)| over the Sylow subgroups.

        For G_p = C_{p^e_1} + ... + C_{p^e_k} with e_1 <= ... <= e_k,
        Hillar and Rhea (Theorem 4.1) give |Aut(G_p)| as the product over
        j = 1..k of (p^d_j - p^(j-1)) * p^(e_j (k - d_j)) *
        p^((e_j - 1)(k - c_j + 1)), where c_j and d_j are the least and
        greatest positions l with e_l = e_j.
        """
        total, rest, p = 1, self.exponent, 2
        while rest > 1:
            if rest % p:
                p += 1
                continue
            while rest % p == 0:
                rest //= p
            es = []
            for f in self.invariant_factors:
                e = 0
                while f % p == 0:
                    f //= p
                    e += 1
                if e:
                    es.append(e)
            k = len(es)
            for j, e in enumerate(es, 1):
                c = es.index(e) + 1
                d = k - es[::-1].index(e)
                total *= (p ** d - p ** (j - 1)) * p ** (e * (k - d) + (e - 1) * (k - c + 1))
        return total

    def automorphisms(self):
        """All automorphisms as index-permutation tuples (brute force).

        Chooses images of admissible order for the basis e_1..e_r in turn,
        and drops a partial choice as soon as the map stops being injective
        on the span of e_1..e_i; the maps that survive every basis element
        are the bijections.  Capped at order 2**6.  Searches no longer call
        it: orbit pruning closes orbits under ``automorphism_generators``,
        and this list is the reference that tests compare those orbits
        against.
        """
        if self._automorphisms is None:
            if self.order > AUTOMORPHISM_MAX_ORDER:
                raise CapacityError(
                    f"automorphism enumeration capped at order {AUTOMORPHISM_MAX_ORDER}"
                )
            perms = []

            def build(level, images):
                # images[x] is the image of x for every x in the span of
                # e_1..e_level, whose indices are 0 .. strides[level] - 1
                if level == self.rank:
                    perms.append(tuple(images))
                    return
                f = self.invariant_factors[level]
                for img in range(self.order):
                    if self.scale_index(f, img):
                        continue
                    rows = [self.add_row(self.scale_index(c, img)) for c in range(f)]
                    extended = [row[y] for row in rows for y in images]
                    if len(set(extended)) == len(extended):
                        build(level + 1, extended)

            build(0, [0])
            self._automorphisms = perms
        return self._automorphisms


@record(frozen=True)
class Element:
    """Group element: mixed-radix index plus residue vector."""

    group: Group
    index: int
    residues: tuple

    def __add__(self, other: "Element") -> "Element":
        if other.group != self.group:
            raise InvalidInputError("elements from different groups")
        return self.group.element(self.group.add_index(self.index, other.index))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return self.group.element(self.group.neg_index(self.index))

    def __rmul__(self, k: int) -> "Element":
        return self.group.element(self.group.scale_index(int(k), self.index))

    @property
    def order(self) -> int:
        return self.group.order_of_index(self.index)

    def __repr__(self):
        return f"Element{self.residues}"


def make_group(factors) -> Group:
    """Group from any list of positive cyclic factors, canonicalized."""
    return Group(canonical_invariant_factors(factors))


_GROUP_LABEL_RE = re.compile(r"^C(\d+)$", re.IGNORECASE)


def parse_group(spec) -> Group:
    """Group from "C2xC4", "2,4", or a factor list."""
    if isinstance(spec, Group):
        return spec
    if isinstance(spec, (list, tuple)):
        return make_group(spec)
    text = str(spec).strip()
    if not text:
        raise InvalidInputError("empty group spec")
    parts = re.split(r"[x*,]", text.replace(" ", ""))
    factors = []
    for part in parts:
        if not part:
            continue
        m = _GROUP_LABEL_RE.match(part)
        if m:
            factors.append(int(m.group(1)))
        elif part.isdigit():
            factors.append(int(part))
        else:
            raise InvalidInputError(f"cannot parse group spec {spec!r}")
    return make_group(factors)


# ---------------------------------------------------------------------------
# Subgroups

@record(frozen=True)
class Subgroup:
    """Subgroup given by a membership bitmask over element indices."""

    parent: Group
    mask: int
    generators: tuple

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def contains_index(self, idx: int) -> bool:
        return bool((self.mask >> idx) & 1)

    def contains(self, g: Element) -> bool:
        return self.contains_index(self.parent.element(g).index)

    def member_indices(self):
        return [i for i in range(self.parent.order) if (self.mask >> i) & 1]

    def elements(self):
        return [self.parent.element(i) for i in self.member_indices()]

    @property
    def is_proper(self) -> bool:
        return self.order < self.parent.order

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.label()})"


def _closure_with(group: Group, mask: int, g: int) -> int:
    """Membership mask of the subgroup generated by the subgroup ``mask``
    and g: the union of its translates by the multiples of g."""
    while True:
        grown = mask | group.translate_mask(mask, g)
        if grown == mask:
            return mask
        mask = grown


def subgroup_generated_by(group: Group, gens) -> Subgroup:
    """Smallest subgroup containing the given elements."""
    mask = 1
    gen_elems = []
    for g in gens:
        e = group.element(g)
        gen_elems.append(e)
        mask = _closure_with(group, mask, e.index)
    return Subgroup(group, mask, tuple(gen_elems))


def enumerate_subgroups(group: Group, proper_only: bool = False):
    """Every subgroup exactly once, by BFS over generator extensions.

    Results are sorted by (order, membership mask) for determinism.  The
    sorted tuple is cached on the group; each call returns a fresh list.
    """
    if group.order > SUBGROUP_ENUM_MAX_ORDER:
        raise CapacityError(
            f"subgroup enumeration capped at order {SUBGROUP_ENUM_MAX_ORDER}, got {group.order}"
        )
    if group._subgroups is None:
        group._subgroups = _all_subgroups(group)
    if proper_only:
        return [s for s in group._subgroups if s.is_proper]
    return list(group._subgroups)


def _all_subgroups(group: Group) -> tuple:
    """Every subgroup, sorted by (order, membership mask)."""
    trivial = subgroup_generated_by(group, [])
    seen = {trivial.mask: trivial}
    queue = [trivial]
    while queue:
        h = queue.pop(0)
        for g in range(group.order):
            if h.contains_index(g):
                continue
            mask = _closure_with(group, h.mask, g)
            if mask not in seen:
                sub = Subgroup(group, mask, h.generators + (group.element(g),))
                seen[mask] = sub
                queue.append(sub)
    return tuple(sorted(seen.values(), key=lambda s: (s.order, s.mask)))


# ---------------------------------------------------------------------------
# Quotients

@record(frozen=True)
class QuotientMap:
    """Surjective homomorphism G -> G/H with kernel exactly H."""

    source: Group
    kernel: Subgroup
    target: Group
    table: tuple


def quotient(group: Group, sub: Subgroup) -> QuotientMap:
    """Quotient map with target in canonical invariant-factor form."""
    if sub.parent != group:
        raise InvalidInputError("subgroup belongs to a different group")
    r = group.rank
    if r == 0:
        return QuotientMap(group, sub, Group(()), (0,))
    cols = [[group.invariant_factors[i] if j == i else 0 for j in range(r)]
            for i in range(r)]
    gen_cols = [list(e.residues) for e in sub.generators]
    mat = [[0] * (r + len(gen_cols)) for _ in range(r)]
    for j in range(r):
        for i in range(r):
            mat[i][j] = cols[j][i]
    for j, col in enumerate(gen_cols):
        for i in range(r):
            mat[i][r + j] = col[i]
    diag, u = smith_diagonal(mat)
    keep = [(pos, d) for pos, d in enumerate(diag) if d > 1]
    target = Group(tuple(d for _, d in keep))
    table = []
    for a in range(group.order):
        x = group.residues_of(a)
        tres = []
        for pos, d in keep:
            y = sum(u[pos][i] * x[i] for i in range(r))
            tres.append(y % d)
        table.append(target.index_of(tres))
    qm = QuotientMap(group, sub, target, tuple(table))
    kernel_mask = 0
    for a in range(group.order):
        if table[a] == 0:
            kernel_mask |= 1 << a
    if kernel_mask != sub.mask:
        raise InvalidInputError("kernel of computed quotient differs from the subgroup")
    return qm


def _rank_three_params(group: Group):
    """(m, n) with group = C_2 + C_2m + C_2mn, or None."""
    f = group.invariant_factors
    if len(f) == 3 and f[0] == 2:
        return f[1] // 2, f[2] // f[1]
    return None


def find_inductive_subgroup(group: Group) -> Subgroup:
    """Subgroup H of G = C_2 + C_2m + C_2mn with H = C_m + C_mn and
    G/H = C_2^3; refuses any other G.

    For the canonical presentation this is the subgroup generated by twice
    each of the last two canonical generators.
    """
    if _rank_three_params(group) is None:
        raise InvalidInputError(f"group {group.label()} is not C2 x C2m x C2mn")
    e2 = group.element([0, 1, 0])
    e3 = group.element([0, 0, 1])
    return subgroup_generated_by(group, [2 * e2, 2 * e3])
