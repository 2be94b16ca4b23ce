"""Sequences over a finite abelian group: multisets with monoid algebra.

A sequence is stored as a dense multiplicity vector indexed by element
index, so multiplicity lookups are O(1) and multisets hash cheaply.  Order
of terms never matters.
"""

from __future__ import annotations

import re

from .errors import InvalidInputError
from .groups import Element, Group


class Sequence:
    """Finite multiset over a group, an element of the free abelian monoid."""

    __slots__ = ("group", "mult", "length")

    def __init__(self, group: Group, mult):
        mult = tuple(int(v) for v in mult)
        if len(mult) != group.order:
            raise InvalidInputError(
                f"multiplicity vector of length {len(mult)} for group of order {group.order}"
            )
        if any(v < 0 for v in mult):
            raise InvalidInputError("negative multiplicity")
        self.group = group
        self.mult = mult
        self.length = sum(mult)

    # -- constructors
    @classmethod
    def empty(cls, group: Group) -> "Sequence":
        return cls(group, [0] * group.order)

    @classmethod
    def from_indices(cls, group: Group, indices) -> "Sequence":
        mult = [0] * group.order
        for i in indices:
            mult[i] += 1
        return cls(group, mult)

    @classmethod
    def from_elements(cls, group: Group, elements) -> "Sequence":
        return cls.from_indices(group, [group.element(e).index for e in elements])

    @classmethod
    def from_terms(cls, group: Group, terms) -> "Sequence":
        """Terms are (element-spec, multiplicity) pairs."""
        mult = [0] * group.order
        for spec, v in terms:
            mult[group.element(spec).index] += int(v)
        return cls(group, mult)

    # -- value semantics
    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return (isinstance(other, Sequence) and other.group == self.group
                and other.mult == self.mult)

    def __hash__(self):
        return hash((self.group, self.mult))

    def __repr__(self):
        return f"Sequence({self.group.label()}, {self})"

    def __str__(self):
        if self.length == 0:
            return "1"
        parts = []
        for i, v in enumerate(self.mult):
            if v:
                res = self.group.residues_of(i)
                text = "(" + ",".join(str(r) for r in res) + ")"
                parts.append(text if v == 1 else f"{text}^{v}")
        return " * ".join(parts)

    # -- monoid algebra
    def __mul__(self, other: "Sequence") -> "Sequence":
        self._check_group(other)
        return Sequence(self.group, [a + b for a, b in zip(self.mult, other.mult)])

    def __pow__(self, k: int) -> "Sequence":
        if k < 0:
            raise InvalidInputError("negative sequence power")
        return Sequence(self.group, [v * k for v in self.mult])

    def _check_group(self, other: "Sequence"):
        if not isinstance(other, Sequence) or other.group != self.group:
            raise InvalidInputError("sequences over different groups")

    def multiplicity(self, g) -> int:
        return self.mult[self.group.element(g).index]

    def support(self):
        return [self.group.element(i) for i, v in enumerate(self.mult) if v]

    def support_indices(self):
        return [i for i, v in enumerate(self.mult) if v]

    def terms(self):
        return [(self.group.element(i), v) for i, v in enumerate(self.mult) if v]

    def sum(self) -> Element:
        acc = 0
        group = self.group
        for i, v in enumerate(self.mult):
            if v:
                acc = group.add_index(acc, group.scale_index(v, i))
        return group.element(acc)

    def divides(self, other: "Sequence") -> bool:
        """True when self is a subsequence (divisor) of other."""
        self._check_group(other)
        return all(a <= b for a, b in zip(self.mult, other.mult))

    def quotient(self, divisor: "Sequence") -> "Sequence":
        self._check_group(divisor)
        if not divisor.divides(self):
            raise InvalidInputError("quotient by a non-divisor")
        return Sequence(self.group, [a - b for a, b in zip(self.mult, divisor.mult)])

    def gcd(self, other: "Sequence") -> "Sequence":
        self._check_group(other)
        return Sequence(self.group, [min(a, b) for a, b in zip(self.mult, other.mult)])

    def translate(self, c) -> "Sequence":
        """Multiset {c + g : g in self}."""
        ce = self.group.element(c)
        mult = [0] * self.group.order
        for i, v in enumerate(self.mult):
            if v:
                mult[self.group.add_index(ce.index, i)] += v
        return Sequence(self.group, mult)

    # -- serialization
    def to_json(self) -> dict:
        return {
            "group": list(self.group.invariant_factors),
            "terms": [[list(self.group.residues_of(i)), v]
                      for i, v in enumerate(self.mult) if v],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Sequence":
        group = Group(tuple(payload["group"]))
        return cls.from_terms(group, [(res, v) for res, v in payload["terms"]])

    _TERM_RE = re.compile(r"^\(([-0-9,\s]*)\)(?:\^(\d+))?$")

    @classmethod
    def parse(cls, group: Group, text: str) -> "Sequence":
        """Inverse of str(): "(0,1)^3 * (1,2)"; "1" is the empty sequence."""
        text = text.strip()
        if text == "1":
            return cls.empty(group)
        terms = []
        for chunk in text.split("*"):
            chunk = chunk.strip()
            m = cls._TERM_RE.match(chunk)
            if not m:
                raise InvalidInputError(f"cannot parse sequence term {chunk!r}")
            res = [int(x) for x in m.group(1).split(",")] if m.group(1).strip() else []
            v = int(m.group(2)) if m.group(2) else 1
            terms.append((res, v))
        return cls.from_terms(group, terms)

