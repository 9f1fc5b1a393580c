"""Downward-closed sets and ideals of a finite quasi-order.

Ideals are the directed downward-closed sets; on a finite carrier each one is
the down-closure of a single equivalence class, which the enumeration exploits
and the test suite verifies against the definition.  The pointwise product
turns the downsets of a multiplicative quasi-order into a monoid with the
down-closure of the unit as neutral element.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import EmptyCarrierError
from .qo import (
    FiniteQO,
    _bits,
    _element_masks,
    all_downsets_of_poset,
    class_unions,
    down_closure,
    equiv_classes,
    is_directed,
    quotient,
)

if TYPE_CHECKING:  # pragma: no cover
    from .monoid import MonoidalQO


class Downset:
    """A nonempty downward-closed subset of a finite quasi-order.

    Stored extensionally; the constructor rejects anything empty or not
    closed downward.  Equality is extensional over the same carrier.
    """

    __slots__ = ("base", "members")

    def __init__(self, base: FiniteQO, members: Iterable[int]) -> None:
        members = frozenset(members)
        if not members:
            raise ValueError("downsets are nonempty by convention")
        if min(members) < 0:
            raise ValueError("element indices are nonnegative")
        own, down, _ = _element_masks(base)
        mask = closed = 0
        for i in members:
            mask |= own[i]
            closed |= down[i]
        if closed != mask:
            missing = _bits(closed & ~mask)
            raise ValueError(
                f"not downward closed, missing {[base.elements[i] for i in missing]}"
            )
        self.base = base
        self.members = members

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.base.elements[i] for i in self.sorted_members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __le__(self, other: "Downset") -> bool:
        if self.base is not other.base:
            raise ValueError("downsets over different carriers")
        return self.members <= other.members

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Downset)
            and self.base is other.base
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.base), self.members))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({{{', '.join(self.labels)}}})"


class Ideal(Downset):
    'A directed downset.'

    def __init__(self, base: FiniteQO, members: Iterable[int]) -> None:
        super().__init__(base, members)
        if not is_directed(base, self.members):
            raise ValueError("not directed")


def principal(q: FiniteQO, i: int) -> Ideal:
    'The down-closure of a single element.'
    return Ideal(q, down_closure(q, [i]))


def enumerate_downsets(q: FiniteQO, max_count: int | None = 100_000) -> list[Downset]:
    """All nonempty downsets, canonically ordered by (size, member tuple).

    Downsets are unions of equivalence classes, so the enumeration runs on the
    quotient and expands back.  max_count bounds how many are returned.
    """
    if q.n == 0:
        raise EmptyCarrierError("no downsets over the empty carrier")
    qm = quotient(q)
    bound = None if max_count is None else max_count + 1  # the empty set is dropped
    rows = class_unions(qm, all_downsets_of_poset(qm.classes.leq, bound))
    return [Downset(q, members) for members in rows if members]


def enumerate_ideals(q: FiniteQO) -> list[Ideal]:
    """All ideals, canonically ordered by (size, member tuple).

    Principal down-closures, one per equivalence class; on a finite carrier
    every directed set contains an element above all of it, so nothing else
    can be directed and downward closed.  Distinct classes give distinct
    ideals: elements with the same down-closure lie below each other.
    """
    if q.n == 0:
        raise EmptyCarrierError("no ideals over the empty carrier")
    out = [Ideal(q, down_closure(q, [members[0]])) for members in equiv_classes(q)]
    out.sort(key=lambda d: (len(d.members), d.sorted_members))
    return out


def ideal_decomposition(d: Downset) -> list[Ideal]:
    """Write a downset as the minimal union of pairwise incomparable ideals.

    Takes one representative per maximal equivalence class of the downset and
    returns its down-closure; distinct maximal classes give ideals neither of
    which contains the other.
    """
    q = d.base
    maximal: list[int] = []
    for i in sorted(d.members):
        if any(q.le(i, j) and not q.le(j, i) for j in d.members):
            continue
        if any(q.equiv(i, j) for j in maximal):
            continue
        maximal.append(i)
    parts = [Ideal(q, down_closure(q, [i])) for i in maximal]
    parts.sort(key=lambda p: (len(p.members), p.sorted_members))
    return parts


def downset_product(x: Downset, y: Downset, m: "MonoidalQO") -> Downset:
    """Pointwise product: everything below some product of a member of x with
    a member of y.  Ideal inputs give an ideal output (the product of directed
    downsets is directed whenever the multiplication satisfies its axioms)."""
    if x.base is not m.order or y.base is not m.order:
        raise ValueError("downsets must live over the monoid's carrier")
    products = {int(m.mult[a, b]) for a in x.members for b in y.members}
    members = down_closure(m.order, products)
    if isinstance(x, Ideal) and isinstance(y, Ideal):
        return Ideal(m.order, members)
    return Downset(m.order, members)


def downset_union(parts: Iterable[Downset]) -> Downset:
    parts = list(parts)
    if not parts:
        raise ValueError("union of no downsets")
    base = parts[0].base
    members = frozenset().union(*(p.members for p in parts))
    return Downset(base, members)


def unit_downset(m: "MonoidalQO") -> Ideal:
    'The down-closure of the unit, which is its equivalence class.'
    return principal(m.order, m.unit)


def product_decomposition(
    c: Downset, a: Downset, b: Downset, m: "MonoidalQO"
) -> list[tuple[Downset, Downset]]:
    """Split c <= a*b into finitely many boxed products.

    For each a' in a, collect the fiber {b' in b : a'b' in c}; for each
    distinct nonempty fiber F, pair it with {a' in a : a'F <= c}.  When the
    multiplication admits witness splitting, the union of the boxed products
    recovers c exactly, which is what the tests assert.
    """
    prod = downset_product(a, b, m)
    if not c.members <= prod.members:
        raise ValueError("c must be contained in the product of a and b")
    fibers: dict[frozenset[int], None] = {}
    for aa in sorted(a.members):
        fiber = frozenset(bb for bb in b.members if int(m.mult[aa, bb]) in c.members)
        if fiber:
            fibers.setdefault(fiber, None)
    out: list[tuple[Downset, Downset]] = []
    for fiber in fibers:
        left = frozenset(
            aa
            for aa in a.members
            if all(int(m.mult[aa, bb]) in c.members for bb in fiber)
        )
        out.append((Downset(m.order, left), Downset(m.order, fiber)))
    return out
