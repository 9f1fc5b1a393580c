"""Downward-closed sets and ideals of a finite quasi-order, each one int mask
over its carrier (bit i for element i) that members are decoded from on demand.

Ideals are the directed downward-closed sets; on a finite carrier each one is
the down-closure of a single equivalence class, which the enumeration exploits
and the test suite verifies against the definition.  The pointwise product
turns the downsets of a multiplicative quasi-order into a monoid with the
down-closure of the unit as neutral element; it reads the down-masks of
products from rows held on the monoid.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import EmptyCarrierError
from .qo import (
    FiniteQO,
    _as_index,
    _bits,
    _checked_indices,
    _closure_tables,
    _directed_mask,
    _down_mask,
    _element_masks,
    _union_mask,
    all_downsets_of_poset,
    equiv_classes,
)

if TYPE_CHECKING:  # pragma: no cover
    from .monoid import MonoidalQO


class Downset:
    """A nonempty downward-closed subset of a finite quasi-order.

    Stored as one int mask over the carrier.  Both constructors, from member
    indices and from a mask, reject anything empty, outside the carrier or
    not closed downward.  Equality is extensional over the same carrier.
    """

    __slots__ = ("base", "mask")

    def __init__(self, base: FiniteQO, members: Iterable[int]) -> None:
        self._init(base, sum(1 << i for i in set(_checked_indices(base, members))))

    @classmethod
    def from_mask(cls, base: FiniteQO, mask: int) -> "Downset":
        'The downset whose members are the set bits of mask.'
        if mask < 0 or mask >> base.n:
            raise ValueError(f"mask has bits outside range({base.n})")
        d = cls.__new__(cls)
        d._init(base, mask)
        return d

    def _init(self, base: FiniteQO, mask: int) -> None:
        if not mask:
            raise ValueError("downsets are nonempty by convention")
        closed = _down_mask(base, mask)
        if closed != mask:
            missing = _bits(closed & ~mask)
            raise ValueError(
                f"not downward closed, missing {[base.elements[i] for i in missing]}"
            )
        self.base = base
        self.mask = mask

    @property
    def members(self) -> frozenset[int]:
        return frozenset(_bits(self.mask))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.base.elements[i] for i in _bits(self.mask))

    def __contains__(self, i: int) -> bool:
        i = _as_index(i)
        return i in range(self.base.n) and bool(self.mask >> i & 1)

    def __le__(self, other: "Downset") -> bool:
        if self.base is not other.base:
            raise ValueError("downsets over different carriers")
        return not self.mask & ~other.mask

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Downset)
            and self.base is other.base
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.base), self.mask))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({{{', '.join(self.labels)}}})"


class Ideal(Downset):
    'A directed downset.'

    def _init(self, base: FiniteQO, mask: int) -> None:
        super()._init(base, mask)
        if not _directed_mask(_element_masks(base)[0], mask):
            raise ValueError("not directed")


# Byte b's bits reversed, then complemented.  Through this table the bytes of
# a mask, byte 0 most significant, read smaller for the set that holds the
# least element where two sets differ.
_MEMBER_KEY = np.array([255 - int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)


def _limbs(values: np.ndarray, k: int) -> np.ndarray:
    """A 1-d object array of ints as rows of k uint64 limbs, least significant
    first.  The top limb is converted whole, so a negative value, or one of
    64 * k bits or more, raises OverflowError."""
    limbs = []
    for _ in range(k - 1):
        limbs.append((values & 0xFFFF_FFFF_FFFF_FFFF).astype(np.uint64))
        values = values >> 64
    limbs.append(values.astype(np.uint64))
    return np.stack(limbs, axis=1)


def _sort_keys(q: FiniteQO, masks: np.ndarray) -> list[np.ndarray]:
    """The lexsort keys of a 1-d object array of masks, least significant
    first: their bytes through _MEMBER_KEY, byte 0 most significant, then
    their sizes.  Raises ValueError unless every mask is within range(q.n),
    nonempty and downward closed.

    The masks become rows of uint64 limbs, with one limb past bit q.n - 1 so
    that the top limb bounds the range.  A row's down-closure ORs the
    carrier's byte tables, as limb rows, indexed by its bytes; the row is
    closed iff that equals it."""
    n, k = q.n, q.n // 64 + 1
    outside = ValueError(f"mask has bits outside range({n})")
    try:
        words = _limbs(masks, k)
    except OverflowError:
        raise outside from None
    if (words[:, -1] >> np.uint64(n % 64)).any():
        raise outside
    rows = words.astype("<u8", copy=False).view(np.uint8)
    closure = np.zeros_like(words)
    for j, table in enumerate(_closure_tables(q)):
        closure |= _limbs(np.array(table, object), k)[rows[:, j]]
    size = np.bitwise_count(words).sum(axis=1)
    if (closure != words).any() or not size.all():
        raise ValueError("not downward closed, or empty")
    keys = _MEMBER_KEY[rows].view(">u8")
    return [*keys.T[::-1], size]


def _canonical(q: FiniteQO, masks: Iterable[int]) -> list[int]:
    """Masks over q in (size, member tuple) order, each checked within
    range(q.n), nonempty and downward closed, in one array pass over all of
    them: one lexsort on _sort_keys, then one take.  The limb rows are freed
    before the sort, so its workspace and the taken list can reuse their
    memory."""
    masks = np.fromiter(masks, object)  # callers pass lists and generators
    return masks[np.lexsort(_sort_keys(q, masks))].tolist()


def _built(kind: type[Downset], q: FiniteQO, mask: int) -> Downset:
    """A kind value over q, built with __new__ and no second check: callers
    pass masks that _canonical checked, and Ideal callers principal
    down-masks, directed by construction."""
    d = kind.__new__(kind)
    d.base, d.mask = q, mask
    return d


class DownsetSequence(Sequence[Downset]):
    """The downsets of one carrier as a read-only sequence over their checked
    masks, in (size, member tuple) order.  A value is built each time it is
    read, so a listing read once in order holds one value at a time, not one
    per downset.  Slices are sequences of the same kind."""

    __slots__ = ("base", "_masks")

    def __init__(self, base: FiniteQO, masks: list[int]) -> None:
        self.base = base
        self._masks = masks

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DownsetSequence(self.base, self._masks[i])
        return _built(Downset, self.base, self._masks[i])

    def __iter__(self):
        for mask in self._masks:
            yield _built(Downset, self.base, mask)


def principal(q: FiniteQO, i: int) -> Ideal:
    'The down-closure of a single element.'
    (i,) = _checked_indices(q, [i])
    return Ideal.from_mask(q, _element_masks(q)[0][i])


def enumerate_downsets(q: FiniteQO, max_count: int | None = 100_000) -> DownsetSequence:
    """All nonempty downsets in (size, member tuple) order: one enumeration
    on the carrier, then one array pass that checks and orders every mask.
    Each value is built when it is read.  Raises CombinatorialBlowupError
    beyond max_count (None: no bound)."""
    if q.n == 0:
        raise EmptyCarrierError("no downsets over the empty carrier")
    bound = None if max_count is None else max_count + 1  # the empty set is dropped
    masks = all_downsets_of_poset(q.leq, bound)[1:]  # the empty set comes first
    return DownsetSequence(q, _canonical(q, masks))


def enumerate_ideals(q: FiniteQO) -> list[Ideal]:
    """All ideals, canonically ordered by (size, member tuple).

    Principal down-closures, one per equivalence class; on a finite carrier
    every directed set contains an element above all of it, so nothing else
    can be directed and downward closed.  Distinct classes give distinct
    ideals: elements with the same down-closure lie below each other.  A
    list, unlike enumerate_downsets: it holds one value per class at most,
    and ideal_monoid indexes it k^2 times.
    """
    if q.n == 0:
        raise EmptyCarrierError("no ideals over the empty carrier")
    tops = (_element_masks(q)[0][c[0]] for c in equiv_classes(q))
    return [_built(Ideal, q, mask) for mask in _canonical(q, tops)]


def ideal_decomposition(d: Downset) -> list[Ideal]:
    """Write a downset as the minimal union of pairwise incomparable ideals.

    Takes the down-closure of each equivalence class whose least member lies
    in the downset with nothing of the downset strictly above it; distinct
    maximal classes give ideals neither of which contains the other.
    """
    q = d.base
    down, up = _element_masks(q)
    least = (c[0] for c in equiv_classes(q))
    parts = [down[i] for i in least if d.mask >> i & 1 and not up[i] & ~down[i] & d.mask]
    return [_built(Ideal, q, mask) for mask in _canonical(q, parts)]


def _product_masks(m: "MonoidalQO") -> list[list[int]]:
    """Row a, entry b: the down-mask of a*b.  Built on first use and held on
    the monoid, not on its carrier, so it lives and dies with the table."""
    if m._down_rows is None:
        down = _element_masks(m.order)[0]
        m._down_rows = [[down[c] for c in row] for row in m.mult.tolist()]
    return m._down_rows


def downset_product(x: Downset, y: Downset, m: "MonoidalQO") -> Downset:
    """Pointwise product: everything below some product of a member of x with
    a member of y, the union of the held down-masks of those products.  Ideal
    inputs give an ideal output (the product of directed downsets is directed
    whenever the multiplication satisfies its axioms)."""
    if x.base is not m.order or y.base is not m.order:
        raise ValueError("downsets must live over the monoid's carrier")
    rows, rights = _product_masks(m), _bits(y.mask)
    mask = 0
    for a in _bits(x.mask):
        mask |= _union_mask(rows[a], rights)
    kind = Ideal if isinstance(x, Ideal) and isinstance(y, Ideal) else Downset
    return kind.from_mask(m.order, mask)


def product_decomposition(
    c: Downset, a: Downset, b: Downset, m: "MonoidalQO"
) -> list[tuple[Downset, Downset]]:
    """Split c <= a*b into finitely many boxed products.

    For each a' in a, collect the fiber {b' in b : a'b' in c}; for each
    distinct nonempty fiber F, pair it with {a' in a : a'F <= c}, the members
    of a whose fiber contains F.  When the multiplication admits witness
    splitting, the union of the boxed products recovers c exactly, which is
    what the tests assert.
    """
    prod = downset_product(a, b, m)
    if c.mask & ~prod.mask:
        raise ValueError("c must be contained in the product of a and b")
    rows, outside = _product_masks(m), ~c.mask
    lefts, rights = _bits(a.mask), _bits(b.mask)
    # a'b' lies in c exactly when its down-mask does, as c is closed
    fibers = [sum(1 << bb for bb in rights if not rows[aa][bb] & outside) for aa in lefts]
    out: list[tuple[Downset, Downset]] = []
    for fiber in dict.fromkeys(f for f in fibers if f):
        left = sum(1 << aa for aa, f in zip(lefts, fibers) if not fiber & ~f)
        out.append((Downset.from_mask(m.order, left), Downset.from_mask(m.order, fiber)))
    return out
