"""Iterated hierarchies of hereditary sets over a finite quasi-order.

The explicit side builds hereditary sets level by level in three flavors:
all nonempty sets, the upward-directed ones, and the directed downward-closed
ones, with each level quotiented to one canonical representative per
equivalence class.  The symbolic side builds the prime alphabet: one plain
letter per carrier class plus one idempotent letter per downward-closed set
of lower letters, ordered by compare_atoms.  The two sides are developed
independently and cross-checked by the verification sweeps; neither is
treated as the definition of the other.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CombinatorialBlowupError, EmptyCarrierError, LevelCapExceededError
from .higman import AtomAlphabet
from .monoid import MonoidalQO
from .qo import FiniteQO, _bits, _checked_indices, _element_masks
from .qo import _as_index, _check_downset_count, all_downsets_of_poset, equiv_classes

# The paper's hierarchy runs through every ordinal; this package stops here.
LEVEL_CAP = 3
DEFAULT_MAX_MEMBERS = 20_000
# 2^k candidate subsets; past this the enumeration loop itself is the problem
_SUBSET_CAP = 20


class HSet:
    """A hereditary set over carrier urelements, hash-consed globally.

    Either an urelement (ur is a carrier index, children is None) or a
    finite nonempty set of HSets (children sorted by serial).  The payload is
    what the for-all-exists rule and the lifted product range over: the
    urelement itself, (self,), or the set's children.  Structurally equal
    values are the same object, so identity works as equality and a family's
    payload members index a table by object.  Build through ur_elem and hset,
    never directly.  build_level interns only the representatives it keeps:
    a candidate set that loses its class is never built, so the pools hold
    no more than the stages return.
    """

    __slots__ = ("ur", "children", "payload", "serial", "rank")

    def __init__(self, ur, children, serial, rank) -> None:
        self.ur = ur
        self.children = children
        self.payload = (self,) if children is None else children
        self.serial = serial
        self.rank = rank

    def __repr__(self) -> str:
        return f"HSet({self.serial})"


_UR_POOL: dict[int, HSet] = {}
_SET_POOL: dict[frozenset[HSet], HSet] = {}


def ur_elem(i: int) -> HSet:
    'The urelement with carrier index i.'
    i = _as_index(i)
    if i < 0:
        raise ValueError("urelement index must be a carrier index")
    node = _UR_POOL.get(i)
    if node is None:
        node = HSet(i, None, f"u{i}", -1)
        _UR_POOL[i] = node
    return node


def hset(children: Iterable[HSet]) -> HSet:
    'The set with the given members, deduplicated and canonically sorted.'
    key = frozenset(children)
    if not key:
        raise ValueError("hereditary sets are nonempty")
    node = _SET_POOL.get(key)
    if node is None:
        kids = tuple(sorted(key, key=lambda h: h.serial))
        serial = "{" + ",".join(c.serial for c in kids) + "}"
        node = HSet(None, kids, serial, 1 + max(c.rank for c in kids))
        _SET_POOL[key] = node
    return node


def lesssim_star(x: HSet, y: HSet, q: FiniteQO) -> bool:
    """The hereditary comparison over q.

    Urelements compare through q's table; otherwise x is below y when every
    payload member of x is below some payload member of y.  Keeps no state;
    whole families of pairs go through _leq_table instead.
    """
    if x.ur is not None and y.ur is not None:
        return bool(q.leq[x.ur, y.ur])
    for a in x.payload:
        for b in y.payload:
            if lesssim_star(a, b, q):
                break
        else:
            return False
    return True


def _leq_table(hs: list[HSet], q: FiniteQO) -> np.ndarray:
    """lesssim_star on every pair of hs, as a bool array indexed [x, y].

    Urelements alone read q.leq; otherwise the family's payload layout
    gives its table by one more float32 matrix product.
    """
    if all(h.ur is not None for h in hs):
        urs = [h.ur for h in hs]
        return q.leq[urs][:, urs]
    m, uncovered = _payload_layout(hs, q)
    return m @ uncovered == 0


def _payload_layout(
    rows: list[HSet | list[int]], q: FiniteQO, lower: tuple[HSet, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """A family's float32 payload membership m and its uncovered table.

    m's columns are the family's payload members, those of lower first and
    the rest first seen first.  They are ordered by _leq_table, one rank
    lower, and uncovered = below @ m.T == 0 marks [p, y] where member p lies
    below no payload member of y; so x is below y exactly where
    (m[x] @ uncovered)[y] == 0.  A row is an HSet, read through its
    payload, or the indices in lower of the members of a set never built.
    """
    column = {p: i for i, p in enumerate(lower)}
    at, cols = [], []
    for i, h in enumerate(rows):
        js = h if isinstance(h, list) else [column.setdefault(p, len(column)) for p in h.payload]
        at += [i] * len(js)
        cols += js
    m = np.zeros((len(rows), len(column)), dtype=np.float32)
    m[at, cols] = 1
    below = _leq_table(list(column), q).astype(np.float32)
    return m, (below @ m.T == 0).astype(np.float32)


def sim_star(x: HSet, y: HSet, q: FiniteQO) -> bool:
    return lesssim_star(x, y, q) and lesssim_star(y, x, q)


def hset_mult(x: HSet, y: HSet, m: MonoidalQO) -> HSet:
    """Multiplication lifted to hereditary sets, memoized per monoid.

    Urelements multiply through the table; otherwise the product is the set
    of pairwise products of payload members.
    """
    cache = m._mult_cache
    key = (x, y)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if x.ur is not None and y.ur is not None:
        out = ur_elem(m.mul(x.ur, y.ur))
    else:
        out = hset(hset_mult(a, b, m) for a in x.payload for b in y.payload)
    cache[key] = out
    return out


@dataclass(eq=False)
class HierLevel:
    """One stage of an iterated hierarchy: canonical representatives, one per
    equivalence class, with the full chain of earlier stages attached."""

    alpha: int
    kind: str
    members: tuple[HSet, ...]
    previous: "HierLevel | None"

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def chain(self) -> Iterator["HierLevel"]:
        'Stages in increasing order of alpha, this one last.'
        if self.previous is not None:
            yield from self.previous.chain()
        yield self


_KINDS = ("vstar", "istar", "ihat")


def _check_level(alpha: int, q: FiniteQO) -> None:
    'Reject a level below 0 or above LEVEL_CAP, and the empty carrier.'
    if alpha < 0:
        raise ValueError(f"level must be at least 0, got {alpha}")
    if alpha > LEVEL_CAP:
        raise LevelCapExceededError(f"level {alpha} exceeds the cap of {LEVEL_CAP}")
    if q.n == 0:
        raise EmptyCarrierError("no hierarchy over the empty carrier")


def build_level(
    q: FiniteQO,
    alpha: int,
    kind: str = "ihat",
    max_members: int = DEFAULT_MAX_MEMBERS,
) -> HierLevel:
    """Iterate one of the three set-formation rules alpha times.

    vstar adjoins every nonempty subset of the previous stage, istar only the
    upward-directed ones, ihat only the directed downward-closed ones (on a
    finite stage those are the principal down-closures).  Every stage is
    quotiented to canonical representatives, the least serial of each class,
    and keeps the urelements, so stages are cumulative.  Classes and their
    order come from one for-all-exists pass on int down-masks per stage
    (_stage_classes), audited in full against the hereditary order; stage 0
    and its audit run once per carrier, shared by the kinds (_stage_zero).
    An adjoined set stays a mask over the previous stage until it wins its
    class, and only the winners are interned.  A stage with more than
    max_members candidates raises CombinatorialBlowupError; each stage's
    candidates are counted before any of its sets is built, so a doomed
    stage interns none.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    _check_level(alpha, q)

    level = None
    for stage in range(alpha + 1):
        if stage:
            masks = _adjoined_masks(down, kind, max_members - len(reps))
        count = len(reps) + len(masks) if stage else len(equiv_classes(q))
        if count > max_members:
            raise CombinatorialBlowupError(
                f"stage {stage} exceeds {max_members} candidate members"
            )
        reps, bit, down = _stage_classes(reps, masks, bit, down, q) if stage else _stage_zero(q)
        level = HierLevel(stage, kind, tuple(reps), level)
    return level


def _stage_zero(q: FiniteQO) -> tuple[list[HSet], dict[HSet, int], list[int]]:
    """Stage 0 of every kind, one urelement per carrier class keyed by its
    down-mask over the carrier, built and audited once and kept on q."""
    if q._stage0 is None:
        urs = [ur_elem(cls[0]) for cls in equiv_classes(q)]
        q._stage0 = _stage_classes(urs, (), {u: u.ur for u in urs}, _element_masks(q)[0], q)
    return q._stage0


def _stage_classes(
    prev: Sequence[HSet],
    masks: Iterable[int],
    bit: dict[HSet, int],
    down: list[int],
    q: FiniteQO,
) -> tuple[list[HSet], dict[HSet, int], list[int]]:
    """One stage's representatives, class index map and down-masks.

    The candidates are prev's members, which every stage keeps, and one set
    per mask over prev (the stage below's representatives), in serial
    order.  bit maps every earlier set to its class index in the stage
    below, whose down[i] masks the classes below class i.  x is below y
    exactly when x's payload lies in the down-closure of y's; so a
    candidate's key, the OR of down over its payload, decides both: equal
    keys make one class, represented by its first candidate, and key
    inclusion is the order.

    A mask's set is built only if it represents its class.  Until then it
    is its bits; its serial joins its members' serials in bit order, which
    is hset's order since prev is sorted by serial; its key is the OR of
    down over its bits, as bit[prev[i]] == i; and a set that repeats a
    member of prev is dropped by that serial.  Audited in full by
    _tied_tables, candidates against representatives and back: each
    candidate must be tied to its representative, and the representatives'
    block must equal key inclusion; a disagreement raises ValueError naming
    the pair.
    """
    found: dict[str, tuple[int, HSet | list[int]]] = {}
    for c in prev:
        key = 0
        for p in c.payload:
            key |= down[bit[p]]
        found[c.serial] = (key, c)
    names = [p.serial for p in prev]
    for mask in masks:
        idx = _bits(mask)
        serial = "{" + ",".join([names[i] for i in idx]) + "}"
        if serial not in found:
            key = 0
            for i in idx:
                key |= down[i]
            found[serial] = (key, idx)
    serials = sorted(found)
    candidates: list[HSet | list[int]] = []
    reps: list[HSet] = []
    firsts: list[int] = []
    classes: list[int] = []
    index: dict[int, int] = {}
    for i, serial in enumerate(serials):
        key, c = found[serial]
        j = index.setdefault(key, len(reps))
        if j == len(reps):
            if isinstance(c, list):
                c = hset(prev[k] for k in c)
            reps.append(c)
            firsts.append(i)
        candidates.append(c)
        classes.append(j)
    keys = list(index)
    up, back = _tied_tables(candidates, prev, firsts, q)
    rows, at = np.arange(len(classes)), np.array(classes)
    tied = up[rows, at] & back[at, rows]
    if not tied.all():
        i = int(tied.argmin())
        raise ValueError(
            f"{serials[i]} and {reps[classes[i]].serial} share a down-closure "
            "but sim_star separates them"
        )
    new_bit = {c: j for c, j in zip(candidates, classes) if isinstance(c, HSet)}
    for y, i in bit.items():
        # a set merged in an earlier stage follows its representative
        if y not in new_bit:
            new_bit[y] = new_bit[prev[i]]
    block = up[firsts].tolist()
    new_down = [0] * len(reps)
    for j, y in enumerate(reps):
        for k, x in enumerate(reps):
            below = not keys[k] & ~keys[j]
            if below != block[k][j]:
                raise ValueError(
                    f"down-closures put {x.serial} {'below' if below else 'not below'} "
                    f"{y.serial}, lesssim_star disagrees"
                )
            if below:
                new_down[j] |= 1 << k
    return reps, new_bit, new_down


def _tied_tables(
    candidates: list[HSet | list[int]],
    prev: tuple[HSet, ...],
    firsts: list[int],
    q: FiniteQO,
) -> tuple[np.ndarray, np.ndarray]:
    """lesssim_star from every candidate to the representatives at firsts,
    and back, as bool arrays indexed [candidate, rep] and [rep, candidate].

    A candidate is an HSet or the indices in prev of a set never built.
    Both directions read one payload layout and one table of the payload
    members, which recurses to q.leq.
    """
    m, uncovered = _payload_layout(candidates, q, prev)
    return m @ uncovered[:, firsts] == 0, m[firsts] @ uncovered == 0


def _adjoined_masks(down: list[int], kind: str, room: int) -> list[int] | range:
    """The masks, over the previous stage's members, of the sets one stage of
    the given kind adjoins, where down[j] masks the members below member j.

    vstar's range has a known length without being built; istar stops after
    room + 1 directed masks, enough to show a stage past its bound.
    """
    k = len(down)
    if kind == "ihat":
        return down
    if k > _SUBSET_CAP:
        raise CombinatorialBlowupError(f"subset enumeration over {k} members")
    if kind == "vstar":
        return range(1, 1 << k)
    # on a finite stage the directed sets are those with a top; the members
    # are pairwise inequivalent, so each is listed once, under its top j
    below = [[1 << i for i in _bits(d & ~(1 << j))] for j, d in enumerate(down)]
    topped = (
        1 << j | sum(sub)
        for j in range(k)
        for r in range(len(below[j]) + 1)
        for sub in itertools.combinations(below[j], r)
    )
    return list(itertools.islice(topped, room + 1))


class Atom:
    """A symbolic prime letter: plain (one carrier class) or idempotent
    (a downward-closed set of lower letters).

    Hash-consed in the base carrier's own pool (FiniteQO._atom_pool), so
    letters live exactly as long as their carrier; build through
    non_idem_atom, and idempotent letters inside build_atoms, which closes
    each payload downward, or as the oracle's stars over a derived carrier,
    which are denoted, never ordered.  downset is None for a plain letter
    and the payload letters, sorted by serial, for an idempotent one, so
    every walk over a payload visits it in the same order on every run.
    The level is the stage where the letter first appears: 0 for plain
    letters, one past the deepest payload letter otherwise.  bit is
    1 << (the letter's position in its carrier's pool); mask is the OR of
    the bits a letter covers: its own for a plain letter, its payload's for
    an idempotent one.
    """

    __slots__ = ("base", "base_class", "downset", "level", "serial", "bit", "mask")

    def __init__(self, base, base_class, downset, level, serial) -> None:
        self.base = base
        self.base_class = base_class
        self.downset = downset
        self.level = level
        self.serial = serial
        self.bit = 1 << len(base._atom_pool)
        # payload letters are distinct, so the sum of their bits is their OR
        self.mask = self.bit if downset is None else sum(d.bit for d in downset)

    @property
    def is_idem(self) -> bool:
        return self.downset is not None

    def __repr__(self) -> str:
        return f"Atom({self.serial})"


def non_idem_atom(base: FiniteQO, class_rep: int) -> Atom:
    'The plain letter for the carrier class of class_rep, keyed by its least member.'
    (i,) = _checked_indices(base, [class_rep])
    down, up = _element_masks(base)
    key = _bits(down[i] & up[i])[0]
    pool = base._atom_pool
    atom = pool.get(key)
    if atom is None:
        atom = Atom(base, key, None, 0, base.elements[key])
        pool[key] = atom
    return atom


def _idem_atom(base: FiniteQO, downset: Iterable[Atom]) -> Atom:
    """The idempotent letter over a set of lower letters.

    compare_atoms is sound only when that set is downward closed in the
    letters built so far, as in build_atoms; the oracle's stars go unordered.
    """
    downset = frozenset(downset)
    if not downset:
        raise ValueError("idempotent letters carry a nonempty payload")
    for a in downset:
        if a.base is not base:
            raise ValueError("payload letters must share the base carrier")
    pool = base._atom_pool
    atom = pool.get(downset)
    if atom is None:
        kids = tuple(sorted(downset, key=lambda a: a.serial))
        serial = "*{" + ",".join(a.serial for a in kids) + "}"
        atom = Atom(base, None, kids, 1 + max(a.level for a in kids), serial)
        pool[downset] = atom
    return atom


def compare_atoms(x: Atom, y: Atom) -> bool:
    """The letter order: is x below y?

    The paper orders the idempotent letters of each new stage by inclusion
    of their payloads, which are downsets of the letters already built.  So
    plain letters compare through the carrier, an idempotent letter is never
    below a plain one, and otherwise x is below the idempotent y exactly when
    x's mask lies inside y's: a plain x when it is a payload letter of y, an
    idempotent x when its payload is contained in y's.  That inclusion
    already gives level(x) <= level(y).

    This equals the recursive definition (a plain letter is below an
    idempotent one when it is below some payload letter; idempotent letters
    compare payload-wise by for-all-exists) on the letters build_atoms forms:
    - every letter of level L appears at stage L;
    - an idempotent letter of level L is never below a letter of lower
      level, by induction from the plain case;
    - so every payload letter of x lies in the letter set over which y's
      payload was closed downward, and "below some payload letter of y"
      reduces to membership in it.
    These rules are this package's own construction.  verify_reflection,
    AtomAlphabet's plain-part check and letter-order-is-containment (the
    oracle's exact containment of letters) audit them.
    """
    if x.base is not y.base:
        raise ValueError("letters over different carriers")
    if y.downset is None:
        return x.downset is None and bool(x.base.leq[x.base_class, y.base_class])
    return not x.mask & ~y.mask


def _letter_table(atoms: Sequence[Atom]) -> np.ndarray:
    'The compare_atoms table over the given letters, by index.'
    n = len(atoms)
    cells = (compare_atoms(x, y) for x in atoms for y in atoms)
    return np.fromiter(cells, dtype=bool, count=n * n).reshape(n, n)


@dataclass(eq=False)
class AtomSystem:
    """The symbolic prime alphabet of a carrier at one level.

    atoms are sorted by (level, serial); alphabet is the same carrier as a
    word alphabet, with the idempotent letters as its idem;
    level_counts[k] is how many atoms exist at levels <= k.
    """

    base: FiniteQO
    alpha: int
    atoms: tuple[Atom, ...]
    alphabet: AtomAlphabet
    level_counts: tuple[int, ...]


def build_atoms(
    p: FiniteQO,
    alpha: int,
    max_members: int = DEFAULT_MAX_MEMBERS,
) -> AtomSystem:
    """Accumulate the prime alphabet over p up to the given level.

    Stage 0 holds one plain letter per carrier class.  Each later stage
    adjoins one idempotent letter per nonempty downward-closed subset of the
    letters built so far, under the compare_atoms order.  A stage depends
    only on the carrier and the stage below, so p holds each stage once
    built (FiniteQO._atom_stages): its letters in build order and how many
    downsets it enumerated.  A call builds only the stages past the held
    ones, so a carrier's letters come from the compare_atoms in force when
    each stage was first built.  Every call re-checks each stage up to alpha
    against max_members as a fresh build would, the downset count first,
    then the letter count, and a stage refused by either is not held.  The
    final order is one live _letter_table on every call, and the alphabet
    rejects construction if any idempotent letter lands below a plain one,
    which is how a corrupted comparison rule gets caught early.
    """
    _check_level(alpha, p)

    if p._atom_stages is None:
        p._atom_stages = []
    held = p._atom_stages
    for stage in range(alpha + 1):
        if stage < len(held):
            letters, downsets = held[stage]
        elif stage:
            below = held[-1][0]
            downs = all_downsets_of_poset(_letter_table(below), max_count=max_members)
            # the enumeration lists the empty downset first
            stars = (_idem_atom(p, (below[i] for i in _bits(ds))) for ds in downs[1:])
            letters, downsets = tuple(dict.fromkeys(itertools.chain(below, stars))), len(downs)
        else:
            letters, downsets = tuple(non_idem_atom(p, cls[0]) for cls in equiv_classes(p)), 0
        if stage:
            _check_downset_count(downsets, max_members)
        if len(letters) > max_members:
            raise CombinatorialBlowupError(f"alphabet exceeds {max_members} letters")
        if stage == len(held):
            held.append((letters, downsets))

    atoms = sorted(held[alpha][0], key=lambda a: (a.level, a.serial))
    counts = tuple(len(letters) for letters, _ in held[: alpha + 1])
    order = FiniteQO(tuple(a.serial for a in atoms), _letter_table(atoms))
    alphabet = AtomAlphabet(order, (i for i, a in enumerate(atoms) if a.is_idem))
    return AtomSystem(p, alpha, tuple(atoms), alphabet, counts)
