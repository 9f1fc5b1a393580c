"""Finite quasi-orders: validation, closure, quotients, and the elementary
order operations everything else builds on.

A quasi-order here is reflexive and transitive but not necessarily
antisymmetric, so distinct elements may compare both ways; the induced
equivalence and its quotient partial order are first-class citizens.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CombinatorialBlowupError,
    DuplicateLabelError,
    NotReflexiveError,
    NotTransitiveError,
    SchemaError,
    UnknownLabelError,
)


class FiniteQO:
    """A finite carrier with a reflexive-transitive comparison table.

    Parameters
    ----------
    elements : sequence of str
        Distinct labels, in carrier order.
    leq : array-like of bool, shape (n, n)
        leq[i, j] means element i is below element j.  The table is copied
        and frozen; instances are immutable and compare by identity.

    Closures, downsets and their enumeration work on int bitmasks, bit i
    standing for element i.  Each element's down-mask and up-mask are
    computed from leq on first use and kept on the carrier, as are the
    per-byte tables that close a whole mask one byte at a time, stage 0
    of its hierarchies, which every set-formation rule starts from, and the
    letter stages built so far: per stage, the letters after it in build
    order and how many downsets it enumerated.  Those letters come from the
    compare_atoms in force when each stage was first built; build_atoms
    re-checks its caps against the held counts on every call and builds the
    final letter table live.
    """

    __slots__ = (
        "elements", "leq", "_index", "_classes", "_masks", "_down_bytes",
        "_stage0", "_atom_stages", "_atom_pool",
    )

    def __init__(self, elements: Iterable[str], leq) -> None:
        elements = tuple(elements)
        table = np.array(leq, dtype=bool)
        n = len(elements)
        if table.shape != (n, n):
            raise ValueError(f"comparison table must be {n}x{n}, got {table.shape}")
        if len(set(elements)) != n:
            raise DuplicateLabelError("element labels must be distinct")
        table.setflags(write=False)
        self.elements = elements
        self.leq = table
        self._index = {lab: i for i, lab in enumerate(elements)}
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._masks: tuple[list[int], list[int]] | None = None
        self._down_bytes: list[list[int]] | None = None
        self._stage0: tuple | None = None
        self._atom_stages: list[tuple[tuple, int]] | None = None
        # hierarchy letters over this carrier, hash-consed on their payload
        self._atom_pool: dict = {}

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown element {label!r}") from None

    def __repr__(self) -> str:
        return f"FiniteQO({list(self.elements)!r}, {int(self.leq.sum())} pairs)"


# cells one block of a blocked table holds at once
_BLOCK_CELLS = 1 << 20


def _row_blocks(count: int, cells_per_row: int) -> Iterator[slice]:
    """Slices covering range(count), each of as many rows as _BLOCK_CELLS
    holds at max(1, cells_per_row) cells a row, and at least one row; one
    slice if count is 0."""
    step = max(1, _BLOCK_CELLS // max(1, cells_per_row))
    return (slice(r, r + step) for r in range(0, max(1, count), step))


def _disjoint_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cell [i, j] holds when bool rows a[i] and b[j] share no true column:
    one float32 product per _row_blocks slice of a (BLAS runs float32, not
    bool) counts the shared columns, exact below 2**24 columns."""
    right = b.T.astype(np.float32)
    out = np.empty((len(a), len(b)), dtype=bool)
    for s in _row_blocks(len(a), len(b)):
        out[s] = a[s].astype(np.float32) @ right == 0
    return out


def transitive_closure(table: np.ndarray) -> np.ndarray:
    'Reflexive-transitive closure of a boolean relation, by repeated squaring.'
    closed = np.array(table, dtype=bool)
    np.fill_diagonal(closed, True)
    while True:
        # i reaches j in two steps when row i and column j meet
        step = ~_disjoint_table(closed, closed.T)
        if np.array_equal(step, closed):
            return step
        closed = step


def validate(elements: Iterable[str], order: Iterable[tuple[str, str]], close: bool = False) -> FiniteQO:
    """Build a FiniteQO from labels and comparable pairs.

    With close set, the reflexive-transitive closure of the pair list is
    taken; otherwise input that is not already reflexive and transitive is
    rejected with the specific axiom that failed.
    """
    elements = tuple(elements)
    index: dict[str, int] = {}
    for i, lab in enumerate(elements):
        if index.setdefault(lab, i) != i:
            raise DuplicateLabelError(f"duplicate element {lab!r}")
    n = len(elements)
    table = np.zeros((n, n), dtype=bool)
    for a, b in order:
        if a not in index:
            raise UnknownLabelError(f"unknown element {a!r} in order pair")
        if b not in index:
            raise UnknownLabelError(f"unknown element {b!r} in order pair")
        table[index[a], index[b]] = True
    if close:
        table = transitive_closure(table)
    else:
        for i in range(n):
            if not table[i, i]:
                raise NotReflexiveError(f"missing reflexive pair for {elements[i]!r}")
        reach = table | ~_disjoint_table(table, table.T)
        if not np.array_equal(reach, table):
            i, j = np.argwhere(reach & ~table)[0]
            raise NotTransitiveError(
                f"missing transitive pair ({elements[i]!r}, {elements[j]!r})"
            )
    return FiniteQO(elements, table)


def _is_label(x) -> bool:
    # a JSON escape can spell a lone surrogate, which no UTF-8 output can hold
    return isinstance(x, str) and not any("\ud800" <= c <= "\udfff" for c in x)


def from_json(obj: dict) -> FiniteQO:
    'Read the {"elements": [...], "order": [[a,b],...], "close": bool} form.'
    if not isinstance(obj, dict):
        raise SchemaError("a quasi-order must be a JSON object")
    elements, order = obj.get("elements"), obj.get("order")
    close = obj.get("close", False)
    if not isinstance(elements, list) or not all(_is_label(x) for x in elements):
        raise SchemaError('"elements" must be a list of strings without lone surrogates')
    if not isinstance(order, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
        for p in order
    ):
        raise SchemaError('"order" must be a list of [a, b] label pairs')
    if not isinstance(close, bool):
        raise SchemaError('"close" must be true or false')
    return validate(elements, [tuple(p) for p in order], close)


def to_json(q: FiniteQO) -> dict:
    pairs = [[q.elements[i], q.elements[j]] for i, j in np.argwhere(q.leq)]
    return {"elements": list(q.elements), "order": pairs}


def equiv_classes(q: FiniteQO) -> tuple[tuple[int, ...], ...]:
    'Equivalence classes of mutual comparability, each sorted, ordered by least member.'
    if q._classes is None:
        down, up = _element_masks(q)
        same = [d & u for d, u in zip(down, up)]
        # each class is read off at its lowest bit
        q._classes = tuple(tuple(_bits(m)) for i, m in enumerate(same) if m & -m == 1 << i)
    return q._classes


@dataclass(frozen=True, eq=False)
class QuotientMap:
    """The quotient of a quasi-order by its induced equivalence.

    class_of[i] is the class index of carrier element i; classes is the
    induced partial order on class representatives, labelled by joining the
    member labels with '='.
    """

    class_of: tuple[int, ...]
    classes: FiniteQO


def quotient(q: FiniteQO) -> QuotientMap:
    classes = equiv_classes(q)
    class_of = [0] * q.n
    for c, members in enumerate(classes):
        for i in members:
            class_of[i] = c
    reps = [members[0] for members in classes]
    table = q.leq[np.ix_(reps, reps)]
    labels = tuple("=".join(q.elements[i] for i in members) for members in classes)
    return QuotientMap(tuple(class_of), FiniteQO(labels, table))


def all_tuples(n: int, maxlen: int) -> list[tuple[int, ...]]:
    'Tuples over range(n) up to length maxlen, shortest first, lexicographic within a length.'
    if maxlen < 0:
        # an empty list would let a sweep over it pass on nothing
        raise ValueError(f"tuple length must be at least 0, got {maxlen}")
    return [t for k in range(maxlen + 1) for t in itertools.product(range(n), repeat=k)]


def _letter_block(words: Sequence[tuple[int, ...]], width: int) -> np.ndarray:
    'Letter tuples as a len(words) x width index array, each padded on the right with -1.'
    pad = (-1,) * width
    return np.array([w + pad[len(w) :] for w in words], dtype=np.intp).reshape(len(words), width)


def seq_label(names: Sequence[str], s: tuple[int, ...]) -> str:
    return ".".join(names[i] for i in s) if s else "ε"


def _row_masks(table: np.ndarray) -> list[int]:
    'Bit j of entry i is table[i, j].'
    packed = np.packbits(table, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _element_masks(q: FiniteQO) -> tuple[list[int], list[int]]:
    'Per element: the mask of everything below it and of everything above it.'
    if q._masks is None:
        q._masks = (_row_masks(q.leq.T), _row_masks(q.leq))
    return q._masks


def _union_mask(masks: list[int], s: Iterable[int]) -> int:
    'The union of masks[i] over i in s.'
    out = 0
    for i in s:
        out |= masks[i]
    return out


def _closure_tables(q: FiniteQO) -> list[list[int]]:
    """One table per byte of a mask within range(q.n): entry b of table k is
    the union of the down-masks of elements 8k + j over the set bits j of b,
    so the union of a mask's byte entries is its down-closure.  The last
    table has 2 ** (q.n - 8k) entries, one per value its byte can take."""
    if q._down_bytes is None:
        down = _element_masks(q)[0]
        tables = []
        for start in range(0, q.n, 8):
            chunk = down[start : start + 8]
            table = [0] * (1 << len(chunk))
            for b in range(1, len(table)):
                table[b] = table[b & (b - 1)] | chunk[(b & -b).bit_length() - 1]
            tables.append(table)
        q._down_bytes = tables
    return q._down_bytes


def _down_mask(q: FiniteQO, mask: int) -> int:
    'The down-closure of the elements of a mask within range(q.n), as a mask.'
    tables = _closure_tables(q)
    out = 0
    for table, b in zip(tables, mask.to_bytes(len(tables), "little")):
        out |= table[b]
    return out


def _bits(mask: int) -> list[int]:
    'The set bits of a mask, ascending.'
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _as_index(x: object) -> int:
    'x as an int by operator.index, rejecting the bools that index would accept.'
    if type(x) is bool:
        raise TypeError(f"element index {x!r} is a bool, not an integer")
    return operator.index(x)


def _checked_indices(q: FiniteQO, s: Iterable[int]) -> list[int]:
    'The element indices in s as ints, rejecting bools and any outside range(q.n).'
    out = []
    for x in s:
        i = _as_index(x)
        if not 0 <= i < q.n:
            raise ValueError(f"element index {i} is outside range({q.n})")
        out.append(i)
    return out


def _directed_mask(down: list[int], mask: int) -> bool:
    """True iff some element of mask has all of mask below it, where down[i]
    masks everything below i; an empty mask has none.  On a finite set this
    is directedness: every pair has an upper bound in the set, by induction
    every finite subset does, the set itself included."""
    for i in _bits(mask):
        if not mask & ~down[i]:
            return True
    return False


def disjoint_union_with_star(q: FiniteQO) -> FiniteQO:
    """Extend the carrier with one fresh element comparable only to itself.

    The new element's label starts from a star glyph and gets primes appended
    until it is fresh; it always lands at the last index.
    """
    label = "⋆"
    while label in q._index:
        label += "'"
    n = q.n
    table = np.zeros((n + 1, n + 1), dtype=bool)
    table[:n, :n] = q.leq
    table[n, n] = True
    return FiniteQO(q.elements + (label,), table)


def all_downsets_of_poset(leq: np.ndarray, max_count: int | None = None) -> list[int]:
    """Every downward-closed subset (the empty one first) of a finite
    quasi-order, as bitmasks with bit i standing for element i.

    Steps through the equivalence classes in a linear extension, by the
    (down-count, index) of their least members, and grows each downset so
    far by a whole class once everything strictly below it is in, appending
    the grown downsets after those so far.  A downset holding a class was
    appended at or after that class's step, so a step scans only from the
    step of its latest-stepped predecessor on.  The count is bounded by
    max_count, which counts the empty set too.
    """
    below, above = _row_masks(leq.T), _row_masks(leq)
    least = [i for i, b in enumerate(below) if not b & above[i] & (1 << i) - 1]
    downs = [0]
    # each class stepped so far, with the list's length before its step
    steps: list[tuple[int, int]] = []
    for x in sorted(least, key=lambda i: (below[i].bit_count(), i)):
        cls = below[x] & above[x]
        preds = below[x] & ~cls
        start = next((k for c, k in reversed(steps) if c & preds), 0)
        steps.append((cls, len(downs)))
        downs += [d | cls for d in downs[start:] if d & preds == preds]
        _check_downset_count(len(downs), max_count)
    return downs


def _check_downset_count(count: int, max_count: int | None) -> None:
    """Refuse count downsets, the empty one included, past max_count (None:
    no bound): the enumeration's bound, re-checked on a held count."""
    if max_count is not None and count > max_count:
        raise CombinatorialBlowupError(
            f"more than {max_count} downward-closed subsets, the empty one included"
        )


@lru_cache(maxsize=None)
def _permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation p of range(n), in itertools order, one per row, and
    per row the flat indices that relabel an n x n table by p in C order:
    cell (i, j) of the relabelled table is cell (p[i], p[j]) of the original."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms = perms.reshape(math.factorial(n), n)
    cells = perms[:, :, None] * n + perms[:, None, :]
    return perms, cells.reshape(len(perms), n * n)


def _canonical_relation_keys(tables: np.ndarray, members: np.ndarray) -> list[bytes]:
    """Least byte encoding of each (table, member row) over all permutations.

    tables is a (T, n, n) stack of bool tables and members a (T, n) stack of
    bool rows.  A permutation p encodes a pair as the bytes of the
    relabelled table (cell (i, j) read from (p[i], p[j])) followed by one
    byte per position i, 1 when p[i] is a member.  Every encoding of the
    stack is built at once from a cached index array; read as an integer,
    first cell highest, each is one uint64, so the least per pair is an
    argmin.  Used to deduplicate small structures up to isomorphism;
    factorial memory and time, and n <= 7 so an encoding fits 64 bits.
    """
    tables = np.asarray(tables, dtype=bool)
    members = np.asarray(members, dtype=bool)
    count, n = members.shape
    if n * n + n > 64:
        raise ValueError(f"canonical keys are sized for at most 7 elements, got {n}")
    perms, cells = _permutations(n)
    codes = np.concatenate(
        [tables.reshape(count, n * n)[:, cells], members[:, perms]], axis=2
    ).view(np.uint8)
    weights = np.uint64(1) << np.arange(codes.shape[2], dtype=np.uint64)[::-1]
    least = (codes * weights).sum(axis=2, dtype=np.uint64).argmin(axis=1)
    return [codes[t, k].tobytes() for t, k in enumerate(least.tolist())]


def _canonical_relation_key(table: np.ndarray, extra: tuple[int, ...] = ()) -> bytes:
    'The canonical key of one table with the element indices extra as its members.'
    n = len(table)
    member = np.zeros((1, n), dtype=bool)
    member[0, list(extra)] = True
    return _canonical_relation_keys(np.asarray(table)[None], member)[0]


# candidate tables per stacked transitivity test; bounded because n = 5 has
# 2^20 candidates, and one stack of all 4,096 at n = 4 costs about 1 MiB of
# peak memory more than stacks of 256
_BATCH = 256


def all_quasi_orders(n: int) -> list[FiniteQO]:
    """All quasi-orders on n labelled elements, deduplicated up to isomorphism.

    Enumerates every relation extending the diagonal, in the order of the
    integer whose bit k sets the k-th off-diagonal cell (row-major), and
    keeps the transitive ones, the first of each isomorphism class.
    Candidates are stacked _BATCH at a time, tested for transitivity by one
    batched matmul each, and the transitive ones keyed in one stack.
    Meant for exhaustive sweeps at n <= 4.
    """
    if n > 5:
        raise CombinatorialBlowupError("quasi-order enumeration is capped at n = 5")
    labels = tuple(chr(ord("a") + i) for i in range(n))
    off_diag = [i * n + j for i in range(n) for j in range(n) if i != j]
    shifts = np.arange(len(off_diag))
    total = 1 << len(off_diag)
    seen: set[bytes] = set()
    out: list[FiniteQO] = []
    for start in range(0, total, _BATCH):
        bits = np.arange(start, min(start + _BATCH, total))
        flat = np.zeros((len(bits), n * n), dtype=bool)
        flat[:, :: n + 1] = True
        flat[:, off_diag] = (bits[:, None] >> shifts) & 1
        tables = flat.reshape(len(bits), n, n)
        kept = tables[~(tables @ tables & ~tables).any(axis=(1, 2))]
        keys = _canonical_relation_keys(kept, np.zeros((len(kept), n), dtype=bool))
        for table, key in zip(kept, keys):
            if key in seen:
                continue
            seen.add(key)
            out.append(FiniteQO(labels, table))
    return out


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def hasse_dot(q: FiniteQO, name: str = "quotient") -> str:
    """DOT rendering of the covering relation of the quotient of q.

    Edges go from the smaller class up to the covering class; equivalent
    elements are collapsed into a single node labelled with all members.
    """
    qm = quotient(q)
    c = qm.classes
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for lab in c.elements:
        lines.append(f"  {_quote(lab)};")
    down, up = _element_masks(c)
    strict = [u & ~d for d, u in zip(down, up)]
    for i, above in enumerate(strict):
        # j covers i when nothing strictly above i lies strictly below j
        for j in _bits(above & ~_union_mask(strict, _bits(above))):
            lines.append(f"  {_quote(c.elements[i])} -> {_quote(c.elements[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
