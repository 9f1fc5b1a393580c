"""Brute-force ground truth over bounded-length sequences.

The semantic side here is deliberately primitive: symbolic level-1
letters denote explicit sets of short sequences over a carrier, and the
theorem checks compare those sets bit by bit.  Every denotation, from a
letter's to a product's, is one bool row over the universe in the layout
DenotationContext states, so products are arithmetic on positions, a
table or a zip of rows at a time (DenotationContext.products).  Products
are also decided with no length bound, by greedy inclusion of factor
products, and the bounded rows guard that decision.  None of it consults
the word-embedding decision procedure or the letter-order rules, so
agreement between the two routes is evidence rather than wiring.  The
check_* sweeps are the only places both routes meet.

The paper orders level α + 1 by inclusion of the ideals of level α, so
level α is level 1 over a derived carrier P_{α-1}, the word-ideal normal
form of Finkel and Goubault-Larrecq ("Forward analysis for WSTS, Part I:
completions", STACS 2009) one level up: P_0 is the carrier, and P_k's
points are the level-k letters, ordered by exact containment of their
level-1 images over P_{k-1}.

Both inclusions are asked a table at a time: _contained_table runs the
greedy over per-list step tables, and bounded inclusion of row u in row v
is qo._disjoint_table(u, ~v), no bit of u outside v.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import ScaleExceededError
from .higman import _word_order, hword_primes_check
from .hierarchy import Atom, _idem_atom, _letter_table, build_atoms, non_idem_atom
from .qo import FiniteQO, _disjoint_table, _letter_block, _row_blocks, _row_masks, all_tuples
from .qo import seq_label
from .report import CheckResult, Report

_SEQ_UNIVERSE_CAP = 200_000
# word pairs one containment sweep may ask: the discrete 4-point carrier at
# alpha 1 asks 7,240^2, about 52.4 M
_CONTAINMENT_PAIR_CAP = 1 << 26
# quadruples one product sweep may ask: the 15-letter 4-point carrier asks
# 241^4, about 3.4 G, and the discrete 4-point carrier 381^4, about 21 G
_QUADRUPLE_CAP = 1 << 32


class DenotationContext:
    """Explicit denotations over the sequence universe up to maxlen.

    Each denotation is a set of the universe seqs, which is
    all_tuples(n, maxlen) and so has one layout: the length-k block starts
    at offset(k) = sum of n**j over j < k, and inside its block a sequence
    sits at its base-n value, first letter most significant.  So ε is bit 0,
    letter i is bit 1 + i, and pos(x·y) = pos(x)·n^|y| + pos(y).  A plain
    letter denotes the empty sequence plus every single letter below its
    class representative; a star letter denotes all finite concatenations of
    members of its payload's denotations, clipped to the universe.

    A denotation is a bool row in that bit order, and a stack of them one
    row per denotation.  One kernel (products) multiplies stacks in two
    forms: a table, every row against every row, or a zip, row i against
    row i.  product and word_mask are its one-pair and one-word views.
    """

    __slots__ = ("base", "seqs", "_offsets", "_stars")

    def __init__(self, p: FiniteQO, maxlen: int):
        if maxlen < 1:
            # a letter denotes one-letter sequences, so the universe needs them
            raise ValueError(f"maxlen must be at least 1, got {maxlen}")
        self.base = p
        self._offsets = off = [0, *itertools.accumulate(p.n**k for k in range(maxlen + 1))]
        if off[-1] > _SEQ_UNIVERSE_CAP:
            raise ScaleExceededError(f"{off[-1]} sequences exceed the cap of {_SEQ_UNIVERSE_CAP}")
        self.seqs = all_tuples(p.n, maxlen)
        self._stars: dict[Atom, np.ndarray] = {}

    def products(self, X: np.ndarray, Y: np.ndarray, table: bool) -> np.ndarray:
        """The product rows of X's rows with Y's, filled a block of X's rows
        at a time.  As a table they are (len(X), len(Y), width): every row of
        X against every row of Y.  As a zip, (len(X), width): row i against
        row i.  Since offset(i + j) = offset(j) + nʲ·offset(i), a product x·y
        with |y| = j sits at offset(j) + gx·nʲ + pos(y) for x's global
        position gx.  So for each j the universe's tail from offset(j), read
        as a grid of nʲ columns, takes the outer product of the rows'
        prefixes (every x with |x| + j <= maxlen) and their length-j blocks,
        ORed over j.
        """
        off, n = self._offsets, self.base.n
        width = off[-1]
        out = np.empty((len(X), len(Y), width) if table else (len(X), width), dtype=bool)
        for s in _row_blocks(len(X), width * len(Y) if table else width):
            x = X[s, None] if table else X[s]
            y = Y if table else Y[s]
            block = out[s]
            # j = 0: y's length-0 block is its ε bit
            np.logical_and(x, y[..., :1], out=block)
            for j in range(1, len(off) - 1):
                # splitting the last axis of a slice is a view, so |= writes out
                grid = block[..., off[j] :].reshape(*block.shape[:-1], off[-1 - j], n**j)
                grid |= x[..., : off[-1 - j], None] & y[..., None, off[j] : off[j + 1]]
        return out

    def letter_rows(self, letters: Sequence[Atom]) -> np.ndarray:
        """One row per level-1 letter.  The plain letters' rows are one
        slice of base.leq.  The stars not yet held settle together, a star
        over a star refused: the least fixpoint of out = {ε} | inner·out
        over their payloads' plain rows, one zip over all of them.  Squaring
        out = {ε} | inner doubles the factors it spells, and a sequence in
        the universe needs at most maxlen non-empty factors."""
        held, n, width = self._stars, self.base.n, self._offsets[-1]
        # down[c]: ε and every single letter below class c
        down = np.zeros((n, width), dtype=bool)
        down[:, 0] = True
        down[:, 1 : n + 1] = self.base.leq.T
        stars = [a for a in dict.fromkeys(letters) if a.is_idem and a not in held]
        if any(d.is_idem for a in stars for d in a.downset):
            raise ValueError("a star over a star is denoted over a derived carrier")
        if stars:
            payloads = down[[d.base_class for a in stars for d in a.downset]]
            # _idem_atom refuses an empty payload, so each star ORs its own rows
            starts = np.cumsum([0, *(len(a.downset) for a in stars[:-1])])
            out = np.logical_or.reduceat(payloads, starts)
            for _ in range((len(self._offsets) - 3).bit_length()):
                out = self.products(out, out, False)
            held.update(zip(stars, out))
        rows = [held[a] if a.is_idem else down[a.base_class] for a in letters]
        return np.array(rows, dtype=bool).reshape(-1, width)

    def word_rows(self, letters: Sequence[Atom], max_len: int) -> np.ndarray:
        """The rows of every word over letters up to max_len, in all_tuples
        order.  That order lists each length's words prefix-major, so a
        length's rows are one (prefix × letter) table over the length below."""
        rows = self.letter_rows(letters)
        out = [np.eye(1, rows.shape[1], dtype=bool), rows]
        for _ in range(max_len - 1):
            out.append(self.products(out[-1], out[1], True).reshape(-1, rows.shape[1]))
        return np.concatenate(out[: max_len + 1])

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        'The one-pair view of products: the row of x·y.'
        return self.products(x[None], y[None], False)[0]

    def word_mask(self, letters: tuple[Atom, ...]) -> np.ndarray:
        'The one-word view: the letters\' rows folded left by product.'
        rows = self.letter_rows(letters)
        if not len(rows):
            return np.eye(1, rows.shape[1], dtype=bool)[0]
        return functools.reduce(self.product, rows[1:], rows[0])


def check_containment_agreement(
    p: FiniteQO,
    alpha: int,
    maxlen: int = 4,
    max_word_len: int = 3,
) -> Report:
    """Pit the word-order decision against raw denotation containment.

    A word below another must denote a subset; a word not below must be
    refuted by a concrete short sequence.  The word order is one table over
    every pair of words, and bounded inclusion of their rows another
    (_disjoint_table against the complements); the counts are read off the
    two tables.  The rows come from DenotationContext.word_rows, one
    product table per length.  The first violation in row-major order is
    reported, with the last sequence of the universe that its left word
    denotes and its right word does not.  Every pair the universe cannot
    refute is counted, the first ten in row-major order are flagged, and
    any such pair fails the second check: an undecided pair is no evidence
    either way.  The sweep is refused before any word is built when its
    words, sum of k^l over lengths l, make more than _CONTAINMENT_PAIR_CAP
    pairs.  Words are denoted over P_{alpha-1}, a plain letter by its
    point's plain letter, a star by the star over its payload's points; a
    witness spells those points, named p0, p1, ..., by serial.  Each P_k's
    order must equal _letter_table's (letter-order-is-containment).
    """
    if maxlen > 5:
        raise ScaleExceededError("containment sweep is sized for maxlen <= 5")
    system = build_atoms(p, alpha)
    count = sum(len(system.atoms) ** length for length in range(max_word_len + 1))
    if count * count > _CONTAINMENT_PAIR_CAP:
        raise ScaleExceededError(
            f"containment sweep over {count:,} words asks {count * count:,} pairs, "
            f"past the cap of {_CONTAINMENT_PAIR_CAP:,}"
        )
    carrier, names, audit = p, p.elements, None
    # the level-1 letters are their own images over P_0
    letters = system.atoms[: system.level_counts[min(alpha, 1)]]
    for k in range(1, alpha):
        level = system.atoms[: system.level_counts[k]]
        lists = _factor_lists(letters, all_tuples(len(level), 1)[1:], DenotationContext(carrier, 1))
        leq = _contained_table(lists, lists)
        wrong = np.argwhere(leq != _letter_table(level))
        if len(wrong) and audit is None:
            i, j = wrong[0]
            audit = {"level": k, "lhs": level[i].serial, "rhs": level[j].serial}
            audit["contained"] = bool(leq[i, j])
        carrier = FiniteQO([f"p{i}" for i in range(len(level))], leq)
        names = [a.serial for a in level]
        plain = {a: non_idem_atom(carrier, i) for i, a in enumerate(level)}
        letters = [
            _idem_atom(carrier, (plain[d] for d in a.downset)) if a.is_idem else plain[a]
            for a in system.atoms[: system.level_counts[k + 1]]
        ]
    ctx = DenotationContext(carrier, maxlen)
    words = all_tuples(len(system.atoms), max_word_len)
    labels = [[system.atoms[x].serial for x in t] for t in words]
    rows = ctx.word_rows(letters, max_word_len)
    W = _letter_block(words, max_word_len)
    order = _word_order(system.alphabet, W, W, True)
    inside = _disjoint_table(rows, ~rows)
    confirmed = int(np.count_nonzero(order & inside))
    unresolved = int(np.count_nonzero(inside)) - confirmed
    lies = int(np.count_nonzero(order)) - confirmed
    refuted = len(words) ** 2 - confirmed - unresolved - lies
    violation = None
    if lies:
        i, j = np.argwhere(order & ~inside)[0]
        violation = {
            "lhs": labels[i],
            "rhs": labels[j],
            "witness": seq_label(names, ctx.seqs[np.flatnonzero(rows[i] & ~rows[j])[-1]]),
        }
    flagged = [
        {"lhs": labels[i], "rhs": labels[j]}
        for i, j in np.argwhere(inside & ~order)[:10]
    ]
    stats = {
        "atoms": len(system.atoms),
        "words": len(words),
        "pairs": len(words) ** 2,
        "confirmed": confirmed,
        "refuted": refuted,
        "unresolved": unresolved,
    }
    letter_order = CheckResult(
        "letter-order-is-containment", audit is None, audit,
        {"points": list(system.level_counts[1:alpha])},
    )
    return Report(
        "containment-agreement",
        (
            CheckResult("order-implies-containment", violation is None, violation, stats),
            CheckResult(
                "non-order-has-refuting-sequence",
                unresolved == 0,
                None,
                {"unresolved": unresolved, "flagged": flagged},
            ),
            *([letter_order] if alpha >= 2 else []),
        ),
    )


def check_two_forms(
    p: FiniteQO, maxlen: int = 4, max_word_len: int = 3
) -> Report:
    """Every level-1 prime ideal must denote a star set or a down set.

    Primality of word classes comes from the symbolic census; the shape of
    each denotation is then recomputed semantically, as all sequences spelled
    from the denoted single letters (star form) or the empty sequence plus
    those letters (down form).  The star forms are one float32 product of
    the letters' complemented single-letter sets against the letters each
    sequence uses (qo._disjoint_table): a sequence is in the star form when
    it uses no letter outside the set.
    """
    if maxlen < 2:
        # below length 2 a letter's star form and down form are the same set
        raise ValueError(f"two-forms sweep needs maxlen >= 2, got {maxlen}")
    if maxlen > 4:
        raise ScaleExceededError("two-forms sweep is sized for maxlen <= 4")
    system = build_atoms(p, 1)
    primes = hword_primes_check(system.alphabet, maxlen=max_word_len)
    ctx = DenotationContext(p, maxlen)
    rows = ctx.letter_rows(system.atoms)
    letters = rows[:, 1 : p.n + 1]
    # Both forms are spelled from the sequences: an idempotent letter's row is
    # the star fixpoint of its down form, so a star form read from it could never differ.
    # uses[k, c]: sequence k is spelled with letter c
    uses = (_letter_block(ctx.seqs, maxlen)[:, :, None] == np.arange(p.n)).any(1)
    star = _disjoint_table(~letters, uses)
    # the down form keeps the sequences of length at most 1, bits 0 to n
    down = star & (np.arange(rows.shape[1]) <= p.n)
    is_star = (rows == star).all(1)
    is_down = ~is_star & (rows == down).all(1)
    shape_bad = None
    for i in np.flatnonzero(~is_star & ~is_down)[:1]:
        shape_bad = {
            "atom": system.atoms[i].serial,
            "letters": sorted(p.elements[c] for c in np.flatnonzero(letters[i])),
            "extra": [
                seq_label(p.elements, ctx.seqs[k]) for k in np.flatnonzero(rows[i] & ~star[i])[:5]
            ],
        }
    census = dict(primes.check("primes-are-letter-classes").stats)
    census.update({"star_forms": int(is_star.sum()), "down_forms": int(is_down.sum())})
    return Report(
        "two-forms",
        (
            *primes.checks,
            CheckResult("prime-ideal-shapes", shape_bad is None, shape_bad, census),
        ),
    )


def _factor_lists(
    letters: Sequence[Atom], words: Iterable[tuple[int, ...]], ctx: DenotationContext
) -> list[tuple[tuple[str, int], ...]]:
    """Each word, a tuple of indices into letters, as a product of
    letter-set factors.

    A plain letter contributes an optional-single-letter factor, a star
    letter a star factor over its single letters, each set read off the
    one-letter block of the letter's row, bit i for carrier point i.  The
    product is exact, with no length bound: a level-1 letter denotes its
    down form or the star form of its single letters (check_two_forms).
    Adjacent factors a star absorbs are dropped.
    """
    sets = _row_masks(ctx.letter_rows(letters)[:, 1 : ctx.base.n + 1])
    factors = [("s" if a.is_idem else "d", m) for a, m in zip(letters, sets)]
    return [_concat((), tuple(factors[i] for i in t)) for t in words]


def _concat(
    fu: tuple[tuple[str, int], ...], fv: tuple[tuple[str, int], ...]
) -> tuple[tuple[str, int], ...]:
    'Append fv to the normalised list fu; a star absorbs the neighbours it covers.'
    out = list(fu)
    for kind, letters in fv:
        if out and out[-1][0] == "s" and letters & ~out[-1][1] == 0:
            continue
        while kind == "s" and out and out[-1][1] & ~letters == 0:
            out.pop()
        out.append((kind, letters))
    return tuple(out)


def _intern(rows: Iterable[list]) -> tuple[list[tuple[int, ...]], list]:
    'Replace each cell by an integer id; also return the distinct values by id.'
    ids: dict = {}
    out = [tuple(ids.setdefault(v, len(ids)) for v in row) for row in rows]
    return out, list(ids)


def _contained_table(
    lists_u: list[tuple[tuple[str, int], ...]], lists_v: list[tuple[tuple[str, int], ...]]
) -> np.ndarray:
    """Exact inclusion of every factor-product language of lists_u in every
    one of lists_v, no length bound.

    The greedy scan for simple regular expressions (Abdulla,
    Collomb-Annichini, Bouajjani and Jonsson, FMSD 2004): each factor of a
    left list takes the first factor of the right list at or after the
    cursor that covers it, its letters containing the factor's and a star
    needing a star.  The cursor moves past an optional-letter target and
    stays on a star.  The scan relies on the shape of the factors: every
    letter set is a downset, and every optional-letter set is a principal
    downset, because plain letters are carrier classes.  So one covering
    factor exists whenever the top letter fits.

    The distinct factors are interned, and per right list a step table
    moves the cursor: step[j, c, f] is past the first position p >= c of
    list j whose factor covers f, or p itself when that factor is a star,
    and b + 1 when there is none; b + 1 stays, and the padding factor
    leaves the cursor where it is.  Each left factor is then one gather over
    all pairs.
    """
    rows, factors = _intern([*lists_u, *lists_v])
    U, V = (
        _letter_block(part, max(map(len, part), default=0))
        for part in (rows[: len(lists_u)], rows[len(lists_u) :])
    )
    if U.shape[1] == 0:
        return np.ones((len(U), len(V)), dtype=bool)
    # cover[f, g]: g's letters contain f's, and f is no star over a plain g;
    # the last column is the right padding, -1, which is no star and covers nothing
    star = np.array([kind == "s" for kind, _ in factors] + [False])
    cover = np.array([[f & ~g == 0 for _, g in factors] + [False] for _, f in factors])
    cover &= ~(star[:-1, None] & ~star)
    (B, b), F = V.shape, len(factors)
    cur = np.min_scalar_type(b + 1)
    step = np.empty((B, b + 2, F + 1), dtype=cur)
    step[:, b:, :F] = b + 1
    step[..., F] = np.arange(b + 2, dtype=cur)
    for c in range(b - 1, -1, -1):
        col = V[:, c]
        moved = (c + 1 - star[col]).astype(cur)[:, None]
        step[:, c, :F] = np.where(cover[:, col].T, moved, step[:, c + 1, :F])
    iv = np.arange(B)
    cursor = np.zeros((len(U), B), dtype=cur)
    for k in range(U.shape[1]):
        # the left padding reads column F too
        cursor = step[iv, cursor, U[:, k, None]]
    return cursor <= b


def check_xy_wz(
    p: FiniteQO, maxlen: int = 4, max_word_len: int = 2
) -> Report:
    """Containment of denotation products forces a factorwise containment.

    For all level-1 words x, y, w, z: if xy denotes a subset of wz then x
    denotes a subset of w or y a subset of z.  Both sides are decided
    exactly on the denoted languages; deciding the hypothesis only up to
    the length bound would manufacture false hypotheses right at the bound
    (all a-sequences up to length 4 fit below a four-fold product of single
    letters), so the bounded universe serves here as a consistency guard on
    the exact decision rather than as the decision itself.

    The k² pair products are one product table over the word rows, asked
    a _row_blocks slice of left words at a time.  Each is interned once, as
    its (normalised factor list, packed row) pair, and two dense tables
    over the distinct products are filled up front: exact containment of
    the lists (_contained_table) and bounded inclusion of the rows
    (_disjoint_table against the complements).  A word is its product with
    the empty word, so single-word containment is the first column of the
    id array.  The (x, y) rows are then read over all (w, z) a _row_blocks
    slice at a time.  Exact
    containment implies bounded inclusion, which the guard checks on every
    pair of products, so only cells inside the bounded inclusion are read;
    an exact miss there is counted as saturated at the bound.  Counts stop
    at the first violation in (x, y, w, z) order, the quadruples' row-major
    order, and include it.  The sweep is refused before any word is built
    when its words, sum of k^l over lengths l, make more than
    _QUADRUPLE_CAP quadruples.
    """
    if maxlen > 4:
        raise ScaleExceededError("product sweep is sized for maxlen <= 4")
    system = build_atoms(p, 1)
    k = sum(len(system.atoms) ** length for length in range(max_word_len + 1))
    if k**4 > _QUADRUPLE_CAP:
        raise ScaleExceededError(
            f"product sweep over {k:,} words asks {k**4:,} quadruples, "
            f"past the cap of {_QUADRUPLE_CAP:,}"
        )
    ctx = DenotationContext(p, maxlen)
    words = all_tuples(len(system.atoms), max_word_len)
    word_bits = ctx.word_rows(system.atoms, max_word_len)
    lists = _factor_lists(system.atoms, words, ctx)
    labels = [seq_label(system.alphabet.order.elements, t) for t in words]
    packed_rows = (
        cells
        for s in _row_blocks(k, k * word_bits.shape[1])
        for cells in np.packbits(ctx.products(word_bits[s], word_bits, True), axis=-1)
    )
    ids, products = _intern(
        [(_concat(fa, fb), cell.tobytes()) for fb, cell in zip(lists, cells)]
        for fa, cells in zip(lists, packed_rows)
    )
    pid = np.array(ids)
    product_lists, packed = zip(*products)
    contained = _contained_table(product_lists, product_lists)
    bits = np.frombuffer(b"".join(packed), np.uint8).reshape(len(packed), -1)
    bits = np.unpackbits(bits, axis=1, count=word_bits.shape[1]).view(bool)
    bounded = _disjoint_table(bits, ~bits)
    # words[0] is the empty word, and a product with it is the other factor
    exact = contained[np.ix_(pid[:, 0], pid[:, 0])]
    # a lying pair is labelled by the first (x, y) and (w, z) forming its products
    first = np.unique(pid, return_index=True)[1]
    lying = np.argwhere(contained & ~bounded)
    guard_bad = None
    if len(lying):
        guard_bad = dict(zip("xywz", (labels[i] for u in lying[0] for i in divmod(first[u], k))))

    bad = None
    held = saturated = 0
    # a cell of reading is 0 outside the bounded inclusion, 1 inside it and
    # 2 where the exact containment holds too; limit is 2 where a single-word
    # containment holds and 1 where not, so a cell is a violation when it
    # reads more than the or of its two limits, which is 1 only when both are
    reading = np.add(bounded, bounded & contained, dtype=np.uint8)
    limit = np.where(exact, 2, 1).astype(np.uint8)
    wz = pid.ravel()
    for s in _row_blocks(k * k, k * k):
        x, y = divmod(np.arange(*s.indices(k * k)), k)
        block = np.take(reading[wz[s]], wz, axis=1).ravel()
        over = block > (limit[x][:, :, None] | limit[y][:, None, :]).ravel()
        miss = over.any()
        read = block[: over.argmax() + 1] if miss else block
        held_here = np.count_nonzero(read == 2)
        held += held_here
        saturated += np.count_nonzero(read) - held_here
        if miss:
            cell = np.unravel_index(s.start * k * k + len(read) - 1, (k,) * 4)
            bad = dict(zip("xywz", (labels[i] for i in cell)))
            break
    stats = {
        "words": k,
        "quadruples": k**4,
        "containments": int(held),
        "saturated_at_bound": int(saturated),
    }
    return Report(
        "product-containment",
        (
            CheckResult("factor-containment-forced", bad is None, bad, stats),
            CheckResult(
                "exact-implies-bounded", guard_bad is None, guard_bad,
                {"products": len(products), "pairs": len(products) ** 2},
            ),
        ),
    )
