"""Brute-force ground truth over bounded-length sequences.

The semantic side here is deliberately primitive: symbolic letters denote
explicit sets of short sequences over the carrier, and the theorem checks
compare those sets bit by bit.  The bits follow the one layout of the
universe that DenotationContext states, so a product of two sets is
arithmetic on positions, with no split table.  Products of level-1
denotations are also decided with no length bound, by greedy inclusion of
factor products, and the bounded bitmasks guard that decision.  None of it
consults the word-embedding decision procedure or the letter-order rules, so
agreement between the two routes is evidence rather than wiring.  The
check_* drivers are the only places both routes meet.

Both inclusions are asked a table at a time: _contained_table runs the
greedy over per-list step tables, and _included_table compares unpacked
universe bits, in row blocks of at most _BLOCK_CELLS cells.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import ScaleExceededError
from .higman import HWord, _letter_block, _word_order, hword_primes_check
from .hierarchy import Atom, build_atoms
from .qo import FiniteQO, _bits, _element_masks, all_tuples
from .report import CheckResult, Report

_SEQ_UNIVERSE_CAP = 200_000
# word pairs one containment sweep may ask: the discrete 4-point carrier at
# alpha 1 asks 7,240^2, about 52.4 M
_CONTAINMENT_PAIR_CAP = 1 << 26
# cells one block of a containment table, or of check_xy_wz's quadruple
# rows, holds at once
_BLOCK_CELLS = 1 << 20


def seq_label(p: FiniteQO, s: tuple[int, ...]) -> str:
    return ".".join(p.elements[i] for i in s) if s else "ε"


class DenotationContext:
    """Explicit denotations over the sequence universe up to maxlen.

    Each denotation is an int bitmask over the universe seqs, which is
    all_tuples(n, maxlen) and so has one layout: the length-k block starts
    at offset(k) = sum of n**j over j < k, and inside its block a sequence
    sits at its base-n value, first letter most significant.  So ε is bit 0,
    letter i is bit 1 + i, and pos(x·y) = pos(x)·n^|y| + pos(y).  A plain
    letter denotes the empty sequence plus every single letter below its
    class representative; a star letter denotes all finite concatenations of
    members of its payload's denotations, clipped to the universe.
    """

    __slots__ = ("base", "seqs", "_offsets", "_word_masks")

    def __init__(self, p: FiniteQO, maxlen: int):
        if maxlen < 1:
            # a letter denotes one-letter sequences, so the universe needs them
            raise ValueError(f"maxlen must be at least 1, got {maxlen}")
        self.base = p
        self._offsets = off = [0, *itertools.accumulate(p.n**k for k in range(maxlen + 1))]
        if off[-1] > _SEQ_UNIVERSE_CAP:
            raise ScaleExceededError(f"{off[-1]} sequences exceed the cap of {_SEQ_UNIVERSE_CAP}")
        self.seqs = all_tuples(p.n, maxlen)
        self._word_masks: dict[tuple[Atom, ...], int] = {}

    def single_letters(self, mask: int) -> int:
        'Bit i is set when the denotation holds the one-letter sequence (i,).'
        return mask >> 1 & (1 << self.base.n) - 1

    def _star(self, mask: int) -> int:
        # The least fixpoint of out = {ε} | mask·out; each round adds one
        # more factor, so it settles within maxlen + 1 rounds.
        out = 1
        while (grown := out | self.product(mask, out)) != out:
            out = grown
        return out

    def product(self, mx: int, my: int) -> int:
        # pos(x·y) = pos(x)·nʲ + pos(y) for |y| = j, so spreading mx's bits nʲ
        # apart and multiplying by my's length-j block, which spans nʲ bits,
        # lays one copy of that block at each x, without carries.
        off, n = self._offsets, self.base.n
        out = 0
        for j in range(len(off) - 1):
            x = mx & (1 << off[-1 - j]) - 1  # the x with |x| + j <= maxlen
            y = my & (1 << off[j + 1]) - (1 << off[j])
            if x and y:
                out |= int(("0" * (n**j - 1)).join(format(x, "b")), 2) * y
        return out

    def word_mask(self, letters: tuple[Atom, ...]) -> int:
        got = self._word_masks.get(letters)
        if got is not None:
            return got
        if not letters:
            out = 1
        elif len(letters) > 1:
            out = self.product(self.word_mask(letters[:-1]), self.word_mask(letters[-1:]))
        elif not letters[0].is_idem:
            out = 1 | _element_masks(self.base)[0][letters[0].base_class] << 1
        else:
            inner = 0
            for d in letters[0].downset:
                inner |= self.word_mask((d,))
            out = self._star(inner)
        self._word_masks[letters] = out
        return out


def check_containment_agreement(
    p: FiniteQO,
    alpha: int,
    maxlen: int = 4,
    max_word_len: int = 3,
) -> Report:
    """Pit the word-order decision against raw denotation containment.

    A word below another must denote a subset; a word not below must be
    refuted by a concrete short sequence.  The word order is one table over
    every pair of words, and bounded inclusion of their masks another
    (_included_table); the counts are read off the two tables.  The first
    violation in row-major order is reported, with the last sequence of the
    universe that its left word denotes and its right word does not.  Every
    pair the universe cannot refute is counted, the first ten in row-major
    order are flagged, and any such pair fails the second check: an
    undecided pair is no evidence either way.  The sweep is refused before
    any word is built when its words, sum of k^l over lengths l, make more
    than _CONTAINMENT_PAIR_CAP pairs.
    """
    if alpha > 2 or maxlen > 5:
        raise ScaleExceededError("containment sweep is sized for alpha <= 2, maxlen <= 5")
    system = build_atoms(p, alpha)
    count = sum(len(system.atoms) ** length for length in range(max_word_len + 1))
    if count * count > _CONTAINMENT_PAIR_CAP:
        raise ScaleExceededError(
            f"containment sweep over {count:,} words asks {count * count:,} pairs, "
            f"past the cap of {_CONTAINMENT_PAIR_CAP:,}"
        )
    ctx = DenotationContext(p, maxlen)
    words = all_tuples(len(system.atoms), max_word_len)
    hwords = [HWord(system.alphabet, t) for t in words]
    masks = [ctx.word_mask(tuple(system.atoms[i] for i in t)) for t in words]
    W = _letter_block(words, max_word_len)
    order = _word_order(system.alphabet, W, W, True)
    inside = _included_table(masks, masks, len(ctx.seqs))
    confirmed = int(np.count_nonzero(order & inside))
    unresolved = int(np.count_nonzero(inside)) - confirmed
    lies = int(np.count_nonzero(order)) - confirmed
    refuted = len(words) ** 2 - confirmed - unresolved - lies
    violation = None
    if lies:
        i, j = np.argwhere(order & ~inside)[0]
        violation = {
            "lhs": list(hwords[i].labels),
            "rhs": list(hwords[j].labels),
            "witness": seq_label(p, ctx.seqs[(masks[i] & ~masks[j]).bit_length() - 1]),
        }
    flagged = [
        {"lhs": list(hwords[i].labels), "rhs": list(hwords[j].labels)}
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
        ),
    )


def check_two_forms(
    p: FiniteQO, maxlen: int = 4, max_word_len: int = 3
) -> Report:
    """Every level-1 prime ideal must denote a star set or a down set.

    Primality of word classes comes from the symbolic census; the shape of
    each denotation is then recomputed semantically, as all sequences spelled
    from the denoted single letters (star form) or the empty sequence plus
    those letters (down form).
    """
    if maxlen > 4:
        raise ScaleExceededError("two-forms sweep is sized for maxlen <= 4")
    system = build_atoms(p, 1)
    primes = hword_primes_check(system.alphabet, maxlen=max_word_len)
    ctx = DenotationContext(p, maxlen)

    shape_bad = None
    star_forms = down_forms = 0
    for atom in system.atoms:
        mask = ctx.word_mask((atom,))
        letters = ctx.single_letters(mask)
        # Both forms are spelled from the sequences: an idempotent letter's mask is
        # _star of its down form, so a star form read from _star could never differ.
        star_mask = down_mask = 0
        for k, s in enumerate(ctx.seqs):
            if all(letters >> c & 1 for c in s):
                star_mask |= 1 << k
                if len(s) <= 1:
                    down_mask |= 1 << k
        if mask == star_mask:
            star_forms += 1
        elif mask == down_mask:
            down_forms += 1
        elif shape_bad is None:
            shape_bad = {
                "atom": atom.serial,
                "letters": sorted(p.elements[i] for i in range(p.n) if letters >> i & 1),
                "extra": [
                    seq_label(p, ctx.seqs[k]) for k in _bits(mask & ~star_mask & ~down_mask)[:5]
                ],
            }
    census = dict(primes.check("primes-are-letter-classes").stats)
    census.update({"star_forms": star_forms, "down_forms": down_forms})
    return Report(
        "two-forms",
        (
            *primes.checks,
            CheckResult("prime-ideal-shapes", shape_bad is None, shape_bad, census),
        ),
    )


def _factor_list(letters: tuple[Atom, ...], ctx: DenotationContext) -> tuple[tuple[str, int], ...]:
    """A word's denotation as a product of letter-set factors.

    A plain letter contributes an optional-single-letter factor, a star
    letter contributes a star factor over its single letters, each set read
    off the one-letter block of the letter's mask.  That is exact
    for the oracle's semantics, which flattens every level to sequences over
    p (starring a union of star-or-down pieces stars their single letters),
    and so for the paper's at level 1 only; level 2 waits for a derived
    carrier whose points are the level-1 letters.  Adjacent factors a star
    absorbs are dropped.
    """
    sets = [ctx.single_letters(ctx.word_mask((a,))) for a in letters]
    return _concat((), tuple(("s" if a.is_idem else "d", m) for a, m in zip(letters, sets)))


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


def _intern(rows: list) -> tuple[list[tuple[int, ...]], list]:
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


def _included_table(masks_u: list[int], masks_v: list[int], nbits: int) -> np.ndarray:
    """Bounded inclusion, mu & ~mv == 0, of every mask of masks_u in every
    mask of masks_v over a universe of nbits sequences.

    The masks are unpacked into rows of bits, and a block of rows of masks_u
    at a time is one float32 product against the complements of masks_v: a
    cell counts the sequences the left mask holds and the right one lacks.
    The count is at most _SEQ_UNIVERSE_CAP < 2**24, so float32 holds it
    exactly.  A block holds at most _BLOCK_CELLS cells.
    """
    width = (nbits + 7) // 8
    u, v = (
        np.unpackbits(
            np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
            .reshape(len(masks), width),
            axis=1, count=nbits, bitorder="little",
        )
        for masks in (masks_u, masks_v)
    )
    outside = (1 - v.T).astype(np.float32)
    out = np.empty((len(u), len(v)), dtype=bool)
    rows = max(1, _BLOCK_CELLS // max(1, len(v)))
    for r in range(0, len(u), rows):
        out[r : r + rows] = u[r : r + rows].astype(np.float32) @ outside == 0
    return out


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

    Each pair product is interned once, as its (normalised factor list,
    bounded mask) pair, and two dense tables over the distinct products are
    filled up front: exact containment of the lists (_contained_table) and
    bounded inclusion of the masks (_included_table).  A word is its
    product with the empty word, so single-word containment is the first
    column of the id array.  The (x, y) rows are then read over all (w, z)
    a block of rows at a time, at most _BLOCK_CELLS cells per block.  Exact
    containment implies bounded inclusion, which the guard checks on every
    pair of products, so only cells inside the bounded inclusion are read;
    an exact miss there is counted as saturated at the bound.  Counts stop
    at the first violation in (x, y, w, z) order, the quadruples' row-major
    order, and include it.
    """
    if maxlen > 4:
        raise ScaleExceededError("product sweep is sized for maxlen <= 4")
    system = build_atoms(p, 1)
    ctx = DenotationContext(p, maxlen)
    words = all_tuples(len(system.atoms), max_word_len)
    atoms = [tuple(system.atoms[i] for i in t) for t in words]
    singles = [(_factor_list(t, ctx), ctx.word_mask(t)) for t in atoms]
    k = len(words)
    labels = [".".join(system.atoms[i].serial for i in t) or "ε" for t in words]

    ids, products = _intern(
        [[(_concat(fa, fb), ctx.product(ma, mb)) for fb, mb in singles] for fa, ma in singles]
    )
    pid = np.array(ids)
    lists, masks = zip(*products)
    contained = _contained_table(lists, lists)
    bounded = _included_table(masks, masks, len(ctx.seqs))
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
    rows = max(1, _BLOCK_CELLS // (k * k))
    for r in range(0, k * k, rows):
        x, y = divmod(np.arange(r, min(r + rows, k * k)), k)
        block = np.take(reading[wz[r : r + rows]], wz, axis=1).ravel()
        over = block > (limit[x][:, :, None] | limit[y][:, None, :]).ravel()
        miss = over.any()
        read = block[: over.argmax() + 1] if miss else block
        held_here = np.count_nonzero(read == 2)
        held += held_here
        saturated += np.count_nonzero(read) - held_here
        if miss:
            cell = np.unravel_index(r * k * k + len(read) - 1, (k,) * 4)
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
