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
    refuted by a concrete short sequence.  Every pair the universe cannot
    refute is counted, the first ten are flagged, and any such pair fails
    the second check: an undecided pair is no evidence either way.
    """
    if alpha > 2 or maxlen > 5:
        raise ScaleExceededError("containment sweep is sized for alpha <= 2, maxlen <= 5")
    system = build_atoms(p, alpha)
    ctx = DenotationContext(p, maxlen)
    words = all_tuples(len(system.atoms), max_word_len)
    hwords = [HWord(system.alphabet, t) for t in words]
    masks = [ctx.word_mask(tuple(system.atoms[i] for i in t)) for t in words]
    W = _letter_block(words, max_word_len)
    table = _word_order(system.alphabet, W, W, True).tolist()

    violation = None
    flagged: list[dict] = []
    confirmed = refuted = unresolved = 0
    for i, u in enumerate(hwords):
        for j, v in enumerate(hwords):
            sym = table[i][j]
            contained = masks[i] & ~masks[j] == 0
            if sym and not contained:
                if violation is None:
                    bit = (masks[i] & ~masks[j]).bit_length() - 1
                    violation = {
                        "lhs": list(u.labels),
                        "rhs": list(v.labels),
                        "witness": seq_label(p, ctx.seqs[bit]),
                    }
            elif sym:
                confirmed += 1
            elif not contained:
                refuted += 1
            else:
                unresolved += 1
                if len(flagged) < 10:
                    flagged.append({"lhs": list(u.labels), "rhs": list(v.labels)})
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


def _product_contained(
    fu: tuple[tuple[str, int], ...], fv: tuple[tuple[str, int], ...]
) -> bool:
    """Exact inclusion of two factor-product languages, no length bound.

    The greedy scan for simple regular expressions (Abdulla,
    Collomb-Annichini, Bouajjani and Jonsson, FMSD 2004): each factor of fu
    takes the first factor of fv at or after the cursor whose letters cover
    its own, and a star needs a star.  The cursor moves past an
    optional-letter target and stays on a star.  The scan relies on the
    shape of the factors: every letter set is a downset, and every
    optional-letter set is a principal downset, because plain letters are
    carrier classes.  So one covering factor exists whenever the top letter
    fits.
    """
    j = 0
    for kind, letters in fu:
        while j < len(fv) and (letters & ~fv[j][1] or kind == "s" and fv[j][0] == "d"):
            j += 1
        if j == len(fv):
            return False
        if fv[j][0] == "d":
            j += 1
    return True


def _intern(rows: list[list]) -> tuple[np.ndarray, list]:
    'Replace each cell by an integer id; also return the distinct values by id.'
    ids: dict = {}
    out = [[ids.setdefault(v, len(ids)) for v in row] for row in rows]
    return np.array(out), list(ids)


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
    filled up front: exact containment by greedy inclusion
    (_product_contained) of the lists, and bounded inclusion of the masks.
    A word is its product with the empty word, so single-word containment
    is the first column of the id array.  Each (x, y) row then reads both
    tables over all (w, z) at once.  Exact containment implies bounded
    inclusion, which the guard checks on every pair of products, so only
    cells inside the bounded inclusion are read; an exact miss there is
    counted as saturated at the bound.  Counts stop at the first violation
    in (x, y, w, z) order.
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

    pid, products = _intern(
        [[(_concat(fa, fb), ctx.product(ma, mb)) for fb, mb in singles] for fa, ma in singles]
    )
    contained = np.array([[_product_contained(fu, fv) for fv, _ in products] for fu, _ in products])
    bounded = np.array([[mu & ~mv == 0 for _, mv in products] for _, mu in products])
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
    for x, y in itertools.product(range(k), repeat=2):
        inside = bounded[pid[x, y]][pid].ravel()
        fits = inside & contained[pid[x, y]][pid].ravel()
        misses = np.flatnonzero(fits & ~(exact[x][:, None] | exact[y]).ravel())
        stop = misses[0] + 1 if len(misses) else k * k
        held_here = np.count_nonzero(fits[:stop])
        held += held_here
        saturated += np.count_nonzero(inside[:stop]) - held_here
        if len(misses):
            bad = dict(zip("xywz", (labels[i] for i in (x, y, *divmod(misses[0], k)))))
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
