"""Generalized word embeddings over an ordered alphabet with designated
idempotent letters.

A word embeds into another when a weakly increasing map matches every letter
to a letter above it, and only idempotent target letters may absorb more than
one source letter.  With no idempotent letters this is the classical sequence
embedding; with all letters idempotent it is domination of supports.  The
decision is a greedy leftmost match, one numpy kernel that answers a table
or a zip of padded words over a stack of alphabets; its ground truth is the
explicit search over all weakly increasing maps, another such kernel, and
the two are swept against each other a whole block at a time.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import AlphabetMismatchError, ScaleExceededError, TooLargeError
from .monoid import MonoidalQO, primes as monoid_primes
from .qo import (
    FiniteQO,
    _bits,
    _canonical_relation_keys,
    _checked_indices,
    _letter_block,
    _row_blocks,
    all_downsets_of_poset,
    all_quasi_orders,
    all_tuples,
    seq_label,
)
from .report import CheckResult, Report

# longest word the explicit witness search accepts
_BRUTEFORCE_MAX_LEN = 8
# longest prime product on each side of check_abstractly_higman
_MAX_TUPLE = 3
# words per block of hword_primes_check's class search
_CLASS_BLOCK = 512


class AtomAlphabet:
    """An ordered alphabet split into plain and idempotent letters.

    The plain part must be downward-closed: nothing idempotent may sit below
    a plain letter.  That is checked on construction.
    """

    __slots__ = ("order", "idem", "_stack")

    def __init__(self, order: FiniteQO, idem: Iterable[int]) -> None:
        # ascending, so the first offending letter depends only on the set
        rows = sorted(set(_checked_indices(order, idem)))
        plain = np.ones(order.n, dtype=bool)
        plain[rows] = False
        bad = np.argwhere(order.leq[rows] & plain)
        if len(bad):
            i, j = rows[bad[0, 0]], bad[0, 1]
            raise ValueError(
                f"idempotent letter {order.elements[i]!r} sits below "
                f"plain letter {order.elements[j]!r}; the plain part "
                "must be downward-closed"
            )
        self.order = order
        self.idem = frozenset(rows)
        # the alphabet as a stack of one, the shape _embedding takes
        self._stack = (order.leq[None], _idem_vector(order.n, rows)[None])

    def __repr__(self) -> str:
        return (
            f"AtomAlphabet({list(self.order.elements)!r}, "
            f"idem={sorted(self.order.elements[i] for i in self.idem)!r})"
        )


class HWord:
    'A finite word of alphabet letters; the empty word is allowed.'

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: AtomAlphabet, letters: Iterable[int]) -> None:
        self.alphabet = alphabet
        self.letters = tuple(_checked_indices(alphabet.order, letters))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.alphabet.order.elements[i] for i in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HWord)
            and self.alphabet is other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"HWord({seq_label(self.alphabet.order.elements, self.letters)})"


def concat(u: HWord, v: HWord) -> HWord:
    if u.alphabet is not v.alphabet:
        raise AlphabetMismatchError("cannot concatenate words over different alphabets")
    return HWord(u.alphabet, u.letters + v.letters)


def _embedding(
    U: np.ndarray, V: np.ndarray, iu, iv, leq: np.ndarray, idem: np.ndarray
) -> np.ndarray:
    """The greedy leftmost match over a stack of alphabets of one carrier size.

    U is A x a and V is B x b, rows of letters padded on the right with -1,
    leq is S x n x n and idem is S x n.  The row indices iu and iv broadcast
    to the result's shape after the stack axis: iu = arange(A)[:, None] with
    iv = arange(B) asks every pair (a table), iu = iv = arange(N) row i
    against row i (a zip).  Per row of V a step table moves the cursor:
    step[s, j, c, x] is past the first position p >= c of V[j] whose letter
    lies above x, or p itself when that letter is idempotent, and b + 1 when
    there is none; b + 1 stays, and the padding letter leaves the cursor
    where it is.  Each letter of U is then one gather.
    """
    shape = (len(leq), *np.broadcast_shapes(np.shape(iu), np.shape(iv)))
    if U.shape[1] == 0:
        return np.ones(shape, dtype=bool)
    (S, n), (B, b) = idem.shape, V.shape
    cur = np.min_scalar_type(b + 1)
    # letter n, which V's padding reads as -1, is above nothing
    above = np.concatenate([leq.transpose(0, 2, 1), np.zeros((S, 1, n), dtype=bool)], 1)
    stay = np.concatenate([idem, np.zeros((S, 1), dtype=bool)], 1).astype(cur)
    step = np.empty((S, B, b + 2, n + 1), dtype=cur)
    step[:, :, b:, :n] = b + 1
    step[..., n] = np.arange(b + 2, dtype=cur)
    for c in range(b - 1, -1, -1):
        col = V[:, c]
        moved = (c + 1 - stay[:, col])[..., None]
        step[:, :, c, :n] = np.where(above[:, col], moved, step[:, :, c + 1, :n])
    s = np.arange(S).reshape(-1, *[1] * (len(shape) - 1))
    cursor = np.zeros(shape, dtype=cur)
    for k in range(U.shape[1]):
        # U's padding reads column n too
        cursor = step[s, iv, cursor, U[iu, k]]
    return cursor <= b


def _word_order(alphabet: AtomAlphabet, U: np.ndarray, V: np.ndarray, table: bool) -> np.ndarray:
    """The embedding of every row of U into every row of V, a table, or with
    table unset of row i of U into row i of V, a zip."""
    iu = np.arange(len(U))
    return _embedding(U, V, iu[:, None] if table else iu, np.arange(len(V)), *alphabet._stack)[0]


def leq_H(u: HWord, v: HWord) -> bool:
    """Generalized embedding of u into v, the one-pair view of _embedding.

    The greedy is complete by an exchange argument: its cursor never passes
    that of any witness map.  One pair costs tens of microseconds, about a
    hundred times a scalar greedy loop, so no package loop asks pair by pair.
    """
    if u.alphabet is not v.alphabet:
        raise AlphabetMismatchError("cannot compare words over different alphabets")
    U, V = _letter_block([u.letters], len(u)), _letter_block([v.letters], len(v))
    return bool(_word_order(u.alphabet, U, V, table=False)[0])


@lru_cache(maxsize=None)
def _weakly_increasing_maps(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every weakly increasing map from range(n) into range(m), one per row in
    lexicographic order, and the mask of positions whose target repeats the
    previous position's."""
    maps = list(itertools.combinations_with_replacement(range(m), n))
    f = np.array(maps, dtype=np.intp).reshape(len(maps), n)
    rep = np.zeros(f.shape, dtype=bool)
    rep[:, 1:] = f[:, 1:] == f[:, :-1]
    f.flags.writeable = rep.flags.writeable = False
    return f, rep


def _check_witness_len(length: int) -> None:
    'Refuse a witness search over words longer than _BRUTEFORCE_MAX_LEN.'
    if length > _BRUTEFORCE_MAX_LEN:
        raise TooLargeError(f"witness search is capped at length {_BRUTEFORCE_MAX_LEN}")


def _witness_table(
    U: np.ndarray, V: np.ndarray, leq: np.ndarray, idem: np.ndarray
) -> np.ndarray:
    """The explicit witness search on a block of equal-length letter tuples,
    over a stack of alphabets of one carrier size.

    U is A x a and V is B x b, leq is S x n x n and idem is S x n; entry
    (s, i, j) of the S x A x B result says whether some weakly increasing map
    sends each letter of U[i] below its target in V[j] in alphabet s, with
    every target hit more than once idempotent there.  Rows of U are taken
    in qo._row_blocks slices of the alphabet-by-row-by-map intermediate, and
    each slice is matched one position at a time.  Words over the length
    cap are refused before any map is built.
    """
    _check_witness_len(max(U.shape[1], V.shape[1]))
    f, rep = _weakly_increasing_maps(U.shape[1], V.shape[1])
    targets = V[:, f]
    # per alphabet, the maps whose repeated targets are all idempotent
    absorbs = (~rep | idem[:, targets]).all(-1)[:, None]
    out = []
    for s in _row_blocks(len(U), absorbs.size):
        rows = U[s, None, None]
        found = np.repeat(absorbs, len(rows), axis=1)
        for k in range(U.shape[1]):
            found &= leq[:, rows[..., k], targets[..., k]]
        out.append(found.any(-1))
    return np.concatenate(out, axis=1)


def _idem_vector(n: int, idem: Iterable[int]) -> np.ndarray:
    'The boolean vector over range(n) that marks the letters in idem.'
    out = np.zeros(n, dtype=bool)
    out[list(idem)] = True
    return out


def leq_H_bruteforce(u: HWord, v: HWord) -> bool:
    'Ground truth by the explicit witness search, guarded against long words.'
    if u.alphabet is not v.alphabet:
        raise AlphabetMismatchError("cannot compare words over different alphabets")
    U, V = _letter_block([u.letters], len(u)), _letter_block([v.letters], len(v))
    return bool(_witness_table(U, V, *u.alphabet._stack)[0, 0, 0])


def equiv_H(u: HWord, v: HWord) -> bool:
    return leq_H(u, v) and leq_H(v, u)


def word_is_idempotent(w: HWord) -> bool:
    'Does the word absorb its own square?'
    return equiv_H(concat(w, w), w)


def _canonical_rows(alphabet: AtomAlphabet, W: np.ndarray) -> np.ndarray:
    """canonical_word on every row of a -1-padded letter block at once: each
    round drops the letter at a row's position, from 0, if the row stays
    equivalent to how it started, and moves the position on otherwise, one
    zip each way over the rows not yet done, at most one round a letter."""
    out, pos = W.copy(), np.zeros(len(W), dtype=np.intp)
    length, cols = (W >= 0).sum(1), np.arange(W.shape[1])
    live = np.flatnonzero(length)
    while live.size:
        padded = np.pad(out[live], ((0, 0), (0, 1)), constant_values=-1)
        shorter = np.take_along_axis(padded, cols + (cols >= pos[live, None]), 1)
        same = _word_order(alphabet, shorter, W[live], False)
        same &= _word_order(alphabet, W[live], shorter, False)
        out[live[same]] = shorter[same]
        length[live[same]] -= 1
        pos[live[~same]] += 1
        live = live[pos[live] < length[live]]
    return out


def canonical_word(w: HWord) -> HWord:
    """Drop letters left to right while the word stays equivalent, the
    one-word case of _canonical_rows.  Equal inputs canonicalize identically;
    that equivalent words canonicalize to letterwise equivalent words is a
    tested property, not something callers may assume."""
    (row,) = _canonical_rows(w.alphabet, _letter_block([w.letters], len(w))).tolist()
    return HWord(w.alphabet, [x for x in row if x >= 0])


def all_words(alphabet: AtomAlphabet, maxlen: int) -> list[HWord]:
    'Every word up to maxlen, ordered by length then letter indices.'
    return [HWord(alphabet, t) for t in all_tuples(alphabet.order.n, maxlen)]


def hword_primes_check(alphabet: AtomAlphabet, maxlen: int = 4) -> Report:
    """Exhaustively confirm which words are prime in the concatenation monoid.

    A word is prime when it is not equivalent to the empty word and every
    splitting into two factors leaves one factor equivalent to the whole.
    The claims checked: primes are exactly the words equivalent to a single
    letter, and the idempotent primes are exactly those equivalent to an
    idempotent letter.  A class is represented by its first word in shortlex
    order, found _CLASS_BLOCK words at a time against the representatives
    so far, then within the block.

    Splits are read off cuts.  w <= a.b exactly when some cut w = w1.w2 has
    w1 <= a and w2 <= b, as a witness sends a prefix of w into a and the
    rest into b.  Factors sit below their product, so w has a splitting with
    neither factor equivalent to it exactly when some a.b ~ w has a < w and
    b < w; its cut then has w1 < w and w2 < w, and such a cut is a splitting
    itself.  So a nonempty class is prime exactly when no cut of its
    representative has both parts strictly below it, for factors of any
    length, and one zip of parts against representatives, each way, decides.
    """
    if maxlen > 6:
        raise TooLargeError("prime scan is capped at words of length 6")
    words = all_tuples(alphabet.order.n, maxlen)
    if maxlen < 2:
        # no representative shorter than 2 has a cut, so the census could not fail
        raise ValueError(f"prime scan needs words of length at least 2, got {maxlen}")
    W = _letter_block(words, maxlen)
    reps = np.zeros(0, dtype=np.intp)
    for start in range(0, len(W), _CLASS_BLOCK):
        new = np.arange(start, min(start + _CLASS_BLOCK, len(W)))
        # with no representatives yet, every word of the block is new
        if len(reps):
            R, B = W[reps], W[new]
            known = _word_order(alphabet, B, R, True) & _word_order(alphabet, R, B, True).T
            new = new[~known.any(1)]
        if not len(new):
            continue
        tied = _word_order(alphabet, W[new], W[new], True)
        # a word tied to an earlier one is tied to that one's representative
        reps = np.concatenate([reps, new[~np.tril(tied & tied.T, -1).any(1)]])
    rep_words = [words[r] for r in reps]
    cuts = [(r, w[:c], w[c:]) for r, w in enumerate(rep_words) for c in range(1, len(w))]
    parts = _letter_block([x for _, w1, w2 in cuts for x in (w1, w2)], maxlen)
    whole = W[reps[[r for r, _, _ in cuts for _ in (1, 2)]]]
    below = _word_order(alphabet, parts, whole, False) & ~_word_order(alphabet, whole, parts, False)
    split = np.zeros(len(reps), dtype=bool)
    split[[r for (r, _, _), hit in zip(cuts, below[::2] & below[1::2]) if hit]] = True
    # a representative comes first in shortlex order, and no nonempty word embeds in ε
    lengths = np.array([len(w) for w in rep_words], dtype=np.intp)
    claimed, actual = lengths == 1, (lengths > 0) & ~split
    primes = np.flatnonzero(actual)
    P = W[reps[primes]]
    P2 = _letter_block([rep_words[r] * 2 for r in primes], 2 * maxlen)
    idem_actual = _word_order(alphabet, P2, P, False) & _word_order(alphabet, P, P2, False)
    # equivalent letters are of one kind, as the plain part is downward closed
    idem_claimed = [bool(claimed[r]) and rep_words[r][0] in alphabet.idem for r in primes]
    labels = [[alphabet.order.elements[i] for i in w] for w in rep_words]
    prime_bad = idem_bad = None
    for r in np.flatnonzero(claimed != actual)[:1]:
        prime_bad = {"word": labels[r], "letter-class": bool(claimed[r]), "prime": bool(actual[r])}
    for r, c, a in zip(primes, idem_claimed, idem_actual):
        if c != a and idem_bad is None:
            idem_bad = {"word": labels[r], "idem-letter-class": c, "idempotent": bool(a)}
    stats = {
        "words": len(words),
        "classes": len(reps),
        "prime_classes": len(primes),
        "idem_prime_classes": int(idem_actual.sum()),
    }
    return Report(
        "word-primes",
        (
            CheckResult("primes-are-letter-classes", prime_bad is None, prime_bad, stats),
            CheckResult(
                "idempotent-primes-are-idempotent-letters", idem_bad is None, idem_bad
            ),
        ),
    )


def check_abstractly_higman(m: MonoidalQO) -> Report:
    """Does comparison of prime products reduce to letterwise matching?

    Products of at most three primes on each side: the left product sits
    below the right one exactly when a weakly increasing map matches every
    left prime below its target and only idempotent targets absorb more than
    one.  Both directions are checked; a failure of either is reported with
    the offending tuples.
    """
    leq = m.order.leq
    M = m.mult
    ps = sorted(monoid_primes(m))
    if len(ps) ** _MAX_TUPLE > 200_000:
        raise ScaleExceededError("too many prime tuples")
    idem = _idem_vector(m.order.n, (p for p in ps if leq[M[p, p], p] and leq[p, M[p, p]]))[None]

    def prod(tup: tuple[int, ...]) -> int:
        acc = m.unit
        for x in tup:
            acc = int(M[acc, x])
        return acc

    tuples = [tuple(ps[i] for i in t) for t in all_tuples(len(ps), _MAX_TUPLE)]
    prods = np.array([prod(t) for t in tuples], dtype=np.intp)
    # all_tuples lists shorter tuples first, so the length blocks tile the
    # table; it is decided a slice of rows at a time, up to the first failure
    blocks = [
        _letter_block([t for t in tuples if len(t) == k], k) for k in range(_MAX_TUPLE + 1)
    ]
    slices = [U[s] for U in blocks for s in _row_blocks(len(U), len(tuples))]

    bad = None
    checked = len(tuples) ** 2
    row = 0
    for U in slices:
        matched = np.hstack([_witness_table(U, V, leq[None], idem)[0] for V in blocks])
        ordered = leq[np.ix_(prods[row : row + len(U)], prods)]
        wrong = np.flatnonzero(matched != ordered)
        if wrong.size:
            i, j = divmod(int(wrong[0]), len(tuples))
            bad = {
                "left": [m.label(x) for x in tuples[row + i]],
                "right": [m.label(x) for x in tuples[j]],
                "products-ordered": bool(ordered[i, j]),
                "letterwise-match": bool(matched[i, j]),
            }
            checked = (row + i) * len(tuples) + j + 1
            break
        row += len(U)
    return Report(
        "prime-product-matching",
        (
            CheckResult(
                "products-compare-letterwise",
                bad is None,
                bad,
                {"prime_count": len(ps), "tuple_pairs": checked},
            ),
        ),
    )


_TOP = "⊤"


def bounded_word_monoid(
    alphabet: AtomAlphabet, maxlen: int, reduce: bool = False
) -> MonoidalQO:
    """All words up to maxlen plus an absorbing top, under concatenation.

    Products that overflow the length bound collapse to the top element,
    which sits above everything.  With reduce set, products are first
    shortened to canonical form, which keeps alphabets whose letters are all
    idempotent from overflowing at all.
    """
    words = all_tuples(alphabet.order.n, maxlen)
    k = len(words)
    index = {w: i for i, w in enumerate(words)}
    labels = [seq_label(alphabet.order.elements, w) for w in words]
    W = _letter_block(words, maxlen)
    table = np.ones((k + 1, k + 1), dtype=bool)
    table[:k, :k] = _word_order(alphabet, W, W, True)
    table[k, :k] = False
    products = [u + v for u in words for v in words]
    if reduce:
        rows = _canonical_rows(alphabet, _letter_block(products, 2 * maxlen)).tolist()
        products = [tuple(x for x in row if x >= 0) for row in rows]
    mult = np.full((k + 1, k + 1), k, dtype=np.int64)
    mult[:k, :k] = np.reshape([index.get(w, k) for w in products], (k, k))
    order = FiniteQO(labels + [_TOP], table)
    return MonoidalQO(order, mult, index[()])


def upward_closed_subsets(q: FiniteQO) -> list[frozenset[int]]:
    """All upward-closed subsets, empty and full included, ordered by
    (size, members): the downsets of the reversed order, the empty one first."""
    ups = (frozenset(_bits(mask)) for mask in all_downsets_of_poset(q.leq.T))
    return sorted(ups, key=lambda s: (len(s), sorted(s)))


def dp_agreement_sweep(
    max_atoms: int = 4,
    max_pair_len: int = 5,
    full_len: int = 5,
    full_atom_cap: int = 2,
) -> Report:
    """Sweep the decision procedure against the witness search.

    Covers every quasi-order on up to max_atoms letters, every upward-closed
    idempotent subset, both deduplicated up to isomorphism; within each
    alphabet, every word pair with combined length at most max_pair_len, and
    for alphabets of at most full_atom_cap letters additionally every pair
    with each side up to full_len.  Pairs run by length of the left word,
    then of the right, each length's words in shortlex order (as all_words
    lists them); the first disagreement is reported.

    Words are raw letter tuples, built once per carrier size.  The
    alphabets of one size are stacked, and each (left length, right length)
    block gets one _embedding table and one _witness_table over all of them,
    compared whole; a disagreement is located only in a block whose two
    tables differ.  After one, the sweep finishes that quasi-order's
    alphabets and stops.  The longest word must fit the witness search; it
    is checked on entry, before any word is built.
    """
    if max_atoms < 1:
        # no alphabet to sweep, and an empty sweep must not read as passed
        raise ValueError(f"max_atoms must be at least 1, got {max_atoms}")
    if max_pair_len < 0 or full_len < 0:
        raise ValueError(
            f"word lengths must be at least 0, got max_pair_len={max_pair_len}, "
            f"full_len={full_len}"
        )
    # no carrier size sweeps longer words than size 1 does
    _check_witness_len(max(max_pair_len, full_len if full_atom_cap >= 1 else 0))
    disagreement = None
    systems = 0
    pairs = 0
    for n in range(1, max_atoms + 1):
        full = n <= full_atom_cap
        cap = max(max_pair_len, full_len if full else 0)
        words: list[list[tuple[int, ...]]] = [[] for _ in range(cap + 1)]
        for t in all_tuples(n, cap):
            words[len(t)].append(t)
        arrays = [_letter_block(ws, k) for k, ws in enumerate(words)]
        blocks = [
            (a, b)
            for a in range(cap + 1)
            for b in range(cap + 1)
            if a + b <= max_pair_len or (full and a <= full_len and b <= full_len)
        ]
        # every deduplicated alphabet of this size, then each block's witness
        # search over all of them in one call
        stack: list[AtomAlphabet] = []
        for q in all_quasi_orders(n):
            ups = upward_closed_subsets(q)
            members = np.zeros((len(ups), n), dtype=bool)
            for row, idem in zip(members, ups):
                row[list(idem)] = True
            tables = np.broadcast_to(q.leq, (len(ups), n, n))
            seen: set[bytes] = set()
            for idem, key in zip(ups, _canonical_relation_keys(tables, members)):
                if key in seen:
                    continue
                seen.add(key)
                stack.append(AtomAlphabet(q, idem))
        leq, idem = (np.concatenate(x) for x in zip(*(al._stack for al in stack)))
        # each block's greedy table beside its witness search, all alphabets
        # at once; only a block where the two differ is kept
        differing = []
        for a, b in blocks:
            U, V = arrays[a], arrays[b]
            fast = _embedding(U, V, np.arange(len(U))[:, None], np.arange(len(V)), leq, idem)
            slow = _witness_table(U, V, leq, idem)
            if (fast != slow).any():
                differing.append((a, b, fast, slow))
        swept = len(stack)
        if differing:
            # the first disagreement by alphabet, block and row-major cell;
            # the sweep ends with the rest of that quasi-order's alphabets
            s = min(int(np.argmax((f != w).any((1, 2)))) for _, _, f, w in differing)
            q = stack[s].order
            swept = next((t for t in range(s, len(stack)) if stack[t].order is not q), len(stack))
            a, b, fast, slow = next(d for d in differing if (d[2][s] != d[3][s]).any())
            i, j = divmod(int(np.argmax(fast[s] != slow[s])), len(words[b]))
            disagreement = {
                "alphabet": list(q.elements),
                "idem": sorted(q.elements[x] for x in stack[s].idem),
                "lhs": [q.elements[x] for x in words[a][i]],
                "rhs": [q.elements[x] for x in words[b][j]],
                "dp": bool(fast[s, i, j]),
                "witness-search": bool(slow[s, i, j]),
            }
        systems += swept
        pairs += swept * sum(len(words[a]) * len(words[b]) for a, b in blocks)
        if disagreement:
            break
    return Report(
        "embedding-dp-agreement",
        (
            CheckResult(
                "dp-matches-witness-search",
                disagreement is None,
                disagreement,
                {"systems": systems, "pairs": pairs},
            ),
        ),
    )
