"""Generalized word embeddings over an ordered alphabet with designated
idempotent letters.

A word embeds into another when a weakly increasing map matches every letter
to a letter above it, and only idempotent target letters may absorb more than
one source letter.  With no idempotent letters this is the classical sequence
embedding; with all letters idempotent it is domination of supports.  The
decision procedure is a greedy leftmost match: each letter takes the first
remaining target above it, and only a plain target is used up.  Its ground
truth is the explicit search over all weakly increasing maps, one numpy
kernel that decides a whole block of equal-length word pairs over a stack of
alphabets of one carrier size at once, and the two are swept against each
other exhaustively at small scale, with one kernel call per block and
carrier size.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import AlphabetMismatchError, ScaleExceededError, TooLargeError
from .monoid import MonoidalQO, primes as monoid_primes
from .qo import (
    FiniteQO,
    _bits,
    _canonical_relation_key,
    _checked_indices,
    all_downsets_of_poset,
    all_quasi_orders,
    all_tuples,
    first_of_each_class,
)
from .report import CheckResult, Report

# longest word the explicit witness search accepts
_BRUTEFORCE_MAX_LEN = 8
# longest prime product on each side of check_abstractly_higman
_MAX_TUPLE = 3
# cells one slice of the witness search, or of check_abstractly_higman's
# tuple-pair table, holds at once
_WITNESS_CELLS = 1 << 22


class AtomAlphabet:
    """An ordered alphabet split into plain and idempotent letters.

    The plain part must be downward-closed: nothing idempotent may sit below
    a plain letter.  That is checked on construction.
    """

    __slots__ = ("order", "idem", "_leq_rows")

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
        self._leq_rows = order.leq.tolist()

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
        return f"HWord({'.'.join(self.labels) or 'ε'})"


def concat(u: HWord, v: HWord) -> HWord:
    if u.alphabet is not v.alphabet:
        raise AlphabetMismatchError("cannot concatenate words over different alphabets")
    return HWord(u.alphabet, u.letters + v.letters)


def _leq_letters(
    lu: tuple[int, ...],
    lv: tuple[int, ...],
    leq_rows: Sequence[Sequence[bool]],
    idem: frozenset[int],
) -> bool:
    """Embedding decision on raw letter tuples, by greedy leftmost match.

    Each letter of lu takes the first position at or after the cursor whose
    letter lies above it; the cursor moves past that position only when its
    letter is plain, so an idempotent target stays open to absorb more.
    """
    j, m = 0, len(lv)
    for a in lu:
        row = leq_rows[a]
        while j < m and not row[lv[j]]:
            j += 1
        if j == m:
            return False
        if lv[j] not in idem:
            j += 1
    return True


def leq_H(u: HWord, v: HWord) -> bool:
    """Generalized embedding of u into v, decided by greedy leftmost match.

    The greedy is complete by an exchange argument: by induction on the
    letters of u, its cursor never passes the cursor of any witness map, so
    it fails only when no witness exists.  Agreement with the explicit
    witness search is a standing invariant of the test suite, not an
    assumption.
    """
    if u.alphabet is not v.alphabet:
        raise AlphabetMismatchError("cannot compare words over different alphabets")
    alpha = u.alphabet
    return _leq_letters(u.letters, v.letters, alpha._leq_rows, alpha.idem)


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
    every target hit more than once idempotent there.  Rows of U are taken in
    slices so the alphabet-by-row-by-map intermediate stays near
    _WITNESS_CELLS, and each slice is matched one position at a time.  Words
    over the length cap are refused before any map is built.
    """
    _check_witness_len(max(U.shape[1], V.shape[1]))
    f, rep = _weakly_increasing_maps(U.shape[1], V.shape[1])
    targets = V[:, f]
    # per alphabet, the maps whose repeated targets are all idempotent
    absorbs = (~rep | idem[:, targets]).all(-1)[:, None]
    step = max(1, _WITNESS_CELLS // max(1, absorbs.size))
    out = []
    for i in range(0, max(1, len(U)), step):
        rows = U[i : i + step, None, None]
        found = np.repeat(absorbs, len(rows), axis=1)
        for k in range(U.shape[1]):
            found &= leq[:, rows[..., k], targets[..., k]]
        out.append(found.any(-1))
    return np.concatenate(out, axis=1)


def _letter_block(words: Sequence[tuple[int, ...]], length: int) -> np.ndarray:
    'Letter tuples of one length as a len(words) x length index array.'
    return np.array(words, dtype=np.intp).reshape(len(words), length)


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
    order = u.alphabet.order
    idem = _idem_vector(order.n, u.alphabet.idem)
    return bool(_witness_table(U, V, order.leq[None], idem[None])[0, 0, 0])


def equiv_H(u: HWord, v: HWord) -> bool:
    return leq_H(u, v) and leq_H(v, u)


def word_is_idempotent(w: HWord) -> bool:
    'Does the word absorb its own square?'
    return equiv_H(concat(w, w), w)


def canonical_word(w: HWord) -> HWord:
    """Drop letters left to right while the word stays equivalent.

    The scan is deterministic, so equal inputs canonicalize identically; that
    equivalent words canonicalize to letterwise equivalent words is a tested
    property, not something callers may assume without running the suite.
    """
    letters = list(w.letters)
    i = 0
    while i < len(letters):
        shorter = HWord(w.alphabet, letters[:i] + letters[i + 1 :])
        if equiv_H(shorter, w):
            letters = list(shorter.letters)
        else:
            i += 1
    return HWord(w.alphabet, letters)


def all_words(alphabet: AtomAlphabet, maxlen: int) -> list[HWord]:
    'Every word up to maxlen, ordered by length then letter indices.'
    return [HWord(alphabet, t) for t in all_tuples(alphabet.order.n, maxlen)]


def hword_primes_check(alphabet: AtomAlphabet, maxlen: int = 4) -> Report:
    """Exhaustively confirm which words are prime in the concatenation monoid.

    A word is prime when it is not equivalent to the empty word and every
    splitting into two factors leaves one factor equivalent to the whole.
    The claims checked: primes are exactly the words equivalent to a single
    letter, and the idempotent primes are exactly those equivalent to an
    idempotent letter.  Factor pairs range over class representatives of
    words up to maxlen; concatenation respects equivalence, so this covers
    every factorization whose factor classes reach down to that length.
    """
    if maxlen > 6:
        raise TooLargeError("prime scan is capped at words of length 6")
    words = all_words(alphabet, maxlen)
    reps = first_of_each_class(words, equiv_H)

    prime_bad = None
    idem_bad = None
    prime_classes = 0
    idem_prime_classes = 0
    for w in reps:
        # a representative comes first in shortlex order, and no nonempty word embeds in ε
        claimed = len(w) == 1
        actual = len(w) > 0
        if actual:
            # both factors sit below their product, and neither may be equivalent to it
            below = [a for a in reps if leq_H(a, w) and not leq_H(w, a)]
            actual = not any(equiv_H(concat(a, b), w) for a in below for b in below)
        if claimed != actual and prime_bad is None:
            prime_bad = {"word": list(w.labels), "letter-class": claimed, "prime": actual}
        if actual:
            prime_classes += 1
            # equivalent letters are of one kind, as the plain part is downward closed
            idem_claimed = claimed and w.letters[0] in alphabet.idem
            idem_actual = word_is_idempotent(w)
            if idem_claimed != idem_actual and idem_bad is None:
                idem_bad = {
                    "word": list(w.labels),
                    "idem-letter-class": idem_claimed,
                    "idempotent": idem_actual,
                }
            if idem_actual:
                idem_prime_classes += 1

    stats = {
        "words": len(words),
        "classes": len(reps),
        "prime_classes": prime_classes,
        "idem_prime_classes": idem_prime_classes,
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
    step = max(1, _WITNESS_CELLS // len(tuples))
    slices = [U[s : s + step] for U in blocks for s in range(0, len(U), step)]

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
    words = all_words(alphabet, maxlen)
    k = len(words)
    index = {w.letters: i for i, w in enumerate(words)}
    labels = [".".join(w.labels) if w.letters else "ε" for w in words] + [_TOP]
    table = np.zeros((k + 1, k + 1), dtype=bool)
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            table[i, j] = leq_H(u, v)
    table[:, k] = True
    table[k, :k] = False
    table[k, k] = True
    mult = np.full((k + 1, k + 1), k, dtype=np.int64)
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            w = concat(u, v)
            if reduce:
                w = canonical_word(w)
            mult[i, j] = index.get(w.letters, k)
    order = FiniteQO(labels, table)
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
    alphabets of one size are collected first, and each (left length, right
    length) block goes to _witness_table in one call over all of them; then
    every pair goes to _leq_letters on its alphabet's table and is compared
    with its cell.  After a disagreement the sweep finishes that quasi-order's
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
            seen: set[bytes] = set()
            for idem in upward_closed_subsets(q):
                key = _canonical_relation_key(np.asarray(q.leq), tuple(idem))
                if key in seen:
                    continue
                seen.add(key)
                stack.append(AtomAlphabet(q, idem))
        leq = np.stack([alphabet.order.leq for alphabet in stack])
        idem_vecs = np.stack([_idem_vector(n, alphabet.idem) for alphabet in stack])
        tables = [_witness_table(arrays[a], arrays[b], leq, idem_vecs) for a, b in blocks]
        for s, alphabet in enumerate(stack):
            q, rows, idem = alphabet.order, alphabet._leq_rows, alphabet.idem
            # a disagreement ends the sweep with the alphabets of its carrier
            if disagreement and q is not stack[s - 1].order:
                break
            systems += 1
            for (a, b), table in zip(blocks, tables):
                lhs, rhs = words[a], words[b]
                pairs += len(lhs) * len(rhs)
                fast = [_leq_letters(lu, lv, rows, idem) for lu in lhs for lv in rhs]
                slow = table[s].ravel().tolist()
                if fast != slow and disagreement is None:
                    k = next(k for k, (x, y) in enumerate(zip(fast, slow)) if x != y)
                    lu, lv = lhs[k // len(rhs)], rhs[k % len(rhs)]
                    disagreement = {
                        "alphabet": list(q.elements),
                        "idem": sorted(q.elements[i] for i in idem),
                        "lhs": [q.elements[i] for i in lu],
                        "rhs": [q.elements[i] for i in lv],
                        "dp": fast[k],
                        "witness-search": slow[k],
                    }
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
