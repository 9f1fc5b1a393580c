import functools
import itertools
import random

import numpy as np
import pytest

from idealforge import oracle, qo
from idealforge.downsets import enumerate_ideals
from idealforge.errors import LevelCapExceededError, ScaleExceededError
from idealforge.fixtures import capped_addition
from idealforge.hierarchy import build_atoms
from idealforge.higman import AtomAlphabet, HWord, bounded_word_monoid, leq_H_bruteforce
from idealforge.oracle import (
    DenotationContext,
    _concat,
    _contained_table,
    _factor_lists,
    check_containment_agreement,
    check_two_forms,
    check_xy_wz,
    seq_label,
)
from idealforge.qo import FiniteQO, _disjoint_table, _row_masks, all_quasi_orders, all_tuples


def test_truncated_universe_shape(a2, antichain3):
    seqs = all_tuples(a2.n, 3)
    assert len(seqs) == 1 + 2 + 4 + 8
    assert seqs[0] == ()
    assert seq_label(a2.elements, ()) == "ε"
    assert seq_label(a2.elements, (0, 1)) == "a.b"
    # 265,720 sequences of length at most 11 over three letters
    with pytest.raises(ScaleExceededError):
        DenotationContext(antichain3, 11)


@pytest.mark.parametrize(
    "check, args",
    [(check_containment_agreement, (1,)), (check_two_forms, ()), (check_xy_wz, ())],
)
def test_negative_word_length_is_rejected(a2, check, args):
    # no words at all would let the sweep pass on nothing
    with pytest.raises(ValueError, match="at least 0"):
        check(a2, *args, max_word_len=-1)


@pytest.mark.parametrize("max_word_len", [0, 1])
def test_two_forms_without_cuts_is_rejected(a2, max_word_len):
    # the census below it has no cut to find, so the sweep is refused with it
    with pytest.raises(ValueError, match="at least 2"):
        check_two_forms(a2, max_word_len=max_word_len)


def _rows(masks, width):
    'Each int mask as a bool row of width bits: the inverse of _row_masks.'
    return np.array([[m >> k & 1 for k in range(width)] for m in masks], bool).reshape(-1, width)


def _split_table(seqs):
    """splits[i] lists (prefix, suffix) index pairs over every cut of
    seqs[i], the empty-prefix cut first."""
    index = {s: i for i, s in enumerate(seqs)}
    return [[(index[s[:k]], index[s[k:]]) for k in range(len(s) + 1)] for s in seqs]


def _split_scan_product(splits, mx, my):
    """The reference for DenotationContext.product: a sequence is in the
    product when some cut of it has its prefix in mx and its suffix in my."""
    out = 0
    for i, cuts in enumerate(splits):
        if any(mx >> a & 1 and my >> b & 1 for a, b in cuts):
            out |= 1 << i
    return out


def test_product_matches_the_split_scan_reference(n_shape):
    # Every quasi-order on at most 3 points at every maxlen whose universe
    # has at most 400 sequences, and n_shape at maxlen 4, on seeded masks.
    # A shorter universe is a prefix of the longest one, and so are its
    # split rows, so each alphabet size builds one split table.
    longest = {1: 399, 2: 7, 3: 5, 4: 4}
    splits = {n: _split_table(all_tuples(n, m)) for n, m in longest.items()}
    cases = [(n_shape, 4)] * 100
    for n in (1, 2, 3):
        cases += [(q, m) for q in all_quasi_orders(n) for m in range(1, longest[n] + 1)]
    rng = random.Random(3)
    for q, maxlen in cases:
        ctx = DenotationContext(q, maxlen)
        size = len(ctx.seqs)
        assert size <= 400 and ctx.seqs == all_tuples(q.n, maxlen)
        # the layout: ε is bit 0 and letter i is bit 1 + i
        assert ctx.seqs[0] == () and _row_masks(ctx.word_mask(())[None]) == [1]
        assert ctx.seqs[1 : q.n + 1] == [(i,) for i in range(q.n)]
        mx, my = rng.getrandbits(size) & rng.getrandbits(size), rng.getrandbits(size)
        got = _row_masks(ctx.product(*_rows([mx, my], size))[None])
        assert got == [_split_scan_product(splits[q.n][:size], mx, my)], (q, maxlen)


def _carry_free_product(ctx, mx, my):
    """The reference for DenotationContext.products on int masks:
    pos(x·y) = pos(x)·nʲ + pos(y) for |y| = j, so spreading mx's bits nʲ
    apart and multiplying by my's length-j block, which spans nʲ bits, lays
    one copy of that block at each x, without carries."""
    off, n = ctx._offsets, ctx.base.n
    out = 0
    for j in range(len(off) - 1):
        x = mx & (1 << off[-1 - j]) - 1  # the x with |x| + j <= maxlen
        y = my & (1 << off[j + 1]) - (1 << off[j])
        if x and y:
            out |= int(("0" * (n**j - 1)).join(format(x, "b")), 2) * y
    return out


def _scalar_star(ctx, mask):
    'The least fixpoint of out = {ε} | mask·out, one reference product a round.'
    out = 1
    while (grown := out | _carry_free_product(ctx, mask, out)) != out:
        out = grown
    return out


def _assert_stars_are_scalar_fixpoints(ctx, letters):
    'Each star letter\'s row against the scalar fixpoint over its payload\'s rows.'
    masks = dict(zip(letters, _row_masks(ctx.letter_rows(letters))))
    for a in letters:
        if a.is_idem:
            inner = functools.reduce(int.__or__, (masks[d] for d in a.downset), 0)
            assert masks[a] == _scalar_star(ctx, inner), (ctx.base.elements, a)
    return masks


def test_product_kernel_matches_the_carry_free_reference(monkeypatch):
    # Every quasi-order on at most 3 points at maxlen 1-4.  A 100-cell block
    # budget splits every table and most zips into several blocks.  Seeded
    # masks, the empty set and {ε} among them, go through the table and the
    # zip form; the star letters of level 1, and where the carrier has at
    # most 2 points the stars over its derived carrier P₁ (the level-1
    # letters, ordered by exact containment), against the scalar fixpoint
    # over their payloads; every word up to length 3 of the level-1 letters
    # against the reference fold and word_mask.  The level-2 letters hold
    # stars in their payloads, which are denoted over P₁ and refused here.
    monkeypatch.setattr(qo, "_BLOCK_CELLS", 100)
    rng = random.Random(17)
    for n in (1, 2, 3):
        for q in all_quasi_orders(n):
            for maxlen in range(1, 5):
                ctx = DenotationContext(q, maxlen)
                reference = functools.partial(_carry_free_product, ctx)
                size = len(ctx.seqs)
                left = [0, 1] + [rng.getrandbits(size) & rng.getrandbits(size) for _ in range(7)]
                right = [1] + [rng.getrandbits(size) for _ in range(6)]
                X, Y = _rows(left, size), _rows(right, size)
                table = ctx.products(X, Y, True)
                assert table.shape == (len(left), len(right), size)
                got = [_row_masks(block) for block in table]
                assert got == [[reference(x, y) for y in right] for x in left]
                zipped = _row_masks(ctx.products(X[: len(right)], Y, False))
                assert zipped == [reference(x, y) for x, y in zip(left, right)]
                assert zipped == _row_masks(np.array([ctx.product(x, y) for x, y in zip(X, Y)]))

                level1 = build_atoms(q, 1).atoms
                masks = _assert_stars_are_scalar_fixpoints(ctx, level1)
                if n <= 2:
                    singles = all_tuples(len(level1), 1)[1:]
                    lists = _factor_lists(level1, singles, DenotationContext(q, 1))
                    names = [f"p{i}" for i in range(len(level1))]
                    p1 = FiniteQO(names, _contained_table(lists, lists))
                    derived = build_atoms(p1, 1).atoms
                    _assert_stars_are_scalar_fixpoints(DenotationContext(p1, maxlen), derived)
                    with pytest.raises(ValueError, match="star over a star"):
                        ctx.letter_rows(build_atoms(q, 2).atoms)
                rows = _row_masks(ctx.word_rows(level1, 3))
                for t, row in zip(all_tuples(len(level1), 3), rows, strict=True):
                    word = tuple(level1[i] for i in t)
                    want = functools.reduce(reference, (masks[a] for a in word), 1)
                    assert row == want == _row_masks(ctx.word_mask(word)[None])[0], (q, maxlen, t)


def test_products_against_an_empty_stack(a2):
    # no letters spell only ε, and a table against no rows has no columns
    ctx = DenotationContext(a2, 3)
    width = len(ctx.seqs)
    for k in (1, 2, 3):
        assert np.array_equal(ctx.word_rows([], k), np.eye(1, width, dtype=bool))
    X = ctx.letter_rows(build_atoms(a2, 1).atoms)
    empty = np.zeros((0, width), dtype=bool)
    assert ctx.products(X, empty, True).shape == (len(X), 0, width)
    assert ctx.products(empty, X, True).shape == (0, len(X), width)


def test_truncated_ideals_have_tops():
    for n in (1, 2, 3):
        for q in all_quasi_orders(n):
            for ideal in enumerate_ideals(q):
                members = sorted(ideal.members)
                assert any(
                    all(q.leq[x, m] for x in members) for m in members
                )


def _seq_in_atom(atom, s, p, memo):
    key = (id(atom), s)
    got = memo.get(key)
    if got is not None:
        return got
    if not atom.is_idem:
        out = len(s) == 0 or (len(s) == 1 and bool(p.leq[s[0], atom.base_class]))
    elif not s:
        out = True
    else:
        out = False
        for k in range(1, len(s) + 1):
            if not any(_seq_in_atom(d, s[:k], p, memo) for d in atom.downset):
                continue
            if _seq_in_atom(atom, s[k:], p, memo):
                out = True
                break
    memo[key] = out
    return out


def denote_member(system, w, s):
    """Membership of a carrier sequence in a symbolic word's denotation.

    The reference for DenotationContext.word_mask: standalone block
    recursion, no precomputed universe.  The sequence must split into
    consecutive blocks, one per letter of w, each block inside that letter's
    denotation.  Accepts the sequence as carrier indices or labels.
    """
    p = system.base
    seq = tuple(x if isinstance(x, int) else p.index(x) for x in s)
    letters = tuple(system.atoms[i] for i in w.letters)
    memo = {}

    def blocks(li, pos):
        key = ("b", li, pos)
        got = memo.get(key)
        if got is not None:
            return got
        if li == len(letters):
            out = pos == len(seq)
        else:
            out = any(
                _seq_in_atom(letters[li], seq[pos:cut], p, memo) and blocks(li + 1, cut)
                for cut in range(pos, len(seq) + 1)
            )
        memo[key] = out
        return out

    return blocks(0, 0)


def test_denote_member_frozen_cases(a2):
    system = build_atoms(a2, 1)
    # letter indices: the plain letters a and b, then *{a,b} and *{a}
    a, b, star_ab, star_a = 0, 1, 2, 3
    w_a = HWord(system.alphabet, [a])
    assert denote_member(system, w_a, ())
    assert denote_member(system, w_a, (0,))
    assert not denote_member(system, w_a, (1,))
    assert not denote_member(system, w_a, (0, 0))

    w_star = HWord(system.alphabet, [star_ab])
    assert denote_member(system, w_star, (0, 1, 0))
    w_star_a = HWord(system.alphabet, [star_a])
    assert denote_member(system, w_star_a, (0, 0, 0))
    assert not denote_member(system, w_star_a, (0, 1))

    w_mixed = HWord(system.alphabet, [a, star_a])
    assert denote_member(system, w_mixed, ("a", "a", "a"))
    assert not denote_member(system, w_mixed, ("b",))
    # the plain block may be empty
    w_mixed2 = HWord(system.alphabet, [a, star_ab])
    assert denote_member(system, w_mixed2, ("b", "b"))


def test_block_recursion_agrees_with_mask_route(a2):
    system = build_atoms(a2, 1)
    ctx = DenotationContext(a2, 3)
    words = [()] + [(i,) for i in range(5)] + list(itertools.product(range(5), repeat=2))
    for t in words:
        letters = tuple(system.atoms[i] for i in t)
        row = ctx.word_mask(letters)
        w = HWord(system.alphabet, t)
        for k, s in enumerate(ctx.seqs):
            assert denote_member(system, w, s) == row[k]


def test_denotations_are_downward_closed(a2):
    system = build_atoms(a2, 1)
    ctx = DenotationContext(a2, 3)
    plain = AtomAlphabet(a2, ())
    hwords = [HWord(plain, s) for s in ctx.seqs]
    rng = random.Random(7)
    words = [tuple(rng.randrange(5) for _ in range(rng.randrange(3))) for _ in range(30)]
    for word in words:
        row = ctx.word_mask(tuple(system.atoms[i] for i in word))
        for j in np.flatnonzero(row):
            for i in range(len(ctx.seqs)):
                if leq_H_bruteforce(hwords[i], hwords[j]):
                    assert row[i]


def test_oracle_reports_frozen(a2, chain2):
    # the whole report of each sweep at its default sizes
    assert check_two_forms(a2).to_json() == {
        "title": "two-forms",
        "passed": True,
        "checks": [
            {
                "name": "primes-are-letter-classes",
                "passed": True,
                "stats": {"classes": 42, "idem_prime_classes": 3, "prime_classes": 5, "words": 156},
            },
            {"name": "idempotent-primes-are-idempotent-letters", "passed": True},
            {
                "name": "prime-ideal-shapes",
                "passed": True,
                "stats": {
                    "classes": 42,
                    "down_forms": 2,
                    "idem_prime_classes": 3,
                    "prime_classes": 5,
                    "star_forms": 3,
                    "words": 156,
                },
            },
        ],
    }
    assert check_containment_agreement(a2, 1).to_json() == {
        "title": "containment-agreement",
        "passed": True,
        "checks": [
            {
                "name": "order-implies-containment",
                "passed": True,
                "stats": {
                    "atoms": 5,
                    "confirmed": 13_225,
                    "pairs": 24_336,
                    "refuted": 11_111,
                    "unresolved": 0,
                    "words": 156,
                },
            },
            {
                "name": "non-order-has-refuting-sequence",
                "passed": True,
                "stats": {"flagged": [], "unresolved": 0},
            },
        ],
    }
    assert check_xy_wz(chain2).to_json() == {
        "title": "product-containment",
        "passed": True,
        "checks": [
            {
                "name": "factor-containment-forced",
                "passed": True,
                "stats": {
                    "containments": 130_218,
                    "quadruples": 194_481,
                    "saturated_at_bound": 1_303,
                    "words": 21,
                },
            },
            {
                "name": "exact-implies-bounded",
                "passed": True,
                "stats": {"pairs": 3_136, "products": 56},
            },
        ],
    }


def test_two_forms_census(a2, singleton):
    report = check_two_forms(a2, maxlen=3)
    assert report.passed
    stats = report.check("prime-ideal-shapes").stats
    assert stats["prime_classes"] == 5
    assert stats["star_forms"] == 3
    assert stats["down_forms"] == 2
    small = check_two_forms(singleton, maxlen=3)
    assert small.passed
    sstats = small.check("prime-ideal-shapes").stats
    assert (sstats["star_forms"], sstats["down_forms"]) == (1, 1)
    with pytest.raises(ScaleExceededError):
        check_two_forms(a2, maxlen=5)


def test_two_forms_names_a_denotation_of_neither_shape(monkeypatch, a2):
    # a plain letter that also denotes the universe's last sequence, b.b.b,
    # is neither its down form nor the star form of its single letters
    honest = DenotationContext.letter_rows

    def padded(self, letters):
        rows = honest(self, letters)
        rows[[not a.is_idem for a in letters], -1] = True
        return rows

    monkeypatch.setattr(DenotationContext, "letter_rows", padded)
    report = check_two_forms(a2, maxlen=3, max_word_len=2)
    assert not report.passed
    shape = report.check("prime-ideal-shapes")
    assert not shape.passed
    assert shape.counterexample == {"atom": "a", "letters": ["a"], "extra": ["b.b.b"]}
    # a star letter over both points that lacks the sequence b.a is neither
    # form either, and names its letters sorted by label, not by index
    ba = FiniteQO(["b", "a"], np.eye(2, dtype=bool))

    def holed(self, letters):
        rows = honest(self, letters)
        rows[[a.is_idem for a in letters], self.seqs.index((0, 1))] = False
        return rows

    monkeypatch.setattr(DenotationContext, "letter_rows", holed)
    shape = check_two_forms(ba, maxlen=3, max_word_len=2).check("prime-ideal-shapes")
    assert not shape.passed
    assert shape.counterexample == {"atom": "*{a,b}", "letters": ["a", "b"], "extra": []}


def test_containment_agreement_names_the_witness_of_a_lying_order(monkeypatch, a2, singleton):
    # an order that puts every word below every other is refuted by the
    # first pair, a below ε, through the sequence a that only the left denotes
    honest = oracle._word_order
    monkeypatch.setattr(
        oracle, "_word_order", lambda alphabet, U, V, table: np.ones((len(U), len(V)), bool)
    )
    for alpha in (1, 2):
        report = check_containment_agreement(a2, alpha, maxlen=3, max_word_len=2)
        assert not report.passed
        check = report.check("order-implies-containment")
        assert not check.passed
        # at level 2 the witness is a sequence over P₁, spelled in the
        # level-1 letters' serials rather than P₁'s positional names
        assert check.counterexample == {"lhs": ["a"], "rhs": [], "witness": "a"}
    # an order that puts every word starting with the top letter, *{*{a},a},
    # below every other is refuted at level 2 by a sequence over P₁ whose
    # points are a and *{a}: the last one the star denotes and ε does not
    monkeypatch.setattr(
        oracle, "_word_order",
        lambda alphabet, U, V, table: honest(alphabet, U, V, table) | (U[:, :1] == 2),
    )
    report = check_containment_agreement(singleton, 2, maxlen=3, max_word_len=2)
    check = report.check("order-implies-containment")
    assert not check.passed
    assert check.counterexample == {
        "lhs": ["*{*{a},a}"], "rhs": [], "witness": "*{a}.*{a}.*{a}"
    }
    # the lie is in the word order alone; the letter order still holds
    assert report.check("letter-order-is-containment").passed


def test_letter_order_audit_names_the_first_disagreement(monkeypatch, singleton, chain2, a2):
    # a letter table with cells flipped disagrees with P_k's exact order;
    # the counterexample names the level and the first flipped cell in
    # row-major order, and whether containment holds there
    honest = oracle._letter_table

    def flipped(cells):
        def table(atoms):
            out = honest(atoms).copy()
            for size, i, j in cells:
                if len(atoms) == size:
                    out[i, j] ^= True
            return out

        return table

    # (carrier, alpha, flipped (table size, row, column) cells, level, lhs,
    # rhs, contained); a table's size tells its level
    cases = [
        (a2, 2, [(5, 1, 0), (5, 0, 1)], 1, "a", "b", False),
        (chain2, 3, [(4, 0, 1)], 1, "a", "b", True),
        (singleton, 3, [(3, 2, 0)], 2, "*{*{a},a}", "a", False),
    ]
    for p, alpha, cells, *named in cases:
        want = dict(zip(("level", "lhs", "rhs", "contained"), named))
        monkeypatch.setattr(oracle, "_letter_table", flipped(cells))
        report = check_containment_agreement(p, alpha, maxlen=3, max_word_len=2)
        audit = report.check("letter-order-is-containment")
        assert not audit.passed
        assert audit.counterexample == want
        assert not report.passed
        # the sweep reads the exact order, not the audited table
        assert report.check("order-implies-containment").passed


def test_containment_agreement_small(chain2, singleton, a2):
    report = check_containment_agreement(chain2, 1, maxlen=3, max_word_len=2)
    assert report.passed
    stats = report.check("order-implies-containment").stats
    assert stats["unresolved"] == 0
    assert stats["confirmed"] + stats["refuted"] == stats["pairs"]
    # at level 2 every pair is decided over P₁, the level-1 letters
    report = check_containment_agreement(singleton, 2, maxlen=3, max_word_len=2)
    assert report.passed
    stats = report.check("order-implies-containment").stats
    counts = (stats["pairs"], stats["confirmed"], stats["refuted"], stats["unresolved"])
    assert counts == (169, 112, 57, 0)
    assert report.check("letter-order-is-containment").stats == {"points": [2]}
    # at level 3 over P₂, which is ordered over P₁
    report = check_containment_agreement(singleton, 3)
    assert report.passed
    stats = report.check("order-implies-containment").stats
    counts = (stats["pairs"], stats["confirmed"], stats["refuted"], stats["unresolved"])
    assert counts == (7_225, 5_000, 2_225, 0)
    assert report.check("letter-order-is-containment").stats == {"points": [2, 3]}
    # every undecided pair is counted; only the flagged sample is capped
    report = check_containment_agreement(singleton, 2, maxlen=3, max_word_len=3)
    stats = report.check("order-implies-containment").stats
    counts = (stats["pairs"], stats["confirmed"], stats["refuted"], stats["unresolved"])
    assert counts == (1_600, 1_175, 414, 11)
    refuting = report.check("non-order-has-refuting-sequence")
    assert refuting.stats["unresolved"] == 11
    assert len(refuting.stats["flagged"]) == 10
    # an undecided pair is not a pass
    assert not refuting.passed
    assert not report.passed
    # 28 level-3 letters give 22,765 words, past the pair cap
    with pytest.raises(ScaleExceededError, match="22,765 words"):
        check_containment_agreement(a2, 3)
    with pytest.raises(LevelCapExceededError):
        check_containment_agreement(singleton, 4)


def test_factor_lists_normalize(a2):
    system = build_atoms(a2, 1)
    # letter indices: the plain letter a, then *{a,b} and *{a}
    a, star_ab, star_a = 0, 2, 3
    ctx = DenotationContext(a2, 1)
    f = lambda *word: _factor_lists(system.atoms, [word], ctx)[0]
    assert f(a) == (("d", 0b01),)
    assert f(star_ab) == (("s", 0b11),)
    assert f(star_a, star_a) == (("s", 0b01),)
    # a star swallows an adjacent plain letter it covers, on either side
    assert f(a, star_a) == (("s", 0b01),)
    assert f(star_a, a) == (("s", 0b01),)
    assert f(a, star_ab, star_a) == (("s", 0b11),)
    assert f(a, a) == (("d", 0b01), ("d", 0b01))
    # a star absorbs every covered factor before it, not just the last one
    assert f(a, a, star_a) == (("s", 0b01),)
    # one call reads every word's list
    assert _factor_lists(system.atoms, [(a, a), (), (star_a, a)], ctx) == [
        f(a, a), (), f(star_a)
    ]


def test_exact_product_containment(a2):
    system = build_atoms(a2, 1)
    # letter indices: the plain letters a and b, then *{a,b} and *{a}
    a, b, star_ab, star_a = 0, 1, 2, 3
    ctx = DenotationContext(a2, 1)
    f = lambda *word: _factor_lists(system.atoms, [word], ctx)[0]
    contained = lambda fu, fv: bool(_contained_table([fu], [fv])[0, 0])
    assert contained(f(star_a), f(star_ab))
    assert not contained(f(star_ab), f(star_a))
    assert contained(f(a, a), f(star_a))
    # the unbounded star never fits inside a finite product of optionals
    assert not contained(f(star_a), f(a, a))
    assert contained(f(a), f(a, b))
    assert not contained(f(a, b), f(b, a))
    assert contained(f(a, b), f(star_ab))
    # the empty list denotes {ε}, which every list holds and only it fits in
    assert contained(f(), f(a))
    assert not contained(f(a), f())


def _product_contained(
    fu: tuple[tuple[str, int], ...], fv: tuple[tuple[str, int], ...]
) -> bool:
    """The scalar greedy, the reference _contained_table is compared with:
    each factor of fu takes the first factor of fv at or after the cursor
    whose letters cover its own, and a star needs a star.  The cursor moves
    past an optional-letter target and stays on a star.
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


@functools.lru_cache(maxsize=None)
def _step_table(factors: tuple[tuple[str, int], ...], n: int) -> list[list[int]]:
    """Greedy position automaton: from the earliest usable factor, a letter
    either loops on a star or moves past an optional letter; -1 is dead.
    Earliest-position determinism is sound because every factor is optional,
    so the reachable positions always form an upward interval.
    """
    k = len(factors)
    tbl = [[-1] * n for _ in range(k + 1)]
    for c in range(n):
        for m in range(k - 1, -1, -1):
            kind, letters = factors[m]
            if letters >> c & 1:
                tbl[m][c] = m if kind == "s" else m + 1
            else:
                tbl[m][c] = tbl[m + 1][c]
    return tbl


def _automaton_contained(
    fu: tuple[tuple[str, int], ...], fv: tuple[tuple[str, int], ...], n: int
) -> bool:
    'Exact inclusion of two factor-product languages, no length bound.'
    tu, tv = _step_table(fu, n), _step_table(fv, n)
    width = len(fv) + 2
    start = 0
    seen = {start}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for mu, mv in frontier:
            for c in range(n):
                u2 = tu[mu][c]
                if u2 < 0:
                    continue
                v2 = tv[mv][c]
                if v2 < 0:
                    return False
                key = u2 * width + v2
                if key not in seen:
                    seen.add(key)
                    nxt.append((u2, v2))
        frontier = nxt
    return True


def test_greedy_inclusion_matches_the_position_automaton():
    # The kernel against two references: the scalar greedy, and a
    # breadth-first search over the product of two position automata, an
    # independent exact decision.  Compared on every distinct pair list
    # check_xy_wz builds, the empty list among them, plus seeded
    # concatenations of two such lists, up to 8 factors long: all pairs up
    # to 20,000 and a seeded sample of 20,000 beyond that.  A seeded share of
    # the pairs is asked again alone, so each side is padded to its own width.
    rng = random.Random(5)
    compared = 0
    for n in (1, 2, 3):
        for q in all_quasi_orders(n):
            system = build_atoms(q, 1)
            ctx = DenotationContext(q, 1)
            factors = _factor_lists(system.atoms, all_tuples(len(system.atoms), 2), ctx)
            lists = list(dict.fromkeys(_concat(fa, fb) for fa in factors for fb in factors))
            assert () in lists
            longer = [_concat(rng.choice(lists), rng.choice(lists)) for _ in range(8)]
            lists = list(dict.fromkeys(lists + longer))
            table = _contained_table(lists, lists)
            cells = range(len(lists))
            if len(lists) ** 2 <= 20_000:
                pairs = list(itertools.product(cells, repeat=2))
            else:
                pairs = [(rng.choice(cells), rng.choice(cells)) for _ in range(20_000)]
            for i, j in pairs:
                fu, fv = lists[i], lists[j]
                want = _automaton_contained(fu, fv, q.n)
                assert _product_contained(fu, fv) == want, (fu, fv)
                assert table[i, j] == want, (fu, fv)
            for i, j in rng.sample(pairs, min(len(pairs), 50)):
                assert _contained_table([lists[i]], [lists[j]])[0, 0] == table[i, j]
            compared += len(pairs)
    assert compared > 100_000


def test_product_sweep_frozen(singleton, chain2, a2):
    # quadruples / containments / saturated_at_bound per carrier, then the
    # guard's distinct pair products and the product pairs it reads
    pins = [
        (singleton, 2_401, 2_010, 40, 6, 36),
        (chain2, 194_481, 130_218, 1_303, 56, 3_136),
        (a2, 923_521, 554_393, 80, 110, 12_100),
    ]
    for p, quadruples, containments, saturated, products, pairs in pins:
        report = check_xy_wz(p)
        assert report.passed
        stats = report.check("factor-containment-forced").stats
        assert (stats["quadruples"], stats["containments"]) == (quadruples, containments)
        assert stats["saturated_at_bound"] == saturated
        guard = report.check("exact-implies-bounded")
        assert guard.passed
        assert guard.stats == {"products": products, "pairs": pairs}
    with pytest.raises(ScaleExceededError):
        check_xy_wz(singleton, maxlen=5)


def test_product_sweep_guard_sees_a_lying_decision(monkeypatch, a2):
    # the containment tables must come from the live exact decision, and the
    # bounded guard must catch a decision that claims too much
    monkeypatch.setattr(
        oracle, "_contained_table", lambda lu, lv: np.ones((len(lu), len(lv)), dtype=bool)
    )
    report = check_xy_wz(a2)
    assert not report.check("exact-implies-bounded").passed
    assert not report.passed


def test_product_sweep_guard_sees_a_lying_concatenation(monkeypatch, singleton, chain2, a2):
    # a concatenation that keeps only the left factor list claims a.a fits
    # below ε.a; only the guard over every pair of products sees the bounded
    # masks disagree, since the single-word lists are still exact
    monkeypatch.setattr(oracle, "_concat", lambda fu, fv: fu if fu else fv)
    for p in (singleton, chain2, a2):
        guard = check_xy_wz(p).check("exact-implies-bounded")
        assert not guard.passed
        assert guard.counterexample == {"x": "a", "y": "a", "w": "ε", "z": "a"}


def test_a_letter_labelled_empty_is_not_the_empty_word(monkeypatch):
    # from_json accepts the label "", so a word is labelled ε when it has no
    # letters, not when its joined labels are empty
    blank = qo.from_json({"elements": [""], "order": [["", ""]]})
    alphabet = AtomAlphabet(blank, ())
    assert (repr(HWord(alphabet, [])), repr(HWord(alphabet, [0]))) == ("HWord(ε)", "HWord()")
    assert bounded_word_monoid(alphabet, 2).order.elements == ("ε", "", ".", "⊤")
    monkeypatch.setattr(oracle, "_concat", lambda fu, fv: fu if fu else fv)
    guard = check_xy_wz(blank).check("exact-implies-bounded")
    assert guard.counterexample == {"x": "", "y": "", "w": "ε", "z": ""}


def _refusing_single_factors(kernel):
    'A decision that refuses, cell by cell, single-factor containments between distinct lists.'

    def lie(lu, lv):
        refused = [[len(fu) == 1 and len(fv) == 1 and fu != fv for fv in lv] for fu in lu]
        return kernel(lu, lv) & ~np.array(refused, dtype=bool).reshape(len(lu), len(lv))

    return lie


def test_product_sweep_pins_the_first_failure(monkeypatch, chain2, a2):
    # the sweep stops at the first violation in (x, y, w, z) order and
    # counts only the cells read up to it, that one included
    monkeypatch.setattr(oracle, "_contained_table", _refusing_single_factors(_contained_table))
    for p, containments, saturated in ((a2, 16_530, 5_848), (chain2, 5_608, 2_076)):
        check = check_xy_wz(p).check("factor-containment-forced")
        assert not check.passed
        assert check.counterexample == {"x": "a", "y": "a", "w": "ε", "z": "*{a,b}"}
        assert (check.stats["containments"], check.stats["saturated_at_bound"]) == (
            containments,
            saturated,
        )


def test_sweeps_read_the_same_in_small_blocks(monkeypatch, singleton, chain2, a2):
    # at a budget of one cell every block holds one row
    def reports():
        out = [check_xy_wz(p).to_json() for p in (singleton, chain2, a2)]
        out += [
            check_containment_agreement(p, alpha).to_json()
            for p in (singleton, chain2)
            for alpha in (1, 2)
        ]
        with monkeypatch.context() as m:
            m.setattr(oracle, "_contained_table", _refusing_single_factors(_contained_table))
            out += [check_xy_wz(p).to_json() for p in (chain2, a2)]
            m.setattr(oracle, "_contained_table", lambda lu, lv: np.ones((len(lu), len(lv)), bool))
            out.append(check_xy_wz(a2).to_json())
        return out

    whole = reports()
    assert not all(r["passed"] for r in whole)
    monkeypatch.setattr(qo, "_BLOCK_CELLS", 1)
    assert reports() == whole


@pytest.mark.parametrize("cells", [qo._BLOCK_CELLS, 50])
def test_bounded_inclusion_matches_the_bit_test(monkeypatch, cells):
    # universe sizes off the multiples of 8 and 64, so the last byte of a
    # row is partial; half the left masks are drawn inside some right mask,
    # and 50 cells make blocks of two rows, the last of them one row short
    monkeypatch.setattr(qo, "_BLOCK_CELLS", cells)
    rng = random.Random(11)
    for nbits in (1, 5, 13, 67, 130, 341):
        right = [rng.getrandbits(nbits) | rng.getrandbits(nbits) for _ in range(23)]
        left = [0] + [rng.getrandbits(nbits) for _ in range(9)]
        left += [rng.choice(right) & rng.getrandbits(nbits) for _ in range(9)]
        table = _disjoint_table(_rows(left, nbits), ~_rows(right, nbits))
        assert table.shape == (len(left), len(right))
        want = [[mu & ~mv == 0 for mv in right] for mu in left]
        assert table.tolist() == want, nbits
        assert table.any() and not table.all()


def test_oracle_claims_hold_on_every_small_carrier():
    # containment at alpha=1, the two forms and the product sweep, each at
    # its default sizes, and containment at alpha=2 at maxlen 3 with words
    # up to length 2, on all 13 quasi-orders on at most 3 points
    xy_wz = [0, 0, 0]
    containment = [0, 0, 0, 0]
    level2 = [0, 0, 0, 0]
    forms = [0, 0, 0]
    for n in (1, 2, 3):
        for q in all_quasi_orders(n):
            for report, check, keys, sums in (
                (
                    check_containment_agreement(q, 1),
                    "order-implies-containment",
                    ("pairs", "confirmed", "refuted", "unresolved"),
                    containment,
                ),
                (
                    check_containment_agreement(q, 2, maxlen=3, max_word_len=2),
                    "order-implies-containment",
                    ("pairs", "confirmed", "refuted", "unresolved"),
                    level2,
                ),
                (
                    check_two_forms(q),
                    "prime-ideal-shapes",
                    ("prime_classes", "star_forms", "down_forms"),
                    forms,
                ),
                (
                    check_xy_wz(q),
                    "factor-containment-forced",
                    ("quadruples", "containments", "saturated_at_bound"),
                    xy_wz,
                ),
            ):
                assert report.passed, (q.elements, report.to_json())
                stats = report.check(check).stats
                for i, key in enumerate(keys):
                    sums[i] += stats[key]
    assert xy_wz == [207_173_773, 92_225_610, 32_233]
    assert containment == [2_034_649, 858_931, 1_175_718, 0]
    assert level2 == [4_226_829, 1_501_176, 2_725_653, 0]
    assert forms == [66, 38, 28]
