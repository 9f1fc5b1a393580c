import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealforge import higman, qo
from idealforge.downsets import Downset, principal
from idealforge.errors import AlphabetMismatchError, TooLargeError
from idealforge.higman import (
    AtomAlphabet,
    HWord,
    all_words,
    bounded_word_monoid,
    canonical_word,
    check_abstractly_higman,
    concat,
    dp_agreement_sweep,
    equiv_H,
    hword_primes_check,
    leq_H,
    leq_H_bruteforce,
    upward_closed_subsets,
    word_is_idempotent,
)
from idealforge.fixtures import capped_addition, flat
from idealforge.hierarchy import build_atoms
from idealforge.monoid import check_axioms
from idealforge.qo import FiniteQO, all_quasi_orders, all_tuples, validate
from idealforge.report import CheckResult, Report

from conftest import DATA


def classical(n):
    labels = [chr(ord("a") + i) for i in range(n)]
    return AtomAlphabet(FiniteQO(labels, np.eye(n, dtype=bool)), ())


def idem_top():
    q = validate(["a", "b", "t"], [("a", "t"), ("b", "t")], close=True)
    return AtomAlphabet(q, (q.index("t"),))


def test_idem_letters_must_sit_above_plain_ones():
    q = validate(["a", "b"], [("a", "b")], close=True)
    AtomAlphabet(q, (q.index("b"),))
    with pytest.raises(ValueError):
        AtomAlphabet(q, (q.index("a"),))
    # letter and idempotent indices are checked as a downset's element indices
    # are: a non-integral one is no index, and one outside the carrier is refused
    al = AtomAlphabet(q, ())
    for call in (
        lambda: HWord(al, [1.5]),
        lambda: HWord(al, [1, 0.2]),
        lambda: AtomAlphabet(q, [2.9]),
        lambda: Downset(q, [0.5]),
    ):
        with pytest.raises(TypeError):
            call()
    # a bool is no index either, though True would pass for element 1
    for call in (
        lambda: HWord(al, [True, False]),
        lambda: AtomAlphabet(q, [True]),
        lambda: Downset(q, [False]),
        lambda: principal(q, True),
    ):
        with pytest.raises(TypeError, match="is a bool"):
            call()
    for call in (
        lambda: HWord(al, [0, 2]),
        lambda: HWord(al, [-1]),
        lambda: AtomAlphabet(q, [2]),
        lambda: AtomAlphabet(q, [1, -1]),
    ):
        with pytest.raises(ValueError, match=r"element index -?\d+ is outside range\(2\)"):
            call()


def test_classical_embedding_cases():
    al = classical(2)
    a, b = 0, 1
    assert leq_H(HWord(al, []), HWord(al, [a, b]))
    assert leq_H(HWord(al, [a, b]), HWord(al, [a, a, b]))
    assert not leq_H(HWord(al, [a, a]), HWord(al, [a]))
    assert not leq_H(HWord(al, [b, a]), HWord(al, [a, b]))
    assert not leq_H(HWord(al, [a]), HWord(al, []))


def _reference_plain_part_error(order, idem):
    # the per-pair scan AtomAlphabet ran before its one array expression:
    # the message it raised for the first idempotent letter, in ascending
    # index order, that sits below a plain one, or None
    for i in sorted(idem):
        for j in range(order.n):
            if order.leq[i, j] and j not in idem:
                return (
                    f"idempotent letter {order.elements[i]!r} sits below "
                    f"plain letter {order.elements[j]!r}; the plain part "
                    "must be downward-closed"
                )
    return None


def _plain_part_error(order, idem):
    try:
        AtomAlphabet(order, idem)
    except ValueError as err:
        return str(err)
    return None


def test_plain_part_check_matches_the_loop_reference(order_cases):
    # every idempotent subset of the small quasi-orders; on the letter
    # orders, the alphabet's own subset and each one-letter change of it
    checked = failed = 0
    for order in order_cases:
        if order.n <= 4:
            subsets = [
                frozenset(i for i in range(order.n) if bits >> i & 1)
                for bits in range(1 << order.n)
            ]
        else:
            idem = frozenset(i for i, lab in enumerate(order.elements) if lab.startswith("*"))
            subsets = [idem] + [idem ^ {i} for i in range(order.n)]
        for idem in subsets:
            want = _reference_plain_part_error(order, idem)
            assert _plain_part_error(order, idem) == want
            checked += 1
            failed += want is not None
    assert failed and checked - failed
    # two offenders, which a small set table iterates out of ascending order
    order = validate([str(i) for i in range(9)], [("1", "0"), ("8", "0")], close=True)
    want = _reference_plain_part_error(order, frozenset({1, 8}))
    assert want is not None and _plain_part_error(order, {1, 8}) == want
    # the message depends on the set, not on the order the indices come in
    order = validate([str(i) for i in range(9)], [("0", "2"), ("8", "2")], close=True)
    for idem in ([0, 8], [8, 0]):
        assert _plain_part_error(order, idem).startswith("idempotent letter '0' sits below")


def test_idempotent_targets_absorb_repetition():
    al = idem_top()
    a, b, t = 0, 1, 2
    assert leq_H(HWord(al, [a, a]), HWord(al, [t]))
    assert leq_H(HWord(al, [a, b, a, b]), HWord(al, [t]))
    assert leq_H(HWord(al, [t, t]), HWord(al, [a, t]))
    assert leq_H(HWord(al, [t, t]), HWord(al, [t]))
    # plain letters still embed injectively
    assert not leq_H(HWord(al, [a, a]), HWord(al, [a]))
    # an idempotent letter never lands on plain targets
    assert not leq_H(HWord(al, [t]), HWord(al, [a, b, a, b]))
    # and the plain fragment keeps the classical letter order
    assert not leq_H(HWord(al, [b, a]), HWord(al, [a, b]))
    assert leq_H(HWord(al, [a, t, b]), HWord(al, [t, b]))


def test_concat_and_alphabet_mismatch():
    al = classical(2)
    u = HWord(al, [0])
    v = HWord(al, [1])
    assert concat(u, v).letters == (0, 1)
    with pytest.raises(AlphabetMismatchError):
        concat(u, HWord(classical(2), [0]))
    with pytest.raises(AlphabetMismatchError):
        leq_H(u, HWord(classical(2), [0]))


def test_word_equivalence_and_canonical_forms():
    al = idem_top()
    a, b, t = 0, 1, 2
    tt = HWord(al, [t, t])
    assert equiv_H(tt, HWord(al, [t]))
    assert canonical_word(tt).letters == (t,)
    assert canonical_word(HWord(al, [a, t, b])).letters == (t,)
    assert canonical_word(HWord(al, [a, b])).letters == (a, b)
    assert canonical_word(HWord(al, [])).letters == ()


def test_word_idempotence_classification():
    # over {a,b} < t idempotent, a word absorbs its square exactly when it is
    # empty or mentions t; over a plain alphabet only the empty word does
    al = idem_top()
    t = 2
    for w in all_words(al, 3):
        assert word_is_idempotent(w) == (len(w) == 0 or t in w.letters)
    plain = classical(2)
    for w in all_words(plain, 3):
        assert word_is_idempotent(w) == (len(w) == 0)


def test_words_sorted_shortlex():
    al = classical(2)
    words = all_words(al, 2)
    assert [w.letters for w in words] == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_dp_agrees_with_witness_search_smoke():
    report = dp_agreement_sweep(max_atoms=2, max_pair_len=4, full_len=4, full_atom_cap=2)
    assert report.passed
    assert report.checks[0].stats["pairs"] > 1000


def greedy_leq(lu, lv, leq_rows, idem):
    """The scalar greedy, the reference _embedding is compared with: each
    letter of lu takes the first position at or after the cursor whose
    letter lies above it, and the cursor moves past that position only when
    its letter is plain, so an idempotent target stays open to absorb more."""
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


def test_embedding_kernel_matches_the_scalar_reference():
    # every quasi-order on at most 3 letters under every upward-closed
    # idempotent set, every pair of words up to length 4: as one table over
    # the stack of each size's alphabets, and as a zip per alphabet
    pairs = 0
    for n in range(4):
        words = all_tuples(n, 4)
        W = higman._letter_block(words, 4)
        alphabets = [(q, idem) for q in all_quasi_orders(n) for idem in upward_closed_subsets(q)]
        leq = np.stack([q.leq for q, _ in alphabets])
        vecs = np.stack([higman._idem_vector(n, idem) for _, idem in alphabets])
        rows = np.arange(len(words))
        tables = higman._embedding(W, W, rows[:, None], rows, leq, vecs)
        iu, iv = rows.repeat(len(words)), np.tile(rows, len(words))
        for s, (q, idem) in enumerate(alphabets):
            leq_rows = q.leq.tolist()
            expected = [[greedy_leq(u, v, leq_rows, idem) for v in words] for u in words]
            assert tables[s].tolist() == expected, (q, sorted(idem))
            (zipped,) = higman._embedding(W, W, iu, iv, leq[s : s + 1], vecs[s : s + 1])
            assert zipped.reshape(len(words), len(words)).tolist() == expected
            pairs += len(words) ** 2
    assert pairs == 594_340
    # words past 255 letters need a wider cursor than one byte; a cursor
    # that wrapped to 0 would find u in u[:-1]
    al = classical(2)
    rng = np.random.default_rng(5)
    u, v = (tuple(rng.integers(0, 2, 300).tolist()) for _ in range(2))
    leq_rows = al.order.leq.tolist()
    cases = [(u, v), (v, u), (u, u), (u, u[:-1]), (u[:-1], u)]
    got = [leq_H(HWord(al, x), HWord(al, y)) for x, y in cases]
    assert got == [greedy_leq(x, y, leq_rows, al.idem) for x, y in cases]
    assert True in got and False in got


def test_sweep_catches_a_wrong_decision(monkeypatch):
    kernel = higman._embedding

    def classical_rule(U, V, iu, iv, leq, idem):
        # the cursor always advances, so no idempotent target absorbs twice
        return kernel(U, V, iu, iv, leq, np.zeros_like(idem))

    monkeypatch.setattr(higman, "_embedding", classical_rule)
    report = dp_agreement_sweep(max_atoms=2, max_pair_len=4, full_len=4, full_atom_cap=2)
    check = report.check("dp-matches-witness-search")
    assert report.checks == (check,)
    assert not check.passed
    assert check.counterexample == {
        "alphabet": ["a"],
        "idem": ["a"],
        "lhs": ["a", "a"],
        "rhs": ["a"],
        "dp": False,
        "witness-search": True,
    }
    assert check.stats["pairs"] == 50

    def plain_b(U, V, iu, iv, leq, idem):
        # only letter b stops absorbing: the first disagreement is cell
        # (3, 1) of its block, and the sweep ends after its carrier's alphabets
        return kernel(U, V, iu, iv, leq, idem & (np.arange(idem.shape[1]) != 1))

    monkeypatch.setattr(higman, "_embedding", plain_b)
    report = dp_agreement_sweep(max_atoms=2, max_pair_len=4, full_len=4, full_atom_cap=2)
    check = report.check("dp-matches-witness-search")
    assert report.checks == (check,)
    assert check.counterexample == {
        "alphabet": ["a", "b"],
        "idem": ["a", "b"],
        "lhs": ["b", "b"],
        "rhs": ["b"],
        "dp": False,
        "witness-search": True,
    }
    assert check.stats == {"systems": 5, "pairs": 2_933}


def test_sweep_catches_a_wrong_audit(monkeypatch):
    def any_target_absorbs(U, V, leq, idem):
        # the idempotent-repeat condition is dropped, so plain targets absorb too
        f, _ = higman._weakly_increasing_maps(U.shape[1], V.shape[1])
        return leq[:, U[:, None, None, :], V[:, f]].all(-1).any(-1)

    monkeypatch.setattr(higman, "_witness_table", any_target_absorbs)
    report = dp_agreement_sweep(max_atoms=2, max_pair_len=4, full_len=4, full_atom_cap=2)
    check = report.check("dp-matches-witness-search")
    assert report.checks == (check,)
    assert not check.passed
    assert check.counterexample == {
        "alphabet": ["a"],
        "idem": [],
        "lhs": ["a", "a"],
        "rhs": ["a"],
        "dp": False,
        "witness-search": True,
    }
    assert check.stats["pairs"] == 50


def witness_exists(lu, lv, leq_rows, idem):
    """The scalar witness search, the reference _witness_table is compared
    with: try every weakly increasing map from lu into lv in turn; a witness
    sends each letter below its target, and any target hit more than once is
    idempotent."""
    for f in itertools.combinations_with_replacement(range(len(lv)), len(lu)):
        for i, t in enumerate(f):
            if not leq_rows[lu[i]][lv[t]] or (i and t == f[i - 1] and lv[t] not in idem):
                break
        else:
            return True
    return False


@pytest.mark.parametrize("cells", [qo._BLOCK_CELLS, 1])
def test_witness_kernel_matches_the_scalar_reference(monkeypatch, cells):
    # every block of words up to length 4 over every alphabet of at most 2
    # letters, the empty alphabet, empty words and longer left sides included;
    # one cell per slice takes the rows one at a time
    monkeypatch.setattr(qo, "_BLOCK_CELLS", cells)
    pairs = 0
    for n in range(3):
        words = [[t for t in all_tuples(n, 4) if len(t) == k] for k in range(5)]
        for q in all_quasi_orders(n):
            rows = q.leq.tolist()
            for idem in upward_closed_subsets(q):
                vec = higman._idem_vector(n, idem)
                for a, b in itertools.product(range(5), repeat=2):
                    U = higman._letter_block(words[a], a)
                    V = higman._letter_block(words[b], b)
                    (table,) = higman._witness_table(U, V, q.leq[None], vec[None])
                    expected = [
                        [witness_exists(lu, lv, rows, idem) for lv in words[b]]
                        for lu in words[a]
                    ]
                    assert table.shape == (len(words[a]), len(words[b]))
                    assert table.tolist() == expected, (q, sorted(idem), a, b)
                    pairs += table.size
    assert pairs == 8_700


@pytest.mark.parametrize("cells", [qo._BLOCK_CELLS, 1])
def test_stacked_witness_kernel_matches_each_alphabet(monkeypatch, cells):
    # every alphabet of one carrier size, every quasi-order with every
    # upward-closed idempotent set, stacked into one call per block; each
    # slice must be that alphabet's own scalar search
    monkeypatch.setattr(qo, "_BLOCK_CELLS", cells)
    pairs = 0
    for n, maxlen in ((1, 4), (2, 3), (3, 2)):
        words = [[t for t in all_tuples(n, maxlen) if len(t) == k] for k in range(maxlen + 1)]
        alphabets = [
            (q, idem) for q in all_quasi_orders(n) for idem in upward_closed_subsets(q)
        ]
        assert len(alphabets) > 1
        leq = np.stack([q.leq for q, _ in alphabets])
        vecs = np.stack([higman._idem_vector(n, idem) for _, idem in alphabets])
        for a, b in itertools.product(range(maxlen + 1), repeat=2):
            U = higman._letter_block(words[a], a)
            V = higman._letter_block(words[b], b)
            tables = higman._witness_table(U, V, leq, vecs)
            assert tables.shape == (len(alphabets), len(words[a]), len(words[b]))
            for (q, idem), table in zip(alphabets, tables):
                rows = q.leq.tolist()
                expected = [
                    [witness_exists(lu, lv, rows, idem) for lv in words[b]] for lu in words[a]
                ]
                assert table.tolist() == expected, (q, sorted(idem), a, b)
                pairs += table.size
    assert pairs == 8_835


def test_sweep_rejects_negative_lengths_and_overlong_words():
    for bad in ({"max_pair_len": -1}, {"full_len": -1}):
        with pytest.raises(ValueError):
            dp_agreement_sweep(max_atoms=1, **bad)
    # a full-length pass over one letter reaches the cap even when joint pairs do not
    with pytest.raises(TooLargeError):
        dp_agreement_sweep(max_atoms=2, max_pair_len=2, full_len=9, full_atom_cap=1)
    # refused on entry: no word list of this length is ever built
    with pytest.raises(TooLargeError):
        dp_agreement_sweep(max_atoms=1, max_pair_len=10**6)
    report = dp_agreement_sweep(max_atoms=2, max_pair_len=2, full_len=9, full_atom_cap=0)
    assert report.passed and report.checks[0].stats == {"systems": 10, "pairs": 148}


def test_negative_word_length_is_rejected():
    with pytest.raises(ValueError, match="at least 0"):
        hword_primes_check(idem_top(), maxlen=-1)
    with pytest.raises(ValueError, match="at least 0"):
        bounded_word_monoid(idem_top(), -1)


@pytest.mark.parametrize("maxlen", [0, 1])
def test_prime_census_without_cuts_is_rejected(maxlen):
    # no word shorter than 2 has a cut, so the census could not fail
    with pytest.raises(ValueError, match="at least 2"):
        hword_primes_check(idem_top(), maxlen=maxlen)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_order_axioms_hold_on_random_words(data):
    al = idem_top()
    rows = al.order.leq.tolist()

    def leq(x, y):
        return greedy_leq(x, y, rows, al.idem)

    letters = st.lists(st.integers(0, 2), max_size=4).map(tuple)
    u, v, w = (data.draw(letters) for _ in range(3))
    assert leq(u, u)
    if leq(u, v) and leq(v, w):
        assert leq(u, w)
    # concatenation is monotone on both sides
    if leq(u, v):
        assert leq(u + w, v + w)
        assert leq(w + u, w + v)


def test_prime_words_are_letter_classes():
    for al in (classical(2), idem_top()):
        report = hword_primes_check(al, maxlen=3)
        assert report.passed
        assert report.check("primes-are-letter-classes").stats["prime_classes"] == len(
            {tuple(sorted(np.flatnonzero(al.order.leq[:, i] & al.order.leq[i, :]))) for i in range(al.order.n)}
        )


def first_of_each_class(items, equiv):
    """The first item of each equivalence class, in input order: an item is
    kept unless equiv(item, kept) holds for some item kept before it."""
    reps = []
    for x in items:
        if not any(equiv(x, r) for r in reps):
            reps.append(x)
    return reps


def _reference_primes_census(alphabet, maxlen):
    """hword_primes_check by the double loop over class representatives, on
    the scalar greedy: a nonempty class is prime unless some pair below it,
    neither equivalent to it, concatenates to it."""
    rows = alphabet.order.leq.tolist()

    def leq(u, v):
        return greedy_leq(u, v, rows, alphabet.idem)

    def equiv(u, v):
        return leq(u, v) and leq(v, u)

    words = all_tuples(alphabet.order.n, maxlen)
    reps = first_of_each_class(words, equiv)
    letters = [(i,) for i in range(alphabet.order.n)]
    prime_bad = idem_bad = None
    prime_classes = idem_prime_classes = 0
    for w in reps:
        labels = [alphabet.order.elements[i] for i in w]
        claimed = any(equiv(w, l) for l in letters)
        actual = not equiv(w, ()) and not any(
            equiv(a + b, w) and not equiv(a, w) and not equiv(b, w)
            for a in reps
            if leq(a, w)
            for b in reps
            if leq(b, w)
        )
        if claimed != actual and prime_bad is None:
            prime_bad = {"word": labels, "letter-class": claimed, "prime": actual}
        if actual:
            prime_classes += 1
            idem_claimed = any(equiv(w, letters[i]) for i in sorted(alphabet.idem))
            idem_actual = equiv(w + w, w)
            if idem_claimed != idem_actual and idem_bad is None:
                idem_bad = {
                    "word": labels,
                    "idem-letter-class": idem_claimed,
                    "idempotent": idem_actual,
                }
            idem_prime_classes += idem_actual
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
            CheckResult("idempotent-primes-are-idempotent-letters", idem_bad is None, idem_bad),
        ),
    )


def test_prime_census_matches_the_triple_loop_reference():
    # every quasi-order on at most 3 letters under every upward-closed
    # idempotent set, then the level-1 letter alphabets on at most 2 points
    alphabets = [
        AtomAlphabet(q, idem)
        for n in (1, 2, 3)
        for q in all_quasi_orders(n)
        for idem in upward_closed_subsets(q)
    ]
    alphabets += [build_atoms(q, 1).alphabet for n in (1, 2) for q in all_quasi_orders(n)]
    assert len(alphabets) == 55
    for al in alphabets:
        got = hword_primes_check(al, maxlen=3).to_json()
        assert got == _reference_primes_census(al, 3).to_json(), al


def test_prime_census_reads_the_same_in_small_blocks(monkeypatch):
    # blocks of one and of five words find most classes against the
    # representatives of earlier blocks, not within their own block
    alphabets = [
        AtomAlphabet(q, idem)
        for n in (1, 2, 3)
        for q in all_quasi_orders(n)
        for idem in upward_closed_subsets(q)
    ]
    whole = [hword_primes_check(al, maxlen=3).to_json() for al in alphabets]
    for block in (1, 5):
        monkeypatch.setattr(higman, "_CLASS_BLOCK", block)
        assert [hword_primes_check(al, maxlen=3).to_json() for al in alphabets] == whole


def test_prime_census_compares_no_words_with_an_empty_stack(monkeypatch):
    # the first block has no representatives yet, so all its words are new
    # without a table against the empty stack; from length 5 on, some blocks
    # hold no word outside the known classes (one at 5, sixteen at 6), and
    # such a block ties nothing, so it builds no table either
    with open(DATA / "a2.json") as f:
        alphabet = build_atoms(qo.from_json(json.load(f)), 1).alphabet
    honest = higman._word_order

    def nonempty(alphabet, U, V, table):
        assert len(U) and len(V), (U.shape, V.shape)
        return honest(alphabet, U, V, table)

    monkeypatch.setattr(higman, "_word_order", nonempty)
    for maxlen, counts in ((4, (781, 110, 5)), (5, (3906, 288, 5)), (6, (19531, 754, 5))):
        stats = hword_primes_check(alphabet, maxlen).check("primes-are-letter-classes").stats
        assert (stats["words"], stats["classes"], stats["prime_classes"]) == counts


def idem_singleton():
    q = validate(["a"], [], close=True)
    return AtomAlphabet(q, (0,))


def test_bounded_word_monoid_satisfies_axioms():
    # over classical alphabets longer never embeds in shorter, so overflow is
    # monotone; over all-idempotent alphabets reduce keeps products bounded
    for al, maxlen, reduce in (
        (classical(1), 4, False),
        (classical(2), 3, False),
        (idem_singleton(), 3, True),
    ):
        m = bounded_word_monoid(al, maxlen, reduce=reduce)
        assert check_axioms(m).passed
    # with an idempotent letter around, t.t embeds in t, so a product can
    # overflow while a pointwise larger pair stays bounded: not monotone
    mixed = bounded_word_monoid(idem_top(), 2, reduce=False)
    assert not check_axioms(mixed).passed


def test_abstract_matching_against_capped_addition():
    report = check_abstractly_higman(capped_addition(4))
    assert report.passed
    assert report.checks[0].stats["prime_count"] == 1


def test_abstract_matching_fails_on_commuting_primes():
    # a1*a2 and a2*a1 are both the top, yet no weakly increasing map matches
    # a1.a2 letterwise into a2.a1
    report = check_abstractly_higman(flat(2))
    assert not report.passed
    check = report.check("products-compare-letterwise")
    assert check.counterexample == {
        "left": ["a1", "a2"],
        "right": ["a2", "a1"],
        "products-ordered": True,
        "letterwise-match": False,
    }
    assert check.stats["tuple_pairs"] == 66


def test_abstract_matching_reads_the_same_in_row_slices(monkeypatch):
    whole = [check_abstractly_higman(m).to_json() for m in (capped_addition(4), flat(2), flat(3))]
    monkeypatch.setattr(qo, "_BLOCK_CELLS", 1)
    sliced = [check_abstractly_higman(m).to_json() for m in (capped_addition(4), flat(2), flat(3))]
    assert sliced == whole


def test_upward_closed_subsets(chain2):
    subs = upward_closed_subsets(chain2)
    assert subs == [frozenset(), frozenset({1}), frozenset({0, 1})]


def test_brute_force_cap():
    al = classical(2)
    long = HWord(al, [0] * 9)
    with pytest.raises(TooLargeError):
        leq_H_bruteforce(long, long)
