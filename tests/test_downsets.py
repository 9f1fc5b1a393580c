import gc
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from idealforge.downsets import (
    Downset,
    Ideal,
    _canonical,
    downset_product,
    enumerate_downsets,
    enumerate_ideals,
    ideal_decomposition,
    principal,
    product_decomposition,
)
from idealforge.errors import CombinatorialBlowupError
from idealforge.fixtures import capped_addition, flat, squaring_to_unit
from idealforge.higman import AtomAlphabet, bounded_word_monoid, upward_closed_subsets
from idealforge.monoid import MonoidalQO, check_axioms, prime_factorization
from idealforge.qo import (
    FiniteQO,
    _bits,
    _element_masks,
    _union_mask,
    all_downsets_of_poset,
    all_quasi_orders,
    from_json,
    validate,
)

from conftest import DATA


def test_downset_requires_downward_closure(n_shape, antichain3):
    with pytest.raises(ValueError):
        Downset(n_shape, {n_shape.index("c")})
    with pytest.raises(ValueError):
        Downset(n_shape, set())
    # a negative index is no element, though it would wrap round to the last
    with pytest.raises(ValueError):
        Downset(antichain3, {-1})


def test_indices_outside_the_carrier_are_rejected():
    two = validate(["a", "b"], [], close=True)
    with pytest.raises(ValueError, match="outside range"):
        Downset(two, {5})
    with pytest.raises(ValueError, match="outside range"):
        Downset.from_mask(two, 1 << 5)
    with pytest.raises(ValueError, match="outside range"):
        Downset.from_mask(two, -1)
    # the public entry points that take element indices reject the same way,
    # though a negative index would wrap round and a large one overrun
    for call in (
        lambda: principal(two, -1),
        lambda: principal(two, 5),
        lambda: Downset(two, {0, -1}),
        lambda: Ideal(two, [-1]),
        lambda: Ideal(two, [5]),
    ):
        with pytest.raises(ValueError, match=r"element index -?\d+ is outside range\(2\)"):
            call()
    d = Downset(two, {0, 1})
    assert [i in d for i in (-1, 0, 1, 2, 5, 64)] == [False, True, True, False, False, False]
    # membership takes element indices by the same rule, bools and floats refused
    for x in (True, 1.0):
        with pytest.raises(TypeError):
            x in d


def test_mask_form_matches_member_form():
    # every subset of every quasi-order on at most four points, built once
    # from its members and once from its mask
    for n in (1, 2, 3, 4):
        for q in all_quasi_orders(n):
            with pytest.raises(ValueError, match="nonempty"):
                Downset.from_mask(q, 0)
            built = []
            for mask in range(1, 1 << n):
                members = [i for i in range(n) if mask >> i & 1]
                try:
                    by_members = Downset(q, members)
                except ValueError as err:
                    assert "not downward closed" in str(err)
                    with pytest.raises(ValueError, match=re.escape(str(err))):
                        Downset.from_mask(q, mask)
                    continue
                by_mask = Downset.from_mask(q, mask)
                assert by_members == by_mask and hash(by_members) == hash(by_mask)
                assert by_mask.members == frozenset(members)
                assert by_mask.labels == by_members.labels
                built.append((by_members, by_mask, frozenset(members)))
            for x, xm, xs in built:
                for y, ym, ys in built:
                    assert (x <= y) == (xm <= ym) == (xs <= ys)


def test_extensional_equality(n_shape):
    x = Downset(n_shape, {0, 1, 2, 3})
    y = Downset.from_mask(n_shape, principal(n_shape, 2).mask | principal(n_shape, 3).mask)
    assert x == y and hash(x) == hash(y)
    other = principal(n_shape, 2)
    assert x != other
    with pytest.raises(ValueError):
        x <= Downset(capped_addition(2).order, {0})


def test_enumerations(chain3, a2, n_shape):
    assert [sorted(d.labels) for d in enumerate_downsets(chain3)] == [
        ["a"],
        ["a", "b"],
        ["a", "b", "c"],
    ]
    assert len(enumerate_downsets(a2)) == 3
    assert len(enumerate_downsets(n_shape)) == 7
    assert [sorted(i.labels) for i in enumerate_ideals(n_shape)] == [
        ["a"],
        ["b"],
        ["b", "d"],
        ["a", "b", "c"],
    ]


def test_max_count_bounds_the_returned_downsets(chain3):
    # chain3 has exactly three nonempty downsets; the empty one is not counted
    assert len(enumerate_downsets(chain3, max_count=3)) == 3
    with pytest.raises(CombinatorialBlowupError):
        enumerate_downsets(chain3, max_count=2)


def test_enumerations_match_brute_force():
    # every subset of every quasi-order on at most four points, filtered by
    # the definitions and sorted by (size, members)
    for n in (1, 2, 3, 4):
        for q in all_quasi_orders(n):
            subsets = [
                tuple(i for i in range(n) if bits >> i & 1) for bits in range(1 << n)
            ]
            subsets.sort(key=lambda s: (len(s), s))
            downs = [
                s for s in subsets
                if s and all(j in s for i in s for j in range(n) if q.leq[j, i])
            ]
            assert [tuple(sorted(d.members)) for d in enumerate_downsets(q)] == downs
            ideals = [
                s for s in downs
                if all(any(q.leq[a, c] and q.leq[b, c] for c in s) for a in s for b in s)
            ]
            assert [tuple(sorted(i.members)) for i in enumerate_ideals(q)] == ideals
            # each downset splits into the ideals below its maximal elements
            for d in enumerate_downsets(q):
                s = sorted(d.members)
                tops = [i for i in s if all(q.leq[j, i] for j in s if q.leq[i, j])]
                want = sorted({tuple(j for j in s if q.leq[j, i]) for i in tops})
                got = [tuple(sorted(i.members)) for i in ideal_decomposition(d)]
                assert got == sorted(want, key=lambda t: (len(t), t))
            ups = [s for s in subsets if all(j in s for i in s for j in range(n) if q.leq[i, j])]
            assert [tuple(sorted(u)) for u in upward_closed_subsets(q)] == ups


def test_masks_span_several_machine_words():
    labels = [f"x{i}" for i in range(70)]
    chain = validate(labels, list(zip(labels, labels[1:])), close=True)
    assert principal(chain, 69).members == frozenset(range(70))
    assert Downset(chain, range(70)).members == frozenset(range(70))
    with pytest.raises(ValueError, match="not downward closed"):
        Downset(chain, {69})
    # a 64-point antichain below two incomparable tops at indices 64 and 65
    base = [f"y{i}" for i in range(64)]
    vee = validate(base + ["s", "t"], [(b, top) for b in base for top in "st"], close=True)
    assert principal(vee, 65).members == frozenset(range(64)) | {65}
    assert Downset(vee, range(66)).members == frozenset(range(66))
    with pytest.raises(ValueError, match="not directed"):
        Ideal(vee, range(66))


def test_bounded_word_downsets_keep_their_frozen_values():
    # words of length <= 3 over two incomparable letters below a third; the
    # values were read off the frozenset enumeration that the bitmask one
    # replaced, and are not to be edited
    vee = validate(["a", "b", "c"], [("a", "c"), ("b", "c")], close=True)
    order = bounded_word_monoid(AtomAlphabet(vee, ()), 3).order
    downs = enumerate_downsets(order, max_count=None)
    assert len(downs) == 41_267
    assert [d.members for d in downs[:3]] == [{0}, {0, 1}, {0, 2}]
    assert [d.members for d in downs[-3:]] == [
        frozenset(range(39)),
        frozenset(range(40)),
        frozenset(range(41)),
    ]


def test_canonical_pass_rejects_open_and_empty_masks(n_shape, two_cycle, singleton):
    # one array pass checks every mask; a mask that is not downward closed,
    # or the empty mask, fails the whole pass
    a, b, c = (1 << n_shape.index(x) for x in "abc")
    assert _canonical(n_shape, [a | b | c, b, a]) == [a, b, a | b | c]
    for bad in ([a, c], [b, a | c], [0], [a, 0]):
        with pytest.raises(ValueError, match="not downward closed, or empty"):
            _canonical(n_shape, bad)
    # a is below b and b below a: half a class is not closed
    with pytest.raises(ValueError):
        _canonical(two_cycle, [1 << two_cycle.index("a")])
    # bits outside the carrier, above it or from a negative mask, are
    # rejected as Downset.from_mask rejects them
    for bad in ([2], [-1], [1, 1 << 64], [1, -(1 << 70)]):
        with pytest.raises(ValueError, match="outside range"):
            _canonical(singleton, bad)


def test_canonical_pass_matches_the_sorted_reference():
    # shuffled downset masks, as a list and as a one-shot iterator, against
    # Python's sort on (size, members): every quasi-order on at most four
    # points and its reverse, the 41-point bounded word order and a 70-point
    # chain, whose masks span two 64-bit limbs
    vee = validate(["a", "b", "c"], [("a", "c"), ("b", "c")], close=True)
    labels = [f"x{i}" for i in range(70)]
    carriers = [q for n in (1, 2, 3, 4) for q in all_quasi_orders(n)]
    carriers += [FiniteQO(q.elements, q.leq.T) for q in carriers]
    carriers.append(bounded_word_monoid(AtomAlphabet(vee, ()), 3).order)
    carriers.append(validate(labels, list(zip(labels, labels[1:])), close=True))
    rng = random.Random(0)
    for q in carriers:
        masks = all_downsets_of_poset(q.leq)[1:]
        rng.shuffle(masks)
        want = sorted(masks, key=lambda m: (m.bit_count(), _bits(m)))
        assert _canonical(q, masks) == want
        assert _canonical(q, iter(masks)) == want


def test_canonical_order_across_machine_words():
    # the (size, members) order wherever the masks span several bytes or
    # several 64-bit words: the 41-point bounded word order (6 bytes), a
    # 70-point chain, the same chain between two incomparable end points
    # (bits 0 and 69 against the chain), and a carrier with a two-element class
    vee = validate(["a", "b", "c"], [("a", "c"), ("b", "c")], close=True)
    labels = [f"x{i}" for i in range(70)]
    chain = validate(labels, list(zip(labels, labels[1:])), close=True)
    inner = labels[1:69]
    ends = validate(labels, list(zip(inner, inner[1:])), close=True)
    with open(DATA / "two_classes.json") as f:
        two_classes = from_json(json.load(f))
    carriers = [bounded_word_monoid(AtomAlphabet(vee, ()), 3).order, chain, ends, two_classes]
    for q, count in zip(carriers, (41_267, 70, 275, 2)):
        found = [tuple(sorted(d.members)) for d in enumerate_downsets(q, max_count=None)]
        assert len(found) == len(set(found)) == count
        assert found == sorted(found, key=lambda s: (len(s), s))


def test_enumeration_peak_memory_is_bounded():
    # peak traced allocation while enumerating the 41,267 downsets of the
    # bounded word order above: 86.6 MiB when each result held a frozenset
    # of members, 7.6 MiB with one int mask each, 5.5 MiB with no quotient
    # and one int sort key per mask, 4.2 MiB with one array pass that checks
    # and orders the masks, 3.5 MiB with each value built when it is read
    vee = validate(["a", "b", "c"], [("a", "c"), ("b", "c")], close=True)
    order = bounded_word_monoid(AtomAlphabet(vee, ()), 3).order
    tracemalloc.start()
    try:
        downs = enumerate_downsets(order, max_count=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(downs) == 41_267
    assert peak < 20 * 2**20


def test_ideals_collapse_equivalent_tops(two_cycle):
    # a and b generate the same ideal, so only two ideals exist
    ideals = enumerate_ideals(two_cycle)
    assert [sorted(i.labels) for i in ideals] == [["a", "b"], ["a", "b", "c"]]


def test_decomposition_lists_maximal_ideals(n_shape):
    full = Downset(n_shape, set(range(n_shape.n)))
    parts = ideal_decomposition(full)
    assert sorted(sorted(p.labels) for p in parts) == [["a", "b", "c"], ["b", "d"]]
    assert frozenset().union(*(p.members for p in parts)) == full.members
    single = principal(n_shape, n_shape.index("a"))
    assert ideal_decomposition(single) == [single]


def test_product_respects_ideals():
    m = capped_addition(3)
    one = principal(m.order, 1)
    two = principal(m.order, 2)
    prod = downset_product(one, two, m)
    assert isinstance(prod, Ideal)
    assert prod == principal(m.order, 3)
    assert principal(m.order, m.unit) == principal(m.order, 0)
    # the unit downset is neutral for the product
    assert downset_product(principal(m.order, m.unit), two, m) == two


def test_product_decomposition_recovers_everything():
    for m in (capped_addition(3), flat(2)):
        downs = enumerate_downsets(m.order)
        for a in downs:
            for b in downs:
                prod = downset_product(a, b, m)
                for c in downs:
                    if not c.members <= prod.members:
                        continue
                    parts = product_decomposition(c, a, b, m)
                    covered = set()
                    for left, right in parts:
                        boxed = downset_product(left, right, m)
                        assert boxed.members <= c.members
                        covered |= boxed.members
                    assert covered == c.members


def test_product_decomposition_rejects_noncontained():
    m = capped_addition(3)
    zero = principal(m.order, 0)
    three = principal(m.order, 3)
    with pytest.raises(ValueError):
        product_decomposition(three, zero, zero, m)


def test_downset_sequence_reads_like_a_list(n_shape):
    downs = enumerate_downsets(n_shape)
    masks = _canonical(n_shape, all_downsets_of_poset(n_shape.leq)[1:])
    want = [Downset.from_mask(n_shape, mask) for mask in masks]
    assert len(downs) == len(want) == 7
    assert downs[0] == want[0] and downs[-1] == want[-1] and downs[-7] == want[0]
    assert all(type(d) is Downset for d in downs)
    for i in (7, -8, 10**6):
        with pytest.raises(IndexError):
            downs[i]
    for cut in (slice(None, 3), slice(-3, None), slice(1, -1, 2), slice(5, 2), slice(None)):
        part = downs[cut]
        assert len(part) == len(want[cut]) and list(part) == want[cut]
    assert list(downs) == [downs[i] for i in range(len(downs))] == want
    assert list(reversed(downs)) == want[::-1]
    assert want[3] in downs and downs.index(want[3]) == 3
    # a view is read-only: no item can be set or deleted
    with pytest.raises(TypeError):
        downs[0] = want[1]


def test_downset_listing_builds_no_values():
    # the 41,267 masks are listed and checked; no value is built until read,
    # so the garbage collector tracks no object per downset
    vee = validate(["a", "b", "c"], [("a", "c"), ("b", "c")], close=True)
    order = bounded_word_monoid(AtomAlphabet(vee, ()), 3).order
    gc.collect()
    before = len(gc.get_objects())
    downs = enumerate_downsets(order, max_count=None)
    grown = len(gc.get_objects()) - before
    assert len(downs) == 41_267
    assert grown < 1_000, grown


def _numpy_product(x, y, m):
    'The product as a numpy gather of the member products, the route before held rows.'
    if x.base is not m.order or y.base is not m.order:
        raise ValueError("downsets must live over the monoid's carrier")
    products = m.mult[np.ix_(_bits(x.mask), _bits(y.mask))]
    mask = _union_mask(_element_masks(m.order)[0], set(products.ravel().tolist()))
    kind = Ideal if isinstance(x, Ideal) and isinstance(y, Ideal) else Downset
    return kind.from_mask(m.order, mask)


def _numpy_decomposition(c, a, b, m):
    'The boxed products through the same gather, reading c member by member.'
    prod = _numpy_product(a, b, m)
    if c.mask & ~prod.mask:
        raise ValueError("c must be contained in the product of a and b")
    lefts, rights = _bits(a.mask), _bits(b.mask)
    fibers = [
        sum(1 << bb for bb, p in zip(rights, row) if c.mask >> p & 1)
        for row in m.mult[np.ix_(lefts, rights)].tolist()
    ]
    out = []
    for fiber in dict.fromkeys(f for f in fibers if f):
        left = sum(1 << aa for aa, f in zip(lefts, fibers) if not fiber & ~f)
        out.append((Downset.from_mask(m.order, left), Downset.from_mask(m.order, fiber)))
    return out


def _outcome(call, *args):
    try:
        value = call(*args)
    except ValueError as err:
        return type(err), str(err)
    if isinstance(value, list):
        return [(type(p), p.mask, type(q), q.mask) for p, q in value]
    return type(value), value.mask


def test_products_match_the_member_products():
    # every pair of downsets and ideals, and for each pair every downset c,
    # against the numpy gather; a downset over another carrier and a c
    # outside the product must fail with the same error
    plain = AtomAlphabet(validate(["a", "b"], [], close=True), ())
    monoids = (capped_addition(3), flat(2), squaring_to_unit(), bounded_word_monoid(plain, 2))
    foreign = principal(capped_addition(1).order, 0)
    decompositions = 0
    for m in monoids:
        downs = list(enumerate_downsets(m.order))
        values = downs + enumerate_ideals(m.order)
        for a in values + [foreign]:
            for b in values:
                got = _outcome(downset_product, a, b, m)
                assert got == _outcome(_numpy_product, a, b, m)
                if a is foreign:
                    assert got[0] is ValueError
                    continue
                for c in downs:
                    want = _outcome(_numpy_decomposition, c, a, b, m)
                    assert _outcome(product_decomposition, c, a, b, m) == want
                    decompositions += isinstance(want, list)
    assert decompositions == 18_280


def test_product_masks_live_with_their_monoid():
    # two monoids share one chain: capped addition and max; each reads its
    # own table, in any order of calls
    chain = capped_addition(2).order
    adding = MonoidalQO(chain, [[min(i + j, 2) for j in range(3)] for i in range(3)], 0)
    joining = MonoidalQO(chain, [[max(i, j) for j in range(3)] for i in range(3)], 0)
    ideals = enumerate_ideals(chain)
    for x in ideals:
        for y in ideals:
            for m in (adding, joining, adding):
                assert downset_product(x, y, m) == _numpy_product(x, y, m)
    one = principal(chain, 1)
    assert downset_product(one, one, adding) == principal(chain, 2)
    assert downset_product(one, one, joining) == one


def test_monoid_checks_build_no_product_masks():
    # the axioms and the factorization read the table alone, so a long chain
    # pays for no n^2 table of product masks
    m = capped_addition(60)
    assert check_axioms(m).passed
    assert prime_factorization(m, 60) == [1] * 60
    assert m._down_rows is None
    downset_product(principal(m.order, 1), principal(m.order, 2), m)
    assert m._down_rows is not None
