import json
import random
import re
import tracemalloc

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
from idealforge.fixtures import capped_addition, flat
from idealforge.higman import AtomAlphabet, bounded_word_monoid, upward_closed_subsets
from idealforge.qo import (
    FiniteQO,
    _bits,
    all_downsets_of_poset,
    all_quasi_orders,
    from_json,
    validate,
)

from conftest import DATA


def _canonical_masks(q, masks):
    return [d.mask for d in _canonical(q, masks, Downset)]


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
    assert _canonical_masks(n_shape, [a | b | c, b, a]) == [a, b, a | b | c]
    for bad in ([a, c], [b, a | c], [0], [a, 0]):
        with pytest.raises(ValueError, match="not downward closed, or empty"):
            _canonical_masks(n_shape, bad)
    # a is below b and b below a: half a class is not closed
    with pytest.raises(ValueError):
        _canonical_masks(two_cycle, [1 << two_cycle.index("a")])
    # bits outside the carrier, above it or from a negative mask, are
    # rejected as Downset.from_mask rejects them
    for bad in ([2], [-1], [1, 1 << 64], [1, -(1 << 70)]):
        with pytest.raises(ValueError, match="outside range"):
            _canonical_masks(singleton, bad)


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
        assert _canonical_masks(q, masks) == want
        assert _canonical_masks(q, iter(masks)) == want


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
    # and orders the masks
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
