import itertools
import random

import numpy as np
import pytest

from idealforge import qo
from idealforge.errors import (
    CombinatorialBlowupError,
    DuplicateLabelError,
    NotReflexiveError,
    NotTransitiveError,
    UnknownLabelError,
)
from idealforge.higman import AtomAlphabet, bounded_word_monoid
from idealforge.qo import (
    FiniteQO,
    _bits,
    _canonical_relation_key,
    _canonical_relation_keys,
    _closure_tables,
    _directed_mask,
    _down_mask,
    _element_masks,
    _quote,
    _row_masks,
    _union_mask,
    all_downsets_of_poset,
    all_quasi_orders,
    disjoint_union_with_star,
    equiv_classes,
    from_json,
    hasse_dot,
    quotient,
    to_json,
    transitive_closure,
    validate,
)


def test_validate_rejects_bad_input(monkeypatch):
    with pytest.raises(DuplicateLabelError):
        validate(["a", "a"], [])
    with pytest.raises(UnknownLabelError):
        validate(["a"], [("a", "zz")])
    with pytest.raises(NotReflexiveError):
        validate(["a", "b"], [("a", "a"), ("a", "b")])
    with pytest.raises(NotTransitiveError):
        validate(["a", "b", "c"], [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")])
    # a < c < f and e < d < b lack only (a, f) and (e, b); (a, f) comes first
    # row-major and (e, b) column-major.  One cell per block reads a row at a time.
    pairs = [(x, x) for x in "abcdef"] + [("a", "c"), ("c", "f"), ("e", "d"), ("d", "b")]
    for cells in (qo._BLOCK_CELLS, 1):
        monkeypatch.setattr(qo, "_BLOCK_CELLS", cells)
        with pytest.raises(NotTransitiveError, match=r"^missing transitive pair \('a', 'f'\)$"):
            validate("abcdef", pairs)


def test_validate_close_takes_closure():
    q = validate(["a", "b", "c"], [("a", "b"), ("b", "c")], close=True)
    assert q.leq[q.index("a"), q.index("c")]
    assert not q.leq[q.index("c"), q.index("a")]


def test_transitive_closure_is_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(20):
        raw = rng.random((5, 5)) < 0.3
        closed = transitive_closure(raw)
        assert np.array_equal(closed, transitive_closure(closed))
        assert closed.diagonal().all()


def _reference_closure(table):
    # the boolean squaring transitive_closure ran before its float32 products
    closed = table.copy()
    np.fill_diagonal(closed, True)
    while True:
        step = closed | (closed @ closed)
        if np.array_equal(step, closed):
            return step
        closed = step


@pytest.mark.parametrize("cells", [qo._BLOCK_CELLS, 1])
def test_transitive_closure_matches_the_boolean_reference(monkeypatch, cells):
    # every relation on up to 4 points, whose closures are every labelled
    # quasi-order table there and which include those tables themselves;
    # one cell per block squares a row at a time
    monkeypatch.setattr(qo, "_BLOCK_CELLS", cells)
    checked = 0
    for n in range(5):
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in range(1 << len(off)):
            raw = np.zeros((n, n), dtype=bool)
            for k, (i, j) in enumerate(off):
                raw[i, j] = bits >> k & 1
            closed = transitive_closure(raw)
            assert closed.dtype == bool
            assert np.array_equal(closed, _reference_closure(raw)), raw
            checked += 1
    assert checked == 1 + 1 + 4 + 64 + 4096
    # seeded relations, sparse to dense, the diagonal not always set
    rng = np.random.default_rng(25)
    for n in (5, 17, 64, 130):
        for density in (0.01, 0.05, 0.3):
            raw = rng.random((n, n)) < density
            assert np.array_equal(transitive_closure(raw), _reference_closure(raw))


def test_json_roundtrip(n_shape):
    back = from_json(to_json(n_shape))
    assert back.elements == n_shape.elements
    assert np.array_equal(back.leq, n_shape.leq)


def test_equiv_classes_and_quotient(two_cycle):
    classes = equiv_classes(two_cycle)
    assert classes == ((0, 1), (2,))
    qm = quotient(two_cycle)
    assert qm.classes.elements == ("a=b", "c")
    assert qm.class_of == (0, 0, 1)
    # a quotient is already a partial order, so quotienting again is identity
    again = quotient(qm.classes)
    assert again.classes.elements == qm.classes.elements


def test_closures_and_directedness(n_shape):
    c = n_shape.index("c")
    d = n_shape.index("d")
    down = _element_masks(n_shape)[0]
    assert _bits(down[c]) == sorted([n_shape.index("a"), n_shape.index("b"), c])
    assert _union_mask(down, []) == 0
    down_cd = _union_mask(down, [c, d])
    assert _down_mask(n_shape, down_cd) == down_cd
    assert _down_mask(n_shape, 1 << c) != 1 << c
    assert _directed_mask(down, down[c])
    assert not _directed_mask(down, 1 << c | 1 << d)
    assert not _directed_mask(down, 0)


def test_mask_primitives_match_matrix_and_definition_references():
    # every subset of every quasi-order on at most four points: closures
    # against numpy over the comparison table, predicates against their
    # definitions
    for n in (1, 2, 3, 4):
        for q in all_quasi_orders(n):
            down = _element_masks(q)[0]
            for bits in range(1 << n):
                s = frozenset(i for i in range(n) if bits >> i & 1)
                idx = sorted(s)
                assert _bits(_union_mask(down, s)) == np.flatnonzero(
                    q.leq[:, idx].any(axis=1)
                ).tolist()
                closed = all(j in s for i in s for j in range(n) if q.leq[j, i])
                assert (_down_mask(q, bits) == bits) == closed
                directed = bool(s) and all(
                    any(q.leq[a, c] and q.leq[b, c] for c in s) for a in s for b in s
                )
                assert _directed_mask(down, bits) == directed


def test_byte_tables_match_the_union_on_every_mask():
    # seeded quasi-orders of 0 to 10 elements, so the last table is short,
    # full or the second of two
    rng = random.Random(0)
    for n in range(11):
        pairs = np.array([rng.random() < 0.2 for _ in range(n * n)]).reshape(n, n)
        q = FiniteQO([f"x{i}" for i in range(n)], transitive_closure(pairs))
        down = _element_masks(q)[0]
        tables = _closure_tables(q)
        assert [len(t) for t in tables] == [1 << min(8, n - k) for k in range(0, n, 8)]
        for mask in range(1 << n):
            assert _down_mask(q, mask) == _union_mask(down, _bits(mask))


def test_star_extension(a2):
    star = disjoint_union_with_star(a2)
    assert star.elements == ("a", "b", "⋆")
    fresh = star.n - 1
    assert star.leq[fresh, fresh]
    # the new point is comparable to nothing else
    assert not any(star.leq[i, fresh] or star.leq[fresh, i] for i in range(fresh))
    # the base order is untouched
    assert not star.leq[0, 1] and not star.leq[1, 0]
    # a clashing label gets primed
    again = disjoint_union_with_star(star)
    assert again.elements[-1] == "⋆'"


def test_all_downsets_of_poset_counts(chain3, antichain3):
    # a chain has one downset per prefix, plus the empty one
    assert len(all_downsets_of_poset(chain3.leq)) == 4
    assert len(all_downsets_of_poset(antichain3.leq)) == 8
    with pytest.raises(CombinatorialBlowupError):
        all_downsets_of_poset(np.eye(5, dtype=bool), max_count=10)


def _labeled_quasi_order_tables(n):
    # independent brute enumeration of reflexive transitive relations
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(off)):
        t = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(off):
            if bits >> k & 1:
                t[i, j] = True
        if np.array_equal(t | (t @ t), t):
            yield t


def _reference_downsets_of_poset(leq):
    # the one-element-at-a-time enumeration on a partial order, which
    # all_downsets_of_poset ran before it stepped over equivalence classes
    below = [sum(1 << i for i in np.flatnonzero(col).tolist()) for col in leq.T]
    order = sorted(range(leq.shape[0]), key=lambda i: (below[i].bit_count(), i))
    downs = [0]
    for x in order:
        bit = 1 << x
        preds = below[x] & ~bit
        downs += [d | bit for d in downs if not preds & ~d]
    return downs


def test_all_downsets_of_poset_steps_over_classes():
    # every labelled quasi-order on at most four points, partial orders and
    # not: exactly the downward-closed subsets, each once, the empty one
    # first; on the quotient the list and its order are those of the
    # element-at-a-time reference
    for n in range(5):
        for table in _labeled_quasi_order_tables(n):
            closed = [
                bits for bits in range(1 << n)
                if all(bits >> i & 1 for i, j in np.argwhere(table) if bits >> j & 1)
            ]
            found = all_downsets_of_poset(table)
            assert found[0] == 0 and sorted(found) == closed
            classes = quotient(FiniteQO([str(i) for i in range(n)], table)).classes.leq
            assert all_downsets_of_poset(classes) == _reference_downsets_of_poset(classes)


def _full_scan_downsets(leq):
    # the class-stepping enumeration as it was before each step skipped the
    # downsets listed before its latest-stepped predecessor's step
    below, above = _row_masks(leq.T), _row_masks(leq)
    least = [i for i, b in enumerate(below) if not b & above[i] & (1 << i) - 1]
    downs = [0]
    for x in sorted(least, key=lambda i: (below[i].bit_count(), i)):
        cls = below[x] & above[x]
        preds = below[x] & ~cls
        downs += [d | cls for d in downs if d & preds == preds]
    return downs


def test_downset_steps_scan_only_what_can_grow():
    # the same list in the same order as the full scan, on every labelled
    # quasi-order on at most four points and on the 41-point word order
    tables = [table for n in range(5) for table in _labeled_quasi_order_tables(n)]
    vee = validate(["a", "b", "c"], [("a", "c"), ("b", "c")], close=True)
    tables.append(bounded_word_monoid(AtomAlphabet(vee, ()), 3).order.leq)
    for table in tables:
        assert all_downsets_of_poset(table) == _full_scan_downsets(table)
    assert len(tables) == 391 and len(all_downsets_of_poset(tables[-1])) == 41_268


def test_all_quasi_orders_counts():
    # labeled reflexive-transitive relations number 1, 4, 29; up to
    # isomorphism that collapses to 1, 3, 9 (and 33 at four points)
    assert [sum(1 for _ in _labeled_quasi_order_tables(n)) for n in (1, 2, 3)] == [1, 4, 29]
    assert [len(all_quasi_orders(n)) for n in (1, 2, 3, 4)] == [1, 3, 9, 33]
    for q in all_quasi_orders(3):
        assert np.array_equal(transitive_closure(q.leq), q.leq)


def _reference_relation_key(table, extra=()):
    # one np.ix_ relabelling per permutation, least encoding kept
    n = table.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        arr = table[np.ix_(perm, perm)]
        mask = bytes(1 if perm[i] in extra else 0 for i in range(n))
        key = arr.tobytes() + mask
        if best is None or key < best:
            best = key
    return best if best is not None else b""


def _reference_quasi_order_tables(n):
    # one candidate table at a time, first of each isomorphism class kept
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    out = []
    for bits in range(1 << len(off_diag)):
        table = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(off_diag):
            if bits >> k & 1:
                table[i, j] = True
        if not np.array_equal(table | (table @ table), table):
            continue
        key = _reference_relation_key(table)
        if key not in seen:
            seen.add(key)
            out.append(table)
    return out


def test_quasi_order_enumeration_matches_loop_reference():
    for n in range(5):
        got = all_quasi_orders(n)
        want = _reference_quasi_order_tables(n)
        assert len(got) == len(want)
        for q, table in zip(got, want):
            assert q.elements == tuple("abcd"[:n])
            assert np.array_equal(q.leq, table)


def test_canonical_keys_match_loop_reference():
    rng = np.random.default_rng(5)
    checked = 0
    for n in range(5):
        for q in all_quasi_orders(n):
            table = np.asarray(q.leq)
            # relabel: new element i is old element perm[i]
            perm = rng.permutation(n)
            inverse = np.argsort(perm)
            copy = table[np.ix_(perm, perm)]
            for size in range(n + 1):
                for extra in itertools.combinations(range(n), size):
                    key = _canonical_relation_key(table, extra)
                    assert key == _reference_relation_key(table, extra)
                    moved = tuple(sorted(int(inverse[i]) for i in extra))
                    assert _canonical_relation_key(copy, moved) == key
                    assert _reference_relation_key(copy, moved) == key
                    checked += 1
    assert checked == 615


def test_stacked_keys_match_per_table_keys():
    # every quasi-order on at most 4 points with every member row, one
    # stack per carrier size, against the stack-of-one view
    for n in range(5):
        tables, members = [], []
        for q in all_quasi_orders(n):
            for bits in range(1 << n):
                tables.append(np.asarray(q.leq))
                members.append([bits >> i & 1 == 1 for i in range(n)])
        stacked = _canonical_relation_keys(
            np.array(tables), np.array(members, dtype=bool).reshape(len(members), n)
        )
        single = [
            _canonical_relation_key(t, tuple(np.flatnonzero(m).tolist()))
            for t, m in zip(tables, members)
        ]
        assert stacked == single
    # eight points would need a 72-bit encoding
    with pytest.raises(ValueError, match="at most 7 elements"):
        _canonical_relation_keys(np.zeros((1, 8, 8), dtype=bool), np.zeros((1, 8), dtype=bool))


def _reference_equiv_classes(q):
    # the pairwise class scan equiv_classes ran before it read each class
    # off the carrier's down- and up-masks
    assigned = [-1] * q.n
    classes = []
    for i in range(q.n):
        if assigned[i] >= 0:
            continue
        members = tuple(j for j in range(i, q.n) if q.leq[i, j] and q.leq[j, i])
        for j in members:
            assigned[j] = len(classes)
        classes.append(members)
    return tuple(classes)


def _reference_hasse_dot(q, name="quotient"):
    # the triple-loop cover scan hasse_dot ran before it read covers off the
    # quotient's strict up-masks
    c = quotient(q).classes
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f"  {_quote(lab)};" for lab in c.elements]
    strict = c.leq & ~c.leq.T
    for i in range(c.n):
        for j in range(c.n):
            if not strict[i, j]:
                continue
            if any(strict[i, k] and strict[k, j] for k in range(c.n)):
                continue
            lines.append(f"  {_quote(c.elements[i])} -> {_quote(c.elements[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_classes_and_covers_match_the_loop_references(order_cases):
    assert len(order_cases) == 2 * (1 + 1 + 3 + 9 + 33) + 3 * (1 + 3 + 9)
    edges = 0
    for q in order_cases:
        assert equiv_classes(q) == _reference_equiv_classes(q)
        dot = hasse_dot(q, name="atoms")
        assert dot == _reference_hasse_dot(q, name="atoms")
        edges += dot.count(" -> ")
    # the covers are not all trivially absent
    assert edges > 100


def test_hasse_dot_is_covering_only(chain3):
    dot = hasse_dot(chain3)
    assert '"a" -> "b"' in dot
    assert '"b" -> "c"' in dot
    # the composite pair is implied, not drawn
    assert '"a" -> "c"' not in dot


def test_tables_are_frozen(a2):
    with pytest.raises(ValueError):
        a2.leq[0, 1] = True
