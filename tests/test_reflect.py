import numpy as np
import pytest

from idealforge import hierarchy
from idealforge.hierarchy import ur_elem
from idealforge.qo import all_quasi_orders
from idealforge.reflect import build_reflection, verify_reflection


def _by_serial(table, serial):
    for atom in table.system.atoms:
        if atom.serial == serial:
            return table.entries[atom]
    raise KeyError(serial)


def _first_disagreements(table):
    """verify_reflection's order checks by a double loop over the live
    compare_atoms: the first pair, row by row, that the letter order puts
    below and the image order does not, and the first the other way round."""
    atoms = table.system.atoms
    images = [table.entries[a] for a in atoms]
    below = hierarchy._leq_table(images, table.star_qo)
    preserve = reflect = None
    for x, row in zip(atoms, below.tolist()):
        for y, dst in zip(atoms, row):
            src = hierarchy.compare_atoms(x, y)
            if src and not dst and preserve is None:
                preserve = {"x": x.serial, "y": y.serial}
            if dst and not src and reflect is None:
                reflect = {"x": x.serial, "y": y.serial}
    return preserve, reflect


def _order_counterexamples(report):
    return tuple(
        report.check(name).counterexample for name in ("order-preserving", "order-reflecting")
    )


def test_frozen_images_over_two_incomparable_points(a2):
    table = build_reflection(a2, 1)
    assert table.star_qo.n - 1 == 2
    assert table.star_qo.elements == ("a", "b", "⋆")
    assert _by_serial(table, "a") is ur_elem(0)
    assert _by_serial(table, "b") is ur_elem(1)
    assert _by_serial(table, "*{a}").serial == "{u0,u2}"
    assert _by_serial(table, "*{b}").serial == "{u1,u2}"
    assert _by_serial(table, "*{a,b}").serial == "{u0,u1,u2}"


def test_translation_verifies_on_small_carriers(
    singleton, chain2, a2, chain3, antichain3, two_cycle
):
    for q in (singleton, chain2, a2, chain3, antichain3, two_cycle):
        for alpha in (1, 2):
            table = build_reflection(q, alpha)
            assert all(v is not None for v in table.entries.values())
            report = verify_reflection(table)
            assert report.passed, (q.elements, alpha, report.to_json())
            n = len(table.system.atoms)
            assert report.check("order-preserving").stats["pairs"] == n * n


def test_images_encode_level_and_starness(a2):
    table = build_reflection(a2, 2)
    assert table.system.alpha == 2
    star_ur = ur_elem(table.star_qo.n - 1)
    for atom in table.system.atoms:
        fa = table.entries[atom]
        assert fa.rank == atom.level - 1
        assert fa.rank < table.system.alpha
        if atom.is_idem:
            assert star_ur in fa.children
        else:
            assert fa.ur == atom.base_class


def test_out_of_bounds_image_is_reported_unordered(a2):
    # an urelement past the extended carrier cannot be ordered: image-bounds
    # fails, and the order checks fail with it instead of indexing past q.leq
    table = build_reflection(a2, 1)
    table.entries[table.system.atoms[0]] = ur_elem(7)
    report = verify_reflection(table)
    bounds = report.check("image-bounds")
    assert not bounds.passed
    assert bounds.counterexample == {"atom": "a", "urelements": [7]}
    for name in ("order-preserving", "order-reflecting"):
        assert not report.check(name).passed, name
        assert report.check(name).counterexample == bounds.counterexample
    assert report.check("order-preserving").stats["pairs"] == 0


def test_plain_letter_on_the_fresh_point_fails_star_membership(a2):
    # the fresh point's urelement is its own payload, so a plain letter
    # mapped onto it carries the star
    table = build_reflection(a2, 1)
    table.entries[table.system.atoms[0]] = ur_elem(2)
    report = verify_reflection(table)
    star = report.check("star-membership")
    assert not star.passed
    assert star.counterexample == {"atom": "a", "image": "u2"}
    assert report.check("image-bounds").passed
    assert report.check("order-preserving").passed
    assert not report.check("order-reflecting").passed
    assert _order_counterexamples(report) == _first_disagreements(table)


def test_corrupted_set_kernel_is_reported(a2, monkeypatch):
    table = build_reflection(a2, 1)
    honest = hierarchy._leq_table

    def corrupted(hs, q):
        out = honest(hs, q)
        out[np.ix_([x.ur is None for x in hs], [y.ur is not None for y in hs])] = True
        return out

    # the set side now puts every idempotent image below every plain one,
    # which the letter side does not
    monkeypatch.setattr(hierarchy, "_leq_table", corrupted)
    report = verify_reflection(table)
    assert report.check("order-preserving").passed
    bad = report.check("order-reflecting")
    assert not bad.passed
    assert bad.counterexample["x"].startswith("*")
    assert not bad.counterexample["y"].startswith("*")
    assert _order_counterexamples(report) == _first_disagreements(table)


def test_corrupted_comparison_rule_is_reported(a2, monkeypatch):
    table = build_reflection(a2, 1)
    assert verify_reflection(table).passed

    honest = hierarchy.compare_atoms

    def skewed(x, y):
        if x.is_idem and not y.is_idem:
            return True
        return honest(x, y)

    # swapped in after the build: the letter side now claims idempotent
    # letters sit below plain ones, the set side disagrees
    monkeypatch.setattr(hierarchy, "compare_atoms", skewed)
    report = verify_reflection(table)
    assert not report.passed
    bad = report.check("order-preserving")
    assert not bad.passed
    assert bad.counterexample["x"].startswith("*")
    assert _order_counterexamples(report) == _first_disagreements(table)

    # swapped in before the build: the alphabet constructor refuses the
    # resulting letter order outright
    with pytest.raises(ValueError):
        build_reflection(a2, 1)

    def merged(x, y):
        return honest(x, y) or not (x.is_idem or y.is_idem)

    # plain letters that compare both ways disagree with their images at
    # (a, b) and (b, a); the first row by row is (a, b)
    monkeypatch.setattr(hierarchy, "compare_atoms", merged)
    report = verify_reflection(table)
    assert report.check("order-preserving").counterexample == {"x": "a", "y": "b"}
    assert _order_counterexamples(report) == _first_disagreements(table)


def test_translation_verifies_at_level_three_on_three_points():
    # every quasi-order on three points; the discrete one is the largest, with
    # 1,962 letters and 3,849,444 pairs
    carriers = all_quasi_orders(3)
    assert len(carriers) == 9
    sizes = []
    total = 0
    for q in carriers:
        table = build_reflection(q, 3)
        report = verify_reflection(table)
        assert report.passed, (q.leq.tolist(), report.to_json())
        n = len(table.system.atoms)
        pairs = report.check("order-preserving").stats["pairs"]
        assert pairs == n * n
        sizes.append(n)
        total += pairs
    assert sorted(sizes)[-2:] == [173, 1_962]
    assert total == 41_574 + 3_849_444
