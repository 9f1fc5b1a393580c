import json
import random

import numpy as np
import pytest
from conftest import DATA

from idealforge.downsets import enumerate_ideals
from idealforge.errors import EmptyCarrierError, NoFactorizationError
from idealforge.fixtures import (
    capped_addition,
    flat,
    idem_pair,
    shipped_fixtures,
    squaring_to_unit,
)
from idealforge.monoid import (
    MonoidalQO,
    check_axioms,
    check_plus_property,
    check_prime_product_lemma,
    ideal_monoid,
    monoid_from_json,
    monoid_to_json,
    prime_factorization,
    primes,
)
from idealforge.qo import FiniteQO, all_quasi_orders


def test_fixture_annotations_hold():
    for fx in shipped_fixtures():
        assert check_axioms(fx.monoid).passed == fx.axioms_hold, fx.name
        assert check_plus_property(fx.monoid).passed == fx.plus_holds, fx.name


def test_axiom_counterexamples_name_the_witness():
    report = check_axioms(squaring_to_unit())
    bad = report.check("weak-increase")
    assert not bad.passed
    assert bad.counterexample == {"pair": ["a", "a"], "product": "e"}
    sp = check_plus_property(flat(3))
    assert sp.checks[0].counterexample["product"] == "t"


def test_json_roundtrip():
    m = capped_addition(3)
    back = monoid_from_json(monoid_to_json(m))
    assert np.array_equal(back.mult, m.mult)
    assert back.unit == m.unit
    broken = monoid_to_json(m)
    broken["mult"] = broken["mult"][:-1]
    with pytest.raises(ValueError):
        monoid_from_json(broken)


def test_empty_carrier_rejected():
    q = FiniteQO([], np.zeros((0, 0), dtype=bool))
    with pytest.raises(EmptyCarrierError):
        MonoidalQO(q, np.zeros((0, 0), dtype=np.int64), 0)


def test_primes_and_factorization():
    m = capped_addition(4)
    assert {m.label(i) for i in primes(m)} == {"1"}
    assert [m.label(i) for i in prime_factorization(m, m.order.index("4"))] == ["1"] * 4
    assert prime_factorization(m, m.order.index("0")) == []
    f = flat(2)
    assert {f.label(i) for i in primes(f)} == {"a1", "a2"}
    assert sorted(f.label(i) for i in prime_factorization(f, f.order.index("t"))) == ["a1", "a2"]


def test_factorization_refuses_non_strict_splits():
    # p*p lands on an incomparable t, so t never splits strictly; the
    # helper reports the violated precondition instead of looping
    order = np.eye(3, dtype=bool)
    order[0, :] = True
    q = FiniteQO(["e", "p", "t"], order)
    mult = np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]], dtype=np.int64)
    m = MonoidalQO(q, mult, 0)
    assert not check_axioms(m).passed
    with pytest.raises(NoFactorizationError, match=r"'t' splits as 'p'\*'p'"):
        prime_factorization(m, q.index("t"))


def _reference_factorization(m: MonoidalQO, x: int) -> list[int]:
    """prime_factorization by double loops: the first strict split, row by
    row, else x is prime unless some loose split exists."""
    leq, M = m.order.leq, m.mult
    eq = leq & leq.T
    pairs = [(a, b) for a in range(m.n) for b in range(m.n)]
    if eq[x, m.unit]:
        return []
    for a, b in pairs:
        if eq[M[a, b], x] and leq[a, x] and not leq[x, a] and leq[b, x] and not leq[x, b]:
            return _reference_factorization(m, a) + _reference_factorization(m, b)
    for a, b in pairs:
        if eq[M[a, b], x] and not eq[a, x] and not eq[b, x]:
            raise NoFactorizationError(
                f"{m.label(x)!r} splits as {m.label(a)!r}*{m.label(b)!r} but not strictly; "
                "the multiplication axioms cannot hold"
            )
    return [x]


def _reference_primes(m: MonoidalQO) -> frozenset[int]:
    eq = m.order.leq & m.order.leq.T
    M = m.mult
    return frozenset(
        p
        for p in range(m.n)
        if not eq[p, m.unit]
        and not any(
            eq[M[a, b], p] and not eq[a, p] and not eq[b, p]
            for a in range(m.n)
            for b in range(m.n)
        )
    )


def _outcome(factorize, m: MonoidalQO, x: int):
    try:
        return factorize(m, x)
    except NoFactorizationError as e:
        return str(e)


def test_split_search_matches_the_double_loop_reference():
    monoids = [fx.monoid for fx in shipped_fixtures()]
    monoids.append(monoid_from_json(json.loads((DATA / "capped_addition4.monoid.json").read_text())))
    # seeded tables that need not satisfy the axioms, so refusals occur too
    rng = random.Random(11)
    for n in (1, 2, 3):
        for q in all_quasi_orders(n):
            for _ in range(100):
                table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                monoids.append(MonoidalQO(q, table, rng.randrange(n)))
    refused = 0
    for m in monoids:
        assert primes(m) == _reference_primes(m)
        for x in range(m.n):
            got = _outcome(prime_factorization, m, x)
            assert got == _outcome(_reference_factorization, m, x)
            refused += isinstance(got, str)
    assert refused > 0


def test_prime_product_lemma_on_good_fixtures():
    for fx in (capped_addition(3), flat(2), idem_pair()):
        report = check_prime_product_lemma(fx)
        assert report.passed


def test_ideal_monoid_of_a_chain_is_a_chain():
    im = ideal_monoid(capped_addition(3))
    assert im.order.elements == ("{0}", "{0,1}", "{0,1,2}", "{0,1,2,3}")
    assert im.unit == 0
    assert check_axioms(im).passed
    # capped addition on ideals is still capped addition
    assert im.mul(1, 2) == 3
    assert im.mul(3, 3) == 3
    basis = enumerate_ideals(capped_addition(3).order)
    assert len(basis) == im.n


def test_ideal_monoid_keeps_the_plus_property():
    for base in (capped_addition(2), flat(2), idem_pair()):
        im = ideal_monoid(base)
        assert check_axioms(im).passed
        assert check_plus_property(im).passed
