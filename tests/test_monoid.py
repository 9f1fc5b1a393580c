import numpy as np
import pytest

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
from idealforge.qo import FiniteQO


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
