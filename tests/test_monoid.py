import inspect
import itertools
import json
import random
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import DATA

from idealforge import monoid
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
    prime_factorization,
    primes,
)
from idealforge.qo import FiniteQO, all_quasi_orders
from idealforge.report import CheckResult, Report


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


def test_axiom_scan_memory_is_quadratic():
    # each law is read one row at a time: 129.7 MiB traced peak on this
    # 200-element monoid when associativity gathered two n^3 tables
    m = flat(198)
    tracemalloc.start()
    try:
        report = check_axioms(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 8 * 2**20


def test_json_reader_matches_the_fixture():
    obj = json.loads((DATA / "capped_addition4.monoid.json").read_text())
    back = monoid_from_json(obj)
    m = capped_addition(4)
    assert np.array_equal(back.mult, m.mult)
    assert back.unit == m.unit
    obj["mult"] = obj["mult"][:-1]
    with pytest.raises(ValueError, match="missing entry"):
        monoid_from_json(obj)


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


def test_factorization_checks_its_element_index():
    # a negative index would wrap round to the last element, a large one
    # overrun, and a bool or a float pass for an element
    m = capped_addition(4)
    for q in (-1, 5):
        with pytest.raises(ValueError, match=rf"element index {q} is outside range\(5\)"):
            prime_factorization(m, q)
    for q in (1.0, True):
        with pytest.raises(TypeError):
            prime_factorization(m, q)


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


def test_factorization_of_a_long_chain_needs_no_deep_recursion():
    # the top of a 200-element chain splits 198 times on the way down to its
    # 199 prime factors; a limit a few dozen frames above the current depth
    # is refused by one recursion level per split
    m = capped_addition(199)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        factors = prime_factorization(m, m.order.index("199"))
    finally:
        sys.setrecursionlimit(limit)
    assert [m.label(i) for i in factors] == ["1"] * 199


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


def _sample_monoids() -> list[MonoidalQO]:
    """The shipped fixtures, the capped-addition file and chains up to cap 7,
    and seeded tables on every quasi-order on at most 3 points."""
    monoids = [fx.monoid for fx in shipped_fixtures()]
    monoids.append(monoid_from_json(json.loads((DATA / "capped_addition4.monoid.json").read_text())))
    monoids += [capped_addition(cap) for cap in range(1, 8)]
    # seeded tables that need not satisfy the axioms, so refusals occur too
    rng = random.Random(11)
    for n in (1, 2, 3):
        for q in all_quasi_orders(n):
            for _ in range(100):
                table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                monoids.append(MonoidalQO(q, table, rng.randrange(n)))
    return monoids


def test_split_search_matches_the_double_loop_reference(monkeypatch):
    # the default row step, one row per step, and steps that end inside a table
    monoids = _sample_monoids()
    for rows in (monoid._SPLIT_ROWS, 1, 3):
        monkeypatch.setattr(monoid, "_SPLIT_ROWS", rows)
        refused = 0
        for m in monoids:
            assert primes(m) == _reference_primes(m)
            for x in range(m.n):
                got = _outcome(prime_factorization, m, x)
                assert got == _outcome(_reference_factorization, m, x)
                refused += isinstance(got, str)
        assert refused > 0


def _first_failure(name: str, cases) -> CheckResult:
    'Pass when cases yields nothing, else fail on the first counterexample it yields.'
    bad = next(iter(cases), None)
    return CheckResult(name, bad is None, bad)


def _reference_axioms(m: MonoidalQO) -> Report:
    """check_axioms by plain loops, each law failing on its first
    counterexample in row-major order."""
    leq, M, n, e, lab = m.order.leq, m.mult, m.n, m.unit, m.label
    eq = leq & leq.T
    r = range(n)

    def mul(i, j):
        return int(M[i, j])

    return Report(
        "multiplicative-axioms",
        (
            _first_failure(
                "associativity",
                (
                    {
                        "triple": [lab(i), lab(j), lab(k)],
                        "left": lab(mul(mul(i, j), k)),
                        "right": lab(mul(i, mul(j, k))),
                    }
                    for i in r for j in r for k in r
                    if not eq[mul(mul(i, j), k), mul(i, mul(j, k))]
                ),
            ),
            _first_failure(
                "weak-increase",
                (
                    {"pair": [lab(i), lab(j)], "product": lab(mul(i, j))}
                    for i in r for j in r
                    if not leq[i, mul(i, j)]
                ),
            ),
            _first_failure(
                "monotonicity",
                (
                    {
                        "pairs": [[lab(i), lab(i2)], [lab(j), lab(j2)]],
                        "products": [lab(mul(i, j)), lab(mul(i2, j2))],
                    }
                    for i in r for i2 in r if leq[i, i2]
                    for j in r for j2 in r if leq[j, j2]
                    if not leq[mul(i, j), mul(i2, j2)]
                ),
            ),
            _first_failure(
                "unit-neutral",
                (
                    {"element": lab(i), "left": lab(mul(e, i)), "right": lab(mul(i, e))}
                    for i in r
                    if not (eq[mul(e, i), i] and eq[mul(i, e), i])
                ),
            ),
        ),
    )


def _reference_plus_property(m: MonoidalQO) -> Report:
    """check_plus_property by plain loops, counting the triples read up to
    and including the first miss."""
    leq, M, n, lab = m.order.leq, m.mult, m.n, m.label
    eq = leq & leq.T
    triples = 0
    bad = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if bad is None and leq[c, M[a, b]]:
                    triples += 1
                    if not any(
                        eq[M[aa, bb], c] and leq[aa, a] and leq[bb, b]
                        for aa in range(n)
                        for bb in range(n)
                    ):
                        bad = {"a": lab(a), "b": lab(b), "c": lab(c), "product": lab(int(M[a, b]))}
    result = CheckResult("witness-splitting", bad is None, bad, {"triples": triples})
    return Report("plus-property", (result,))


def _reference_prime_product_lemma(m: MonoidalQO) -> Report:
    'check_prime_product_lemma by plain loops over factor tuples of length 1, 2 and 3.'
    leq, M = m.order.leq, m.mult
    ps = sorted(_reference_primes(m))
    instances = 0
    bad = None
    for length in (1, 2, 3):
        for factors in itertools.product(range(m.n), repeat=length):
            prod = factors[0]
            for f in factors[1:]:
                prod = int(M[prod, f])
            for p in ps:
                if bad is None and leq[p, prod]:
                    instances += 1
                    if not any(leq[p, f] for f in factors):
                        bad = {
                            "prime": m.label(p),
                            "factors": [m.label(f) for f in factors],
                            "product": m.label(prod),
                        }
    stats = {"instances": instances, "primes": len(ps)}
    result = CheckResult("prime-lands-on-a-factor", bad is None, bad, stats)
    return Report("prime-below-product", (result,))


def test_law_checks_match_the_plain_loop_reference():
    failed = {}
    for m in _sample_monoids():
        for check, reference in (
            (check_axioms, _reference_axioms),
            (check_plus_property, _reference_plus_property),
            (check_prime_product_lemma, _reference_prime_product_lemma),
        ):
            got = check(m).to_json()
            assert got == reference(m).to_json(), (m, check.__name__)
            for c in got["checks"]:
                failed[c["name"]] = failed.get(c["name"], 0) + (not c["passed"])
    # every law fails somewhere, so each first-failure path is compared
    assert len(failed) == 6 and all(failed.values()), failed


def test_non_integral_table_or_unit_is_rejected():
    q = FiniteQO(["e", "a"], np.array([[True, True], [False, True]]))
    with pytest.raises(TypeError):
        MonoidalQO(q, [[0, 1.7], [1, 1]], 0)
    for unit in (1.5, True):
        with pytest.raises(TypeError):
            MonoidalQO(q, [[0, 1], [1, 1]], unit)
    with pytest.raises(ValueError, match=r"element index 2 is outside range\(2\)"):
        MonoidalQO(q, [[0, 1], [1, 1]], 2)
    assert MonoidalQO(q, [[0, 1], [1, 1]], np.int64(1)).unit == 1


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
