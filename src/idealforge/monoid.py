"""Finite quasi-orders carrying a compatible multiplication.

The axioms are checked up to the induced equivalence, never up to equality:
associativity, a left factor sitting below every product it starts,
monotonicity in both arguments, and neutrality of the unit.  Failures are
reported as data with a concrete counterexample, not raised.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .downsets import downset_product, enumerate_ideals, principal
from .errors import EmptyCarrierError, NoFactorizationError, SchemaError, UnknownLabelError
from .qo import FiniteQO, _checked_indices, from_json as qo_from_json
from .report import CheckResult, Report

# longest factor product check_prime_product_lemma tries
_MAX_TUPLE = 3
# rows of the multiplication table one step of the split search reads
_SPLIT_ROWS = 16


class MonoidalQO:
    """A finite quasi-order with a total multiplication table and a unit.

    The constructor checks only integrality, shape and range; whether the
    data actually satisfies the axioms is the job of check_axioms, so that
    broken tables can be represented, checked, and reported on.  Two memo
    tables live and die with the monoid: hset_mult's products and the
    down-masks of products that downset_product reads, built on first use.
    """

    __slots__ = ("order", "mult", "unit", "_mult_cache", "_down_rows")

    def __init__(self, order: FiniteQO, mult, unit: int) -> None:
        if order.n == 0:
            raise EmptyCarrierError("a multiplicative structure needs a carrier")
        table = np.array(mult)
        if table.dtype.kind not in "iu":
            raise TypeError("multiplication table entries must be integers")
        table = table.astype(np.int64, copy=False)
        if table.shape != (order.n, order.n):
            raise ValueError(f"multiplication table must be {order.n}x{order.n}")
        if table.min() < 0 or table.max() >= order.n:
            raise ValueError("multiplication table entry out of carrier range")
        (unit,) = _checked_indices(order, [unit])
        table.setflags(write=False)
        self.order = order
        self.mult = table
        self.unit = unit
        self._mult_cache: dict = {}
        self._down_rows: list[list[int]] | None = None

    @property
    def n(self) -> int:
        return self.order.n

    def mul(self, i: int, j: int) -> int:
        return int(self.mult[i, j])

    def label(self, i: int) -> str:
        return self.order.elements[i]

    def __repr__(self) -> str:
        return f"MonoidalQO({list(self.order.elements)!r}, unit={self.label(self.unit)!r})"


def monoid_from_json(obj: dict) -> MonoidalQO:
    """Read {"elements", "order", "close", "mult", "unit"}.

    Multiplication triples [a, b, c] mean a*b = c and may use labels or
    carrier indices; every pair must be covered exactly once.
    """
    order = qo_from_json(obj)
    n = order.n
    table = -np.ones((n, n), dtype=np.int64)
    mult = obj.get("mult")
    if not isinstance(mult, list) or not all(isinstance(t, list) and len(t) == 3 for t in mult):
        raise SchemaError('"mult" must be a list of [a, b, c] triples')

    def resolve(x) -> int:
        if isinstance(x, str):
            return order.index(x)
        if not isinstance(x, int) or isinstance(x, bool):
            raise SchemaError(f"{x!r} is neither a label nor a carrier index")
        if not 0 <= x < n:
            raise UnknownLabelError(f"index {x} out of range")
        return x

    for a, b, c in mult:
        i, j = resolve(a), resolve(b)
        if table[i, j] >= 0:
            pair = (order.elements[i], order.elements[j])
            raise ValueError(f"multiplication pair {pair} given twice")
        table[i, j] = resolve(c)
    if (table < 0).any():
        i, j = np.argwhere(table < 0)[0]
        raise ValueError(
            f"multiplication table missing entry for "
            f"({order.elements[i]!r}, {order.elements[j]!r})"
        )
    return MonoidalQO(order, table, resolve(obj.get("unit")))


def _eq_table(m: MonoidalQO) -> np.ndarray:
    return m.order.leq & m.order.leq.T


def _law(name: str, rows, describe) -> CheckResult:
    """Pass when every row (index, ok) holds on all of ok; else the first
    false cell, rows in order and cells row-major within a row, gives the
    counterexample describe(*index, *cell)."""
    for index, ok in rows:
        if not ok.all():
            return CheckResult(name, False, describe(*index, *np.argwhere(~ok)[0].tolist()))
    return CheckResult(name, True)


def check_axioms(m: MonoidalQO) -> Report:
    """Associativity up to equivalence, weak increase (q below q*p),
    monotonicity in both arguments, and neutrality of the unit.  Each law is
    read one row at a time: O(n^2) memory, where whole tables need n^3 and n^4."""
    leq = m.order.leq
    eq = _eq_table(m)
    M = m.mult
    n = m.n
    e = m.unit
    comparable = np.argwhere(leq)
    lo, hi = comparable.T

    def monotone(i: int, i2: int, c: int) -> dict:
        j, j2 = comparable[c].tolist()
        return {
            "pairs": [[m.label(i), m.label(i2)], [m.label(j), m.label(j2)]],
            "products": [m.label(m.mul(i, j)), m.label(m.mul(i2, j2))],
        }

    checks = (
        _law(
            "associativity",
            (((i,), eq[M[M[i], :], M[i][M]]) for i in range(n)),
            lambda i, j, k: {
                "triple": [m.label(i), m.label(j), m.label(k)],
                "left": m.label(m.mul(m.mul(i, j), k)),
                "right": m.label(m.mul(i, m.mul(j, k))),
            },
        ),
        _law(
            "weak-increase",
            [((), leq[np.arange(n)[:, None], M])],
            lambda i, j: {"pair": [m.label(i), m.label(j)], "product": m.label(m.mul(i, j))},
        ),
        _law(
            "monotonicity",
            (((i, i2), leq[M[i, lo], M[i2, hi]]) for i, i2 in comparable.tolist()),
            monotone,
        ),
        _law(
            "unit-neutral",
            [((), eq[M[e, :], np.arange(n)] & eq[M[:, e], np.arange(n)])],
            lambda i: {
                "element": m.label(i),
                "left": m.label(m.mul(e, i)),
                "right": m.label(m.mul(i, e)),
            },
        ),
    )
    return Report("multiplicative-axioms", checks)


def check_plus_property(m: MonoidalQO) -> Report:
    """Witness splitting: whenever c is below a*b there are a' below a and
    b' below b with a'*b' equivalent to c."""
    leq = m.order.leq
    eq = _eq_table(m)
    M = m.mult
    n = m.n
    below = [np.flatnonzero(leq[:, a]) for a in range(n)]
    counterexample = None
    checked = 0
    for a, b in itertools.product(range(n), repeat=2):
        # one row of products per aa keeps memory at O(n^2)
        reachable = np.zeros(n, dtype=bool)
        for aa in below[a]:
            reachable |= eq[M[aa, below[b]], :].any(axis=0)
        needed = below[M[a, b]]
        missed = needed[~reachable[needed]]
        if len(missed):
            c = int(missed[0])
            checked += int(np.searchsorted(needed, c)) + 1
            counterexample = {
                "a": m.label(a),
                "b": m.label(b),
                "c": m.label(c),
                "product": m.label(m.mul(a, b)),
            }
            break
        checked += len(needed)
    return Report(
        "plus-property",
        (
            CheckResult(
                "witness-splitting",
                counterexample is None,
                counterexample,
                {"triples": checked},
            ),
        ),
    )


def _split(m: MonoidalQO, eq: np.ndarray, x: int, allowed: np.ndarray) -> tuple[int, int] | None:
    """The first pair (a, b), row by row, of allowed factors whose product is
    equivalent to x.  Only the allowed rows and columns of the table are
    read, _SPLIT_ROWS rows at a time up to the first row with a hit."""
    idx = np.flatnonzero(allowed)
    for lo in range(0, len(idx), _SPLIT_ROWS):
        hit = np.argwhere(eq[x][m.mult[np.ix_(idx[lo : lo + _SPLIT_ROWS], idx)]])
        if len(hit):
            return int(idx[lo + hit[0, 0]]), int(idx[hit[0, 1]])
    return None


def primes(m: MonoidalQO) -> frozenset[int]:
    """Elements not equivalent to the unit that never split: whenever such a
    p is equivalent to a*b, it is equivalent to a or to b."""
    eq = _eq_table(m)
    return frozenset(
        p for p in range(m.n) if not eq[p, m.unit] and _split(m, eq, p, ~eq[p]) is None
    )


def prime_factorization(m: MonoidalQO, q: int) -> list[int]:
    """A finite list of primes whose product is equivalent to q; empty exactly
    when q is equivalent to the unit.

    Splits at the least pair of strictly smaller factors, the left one first;
    the choice is deterministic, so equal inputs give identical factor lists.
    Assumes the axioms hold; a non-prime that refuses to split strictly
    signals a violated precondition.
    """
    (q,) = _checked_indices(m.order, [q])
    eq = _eq_table(m)
    leq = m.order.leq
    out: list[int] = []
    stack = [q]
    # each distinct element's strict split, or None once it is known prime
    splits: dict[int, tuple[int, int] | None] = {}
    while stack:
        x = stack.pop()
        if eq[x, m.unit]:
            continue
        if x not in splits:
            split = _split(m, eq, x, leq[:, x] & ~leq[x])
            # no strict split: x had better be prime
            loose = _split(m, eq, x, ~eq[x]) if split is None else None
            if loose is not None:
                a, b = loose
                raise NoFactorizationError(
                    f"{m.label(x)!r} splits as "
                    f"{m.label(a)!r}*{m.label(b)!r} but not strictly; "
                    "the multiplication axioms cannot hold"
                )
            splits[x] = split
        split = splits[x]
        if split is None:
            out.append(x)
        else:
            stack += reversed(split)  # the left factor on top
    return out


def check_prime_product_lemma(m: MonoidalQO) -> Report:
    'A prime below a product of at most three factors is below some factor.'
    leq = m.order.leq
    M = m.mult
    ps = sorted(primes(m))
    tuples = itertools.chain.from_iterable(
        itertools.product(range(m.n), repeat=k) for k in range(1, _MAX_TUPLE + 1)
    )
    products = ((t, functools.reduce(lambda x, f: int(M[x, f]), t)) for t in tuples)
    instances = ((p, t, prod) for t, prod in products for p in ps if leq[p, prod])
    counterexample = None
    checked = 0
    for checked, (p, factors, prod) in enumerate(instances, 1):
        if not any(leq[p, f] for f in factors):
            counterexample = {
                "prime": m.label(p),
                "factors": [m.label(f) for f in factors],
                "product": m.label(prod),
            }
            break
    return Report(
        "prime-below-product",
        (
            CheckResult(
                "prime-lands-on-a-factor",
                counterexample is None,
                counterexample,
                {"instances": checked, "primes": len(ps)},
            ),
        ),
    )


def ideal_monoid(m: MonoidalQO) -> MonoidalQO:
    """The monoid of ideals of the carrier under the pointwise product and
    inclusion.  Element i is enumerate_ideals(m.order)[i]; labels list the
    members.  The unit is the down-closure of the unit element."""
    ideals = enumerate_ideals(m.order)
    masks = [ideal.mask for ideal in ideals]
    index = {mask: i for i, mask in enumerate(masks)}
    table = np.array([[not x & ~y for y in masks] for x in masks], dtype=bool)
    mult = np.array(
        [[index[downset_product(x, y, m).mask] for y in ideals] for x in ideals],
        dtype=np.int64,
    )
    labels = tuple("{" + ",".join(ideal.labels) + "}" for ideal in ideals)
    unit = index[principal(m.order, m.unit).mask]
    return MonoidalQO(FiniteQO(labels, table), mult, unit)
