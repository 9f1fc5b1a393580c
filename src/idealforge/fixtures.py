"""Small monoids with known verdicts, used as test subjects throughout.

Each fixture records whether the multiplicative axioms and the splitting
property are supposed to hold, so tests can assert the checkers against
ground truth instead of against themselves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .higman import AtomAlphabet, bounded_word_monoid
from .monoid import MonoidalQO
from .qo import FiniteQO


@dataclass(frozen=True)
class MonoidFixture:
    name: str
    monoid: MonoidalQO
    axioms_hold: bool
    plus_holds: bool


def capped_addition(cap: int) -> MonoidalQO:
    'Naturals 0..cap under truncated addition, usual order.'
    n = cap + 1
    labels = [str(i) for i in range(n)]
    order = np.fromfunction(lambda i, j: i <= j, (n, n), dtype=int)
    mult = np.fromfunction(lambda i, j: np.minimum(i + j, cap), (n, n), dtype=int)
    return MonoidalQO(FiniteQO(labels, order), mult, 0)


def flat(width: int) -> MonoidalQO:
    """A unit, `width` incomparable middle points, a top absorbing products.

    Distinct middle points multiply to the top; beyond width 2 the top has
    more below it than any single product can split into, which is exactly
    what the splitting property forbids.
    """
    labels = ["e"] + [f"a{i + 1}" for i in range(width)] + ["t"]
    n = len(labels)
    top = n - 1
    order = np.eye(n, dtype=bool)
    order[0, :] = True
    order[:, top] = True
    mult = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == 0:
                mult[i, j] = j
            elif j == 0:
                mult[i, j] = i
            elif i == j:
                mult[i, j] = i
            else:
                mult[i, j] = top
    return MonoidalQO(FiniteQO(labels, order), mult, 0)


def squaring_to_unit() -> MonoidalQO:
    'Two points with a*a = e; the square falls below its factor.'
    order = np.array([[True, True], [False, True]])
    mult = np.array([[0, 1], [1, 0]], dtype=np.int64)
    return MonoidalQO(FiniteQO(["e", "a"], order), mult, 0)


def idem_pair() -> MonoidalQO:
    'Unit below one idempotent point.'
    order = np.array([[True, True], [False, True]])
    mult = np.array([[0, 1], [1, 1]], dtype=np.int64)
    return MonoidalQO(FiniteQO(["e", "a"], order), mult, 0)


def _classical(n: int) -> AtomAlphabet:
    labels = [chr(ord("a") + i) for i in range(n)]
    return AtomAlphabet(FiniteQO(labels, np.eye(n, dtype=bool)), frozenset())


def _idem_singleton() -> AtomAlphabet:
    return AtomAlphabet(FiniteQO(["a"], np.eye(1, dtype=bool)), frozenset({0}))


def shipped_fixtures() -> tuple[MonoidFixture, ...]:
    return (
        MonoidFixture("capped-addition-4", capped_addition(4), True, True),
        MonoidFixture("flat-1", flat(1), True, True),
        MonoidFixture("flat-2", flat(2), True, True),
        # a3 sits below a1*a2 = t but splits only into e, a1, a2, t
        MonoidFixture("flat-3", flat(3), True, False),
        # a*a = e breaks weak increase
        MonoidFixture("squaring-to-unit", squaring_to_unit(), False, True),
        MonoidFixture("idem-pair", idem_pair(), True, True),
        MonoidFixture(
            "words-singleton-4", bounded_word_monoid(_classical(1), 4), True, True
        ),
        # members below the overflow point need not split
        MonoidFixture("words-pair-3", bounded_word_monoid(_classical(2), 3), True, False),
        MonoidFixture(
            "words-idem-singleton-3",
            bounded_word_monoid(_idem_singleton(), 3, reduce=True),
            True,
            True,
        ),
    )
