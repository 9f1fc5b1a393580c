import pathlib

import numpy as np
import pytest

from idealforge.qo import FiniteQO, validate

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def singleton():
    return FiniteQO(["a"], np.eye(1, dtype=bool))


@pytest.fixture
def a2():
    return FiniteQO(["a", "b"], np.eye(2, dtype=bool))


@pytest.fixture
def chain2():
    return validate(["a", "b"], [("a", "b")], close=True)


@pytest.fixture
def chain3():
    return validate(["a", "b", "c"], [("a", "b"), ("b", "c")], close=True)


@pytest.fixture
def antichain3():
    return FiniteQO(["a", "b", "c"], np.eye(3, dtype=bool))


@pytest.fixture
def n_shape():
    return validate(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")], close=True)


@pytest.fixture
def two_cycle():
    # a and b compare both ways; c sits above the pair
    return validate(["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "c")], close=True)


@pytest.fixture
def order_cases():
    """Fresh carriers to compare mask routes with their loop references:
    every quasi-order on at most four points under the identity and the
    reversed labelling, then the letter order of build_atoms at levels 0 to
    2 over every quasi-order on at most three points."""
    from idealforge.hierarchy import build_atoms
    from idealforge.qo import all_quasi_orders

    cases = []
    for n in range(5):
        for q in all_quasi_orders(n):
            cases += [q, FiniteQO(q.elements, q.leq[::-1, ::-1])]
    for n in (1, 2, 3):
        for q in all_quasi_orders(n):
            cases += [build_atoms(q, alpha).alphabet.order for alpha in (0, 1, 2)]
    return cases
