"""Finite quasi-orders, their ideal spaces, and the word orders they induce.

The package is organized bottom-up: qo and downsets carry the order theory,
monoid adds a compatible multiplication, higman decides the induced word
order, hierarchy iterates the ideal construction and names its primes,
reflect translates those primes back into hereditary sets, and oracle
recomputes everything from raw sequences as an independent cross-check.
"""

__version__ = "0.1.0"

from .downsets import (
    Downset,
    Ideal,
    downset_product,
    enumerate_downsets,
    enumerate_ideals,
    ideal_decomposition,
    principal,
    product_decomposition,
)
from .errors import IdealforgeError
from .hierarchy import (
    Atom,
    AtomSystem,
    HierLevel,
    HSet,
    build_atoms,
    build_level,
    compare_atoms,
    hset,
    hset_mult,
    lesssim_star,
    sim_star,
    ur_elem,
)
from .higman import (
    AtomAlphabet,
    HWord,
    bounded_word_monoid,
    canonical_word,
    concat,
    equiv_H,
    leq_H,
    leq_H_bruteforce,
    word_is_idempotent,
)
from .monoid import (
    MonoidalQO,
    check_axioms,
    check_plus_property,
    ideal_monoid,
    monoid_from_json,
    prime_factorization,
    primes,
)
from .oracle import (
    DenotationContext,
    check_containment_agreement,
    check_two_forms,
    check_xy_wz,
)
from .qo import FiniteQO, from_json, quotient, to_json, validate
from .reflect import ReflectionTable, build_reflection, verify_reflection
from .report import CheckResult, Report

__all__ = [name for name in dir() if not name.startswith("_")]
