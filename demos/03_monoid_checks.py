"""Multiplicative carriers: axiom checking, splitting, primes, prime-product
matching, ideal monoid.

The shipped fixtures carry annotations saying which checks they should pass,
so this is also a tour of what each axiom rules out.
"""
from idealforge.fixtures import capped_addition, flat, shipped_fixtures, squaring_to_unit
from idealforge.higman import check_abstractly_higman
from idealforge.monoid import (
    check_axioms,
    check_plus_property,
    ideal_monoid,
    prime_factorization,
    primes,
)

for fx in shipped_fixtures():
    ax = check_axioms(fx.monoid)
    plus = check_plus_property(fx.monoid)
    print(f"{fx.name:24s} axioms={ax.passed!s:5s} splitting={plus.passed!s:5s}")
    assert ax.passed == fx.axioms_hold
    assert plus.passed == fx.plus_holds

print()
m = capped_addition(4)
print("primes of capped addition:", sorted(m.label(i) for i in primes(m)))
print("4 factors as", [m.label(i) for i in prime_factorization(m, m.order.index("4"))])

# the failing fixtures fail for a reason worth seeing
bad = check_axioms(squaring_to_unit())
for c in bad.checks:
    if not c.passed:
        print("squaring-to-unit fails", c.name, "at", c.counterexample)

sp = check_plus_property(flat(3))
print("flat(3) splitting counterexample:", sp.checks[0].counterexample)

# products of primes compare letterwise on the chain; on flat(2) the primes
# commute, so a1*a2 and a2*a1 are equal though no letterwise match exists
cases = (("capped addition (cap 4)", capped_addition(4), True), ("flat(2)", flat(2), False))
for name, mq, holds in cases:
    match = check_abstractly_higman(mq)
    print(f"{name} prime products compare letterwise: {match.passed}")
    assert match.passed == holds
    if not match.passed:
        print("  counterexample:", match.checks[0].counterexample)

# ideals of a monoidal qo form a monoid again, ordered by inclusion
im = ideal_monoid(capped_addition(3))
print("ideal monoid of capped addition (cap 3):", im.order.elements)
