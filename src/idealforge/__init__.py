"""Finite quasi-orders, their ideal spaces, and the word orders they induce.

The package is organized bottom-up: qo and downsets carry the order theory,
monoid adds a compatible multiplication, higman decides the induced word
order, hierarchy iterates the ideal construction and names its primes,
reflect translates those primes back into hereditary sets, and oracle
recomputes everything from raw sequences as an independent cross-check.
Each name is imported from the module that defines it.
"""

__version__ = "0.1.0"
