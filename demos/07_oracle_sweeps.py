"""The brute-force side: sequence universes, denotations, theorem sweeps.

Everything the symbolic machinery claims gets recomputed here from raw
sequences: the word order against set containment, the two possible shapes
of a prime ideal, and the splitting of product containments.
"""
import numpy as np

from idealforge.hierarchy import build_atoms
from idealforge.oracle import (
    DenotationContext,
    check_containment_agreement,
    check_two_forms,
    check_xy_wz,
)
from idealforge.qo import FiniteQO

a2 = FiniteQO(["a", "b"], np.eye(2, dtype=bool))

system = build_atoms(a2, 1)
star_a = system.atoms[3]
ctx = DenotationContext(a2, 4)
(star_a_row,) = ctx.letter_rows([star_a])
print("aaaa inside *{a}:", bool(star_a_row[ctx.seqs.index((0, 0, 0, 0))]))

r = check_two_forms(a2)
shapes = r.check("prime-ideal-shapes").stats
print("two-forms:", "pass" if r.passed else "FAIL",
      f"(census {shapes['prime_classes']}, {shapes['star_forms']} star + {shapes['down_forms']} down)")

r = check_containment_agreement(a2, alpha=1, maxlen=4)
s = r.check("order-implies-containment").stats
print("containment agreement:", "pass" if r.passed else "FAIL",
      f"({s['confirmed']} confirmed, {s['refuted']} refuted, {s['unresolved']} unresolved)")

r = check_xy_wz(a2)
s = r.check("factor-containment-forced").stats
print("product splitting:", "pass" if r.passed else "FAIL",
      f"({s['containments']} containments over {s['quadruples']} quadruples)")
