"""Iterating the ideal construction and naming the primes it creates.

Three stage flavours: vstar collects all hereditarily finite downsets,
istar keeps the directed ones, ihat keeps one principal closure per member.
On top of the stages sits the symbolic atom alphabet: plain letters for the
carrier classes, star letters for the directed downsets of lower atoms.
"""
import numpy as np

from idealforge.hierarchy import (
    build_atoms,
    build_level,
    compare_atoms,
    hset,
    lesssim_star,
    ur_elem,
)
from idealforge.qo import FiniteQO, validate

a2 = FiniteQO(["a", "b"], np.eye(2, dtype=bool))

for kind in ("vstar", "istar", "ihat"):
    lv = build_level(a2, 3, kind=kind)
    print(kind, "cardinalities:", [s.cardinality for s in lv.chain()])

lv = build_level(a2, 2, kind="vstar")
print("vstar stage 2:", [x.serial for x in lv.members])

# hereditary sets compare by the forall-exists rule
x = hset([ur_elem(0), ur_elem(1)])
print("{u0,u1} ~< {u0}:", lesssim_star(x, hset([ur_elem(0)]), a2), " rank:", x.rank)

# the atom alphabet for A2 at level 1: two plain letters, three star letters
system = build_atoms(a2, 1)
print("atoms:", [a.serial for a in system.atoms])
print("a below *{a,b}:", compare_atoms(system.atoms[0], system.atoms[2]))
print("*{a} below *{a,b}:", compare_atoms(system.atoms[3], system.atoms[2]))
print("*{a,b} below *{a}:", compare_atoms(system.atoms[2], system.atoms[3]))

deeper = build_atoms(a2, 2)
print("level counts at alpha=2:", deeper.level_counts)
