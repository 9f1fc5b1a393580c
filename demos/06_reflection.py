"""Translating star letters back into hereditary sets, and checking it.

Every atom maps into the space of hereditary sets over the carrier plus one
fresh point: plain letters to urelements, star letters to the set of their
payload's images together with the fresh point.  The translation preserves
and reflects the atom order, and the report proves it pairwise.
"""
import numpy as np

from idealforge.qo import FiniteQO
from idealforge.reflect import build_reflection, verify_reflection

a2 = FiniteQO(["a", "b"], np.eye(2, dtype=bool))
table = build_reflection(a2, alpha=1)

print("fresh point index:", table.star_qo.n - 1, "of", table.star_qo.elements)
for atom in table.system.atoms:
    print(f"  {atom.serial:8s} -> {table.entries[atom]}")

report = verify_reflection(table)
for c in report.checks:
    print(f"{c.name:20s} {'ok' if c.passed else 'FAIL'}  {dict(c.stats)}")
assert report.passed

# deeper systems translate the same way, one rank per level
table2 = build_reflection(a2, alpha=2)
print("atoms at alpha=2:", len(table2.system.atoms))
print("all verified:", verify_reflection(table2).passed)
