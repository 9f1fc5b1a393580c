"""A translation of symbolic prime letters into hereditary sets over the
carrier extended by one fresh point.

Plain letters map to their carrier urelement.  Idempotent letters map to the
set of their payload's images together with the fresh point's urelement, so
star-ness is visible in the image as membership of the fresh point.  The
translation is expected to preserve and reflect the letter order; the package
re-proves that per run with verify_reflection rather than assuming it.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import hierarchy
from .hierarchy import (
    Atom,
    AtomSystem,
    HSet,
    build_atoms,
    hset,
    ur_elem,
)
from .qo import FiniteQO, _bits, disjoint_union_with_star
from .report import CheckResult, Report


@dataclass(eq=False)
class ReflectionTable:
    """Images of every atom of a system, over the extended carrier star_qo,
    whose fresh point is its last index (disjoint_union_with_star)."""

    system: AtomSystem
    star_qo: FiniteQO
    entries: dict[Atom, HSet]


def build_reflection(p: FiniteQO, alpha: int) -> ReflectionTable:
    'Build the atom system at the given level and translate every atom.'
    system = build_atoms(p, alpha)
    star_qo = disjoint_union_with_star(p)
    star = star_qo.n - 1
    entries: dict[Atom, HSet] = {}
    # atoms run by level, and a payload lies a level below its letter
    for a in system.atoms:
        if a.is_idem:
            entries[a] = hset([*(entries[d] for d in a.downset), ur_elem(star)])
        else:
            entries[a] = ur_elem(a.base_class)
    return ReflectionTable(system, star_qo, entries)


def verify_reflection(table: ReflectionTable) -> Report:
    """Check the translation against the letter order, both directions.

    The letter side is one _letter_table, which consults the live comparison
    rule rather than the alphabet frozen at the build, so a rule swapped in
    after the build is still what gets verified here.  The set side is one
    _leq_table over the images.  The bounds check reads each distinct set's
    urelements once, as an int mask ORed over its members, through a dict
    that lives for the call: a payload image is shared by every letter
    above it.
    """
    atoms = table.system.atoms
    images = [table.entries[a] for a in atoms]
    sq = table.star_qo
    star_ur = ur_elem(sq.n - 1)
    ur_masks: dict[HSet, int] = {}

    def ur_mask(x: HSet) -> int:
        if x not in ur_masks:
            mask = 1 << x.ur if x.ur is not None else 0
            for c in x.children or ():
                mask |= ur_mask(c)
            ur_masks[x] = mask
        return ur_masks[x]

    # A level-l letter should land exactly at rank l - 1, hence below alpha,
    # and mention no urelement outside the extended carrier.
    rank_bad = None
    for a, fa in zip(atoms, images):
        if fa.rank != a.level - 1 or fa.rank >= table.system.alpha:
            rank_bad = {"atom": a.serial, "rank": fa.rank}
            break
        if ur_mask(fa) >> sq.n:
            rank_bad = {"atom": a.serial, "urelements": _bits(ur_mask(fa))}
            break

    def first_pair(cells) -> dict | None:
        'The first pair, row by row, where the bool table cells holds.'
        rows, cols = cells.nonzero()
        return {"x": atoms[rows[0]].serial, "y": atoms[cols[0]].serial} if len(rows) else None

    # images out of bounds are not ordered, so the order checks fail with them
    preserve_bad = reflect_bad = rank_bad
    if rank_bad is None:
        below = hierarchy._leq_table(images, sq)
        letters = hierarchy._letter_table(atoms)
        preserve_bad = first_pair(letters & ~below)
        reflect_bad = first_pair(below & ~letters)

    star_bad = None
    for a, fa in zip(atoms, images):
        if a.is_idem != (star_ur in fa.payload):
            star_bad = {"atom": a.serial, "image": fa.serial}
            break

    return Report(
        "reflection",
        (
            CheckResult(
                "order-preserving",
                preserve_bad is None,
                preserve_bad,
                {"atoms": len(atoms), "pairs": 0 if rank_bad else len(atoms) ** 2},
            ),
            CheckResult("order-reflecting", reflect_bad is None, reflect_bad),
            CheckResult("star-membership", star_bad is None, star_bad),
            CheckResult("image-bounds", rank_bad is None, rank_bad),
        ),
    )
