import gc
import itertools
import weakref

import numpy as np
import pytest

from idealforge import hierarchy
from idealforge.errors import (
    CombinatorialBlowupError,
    EmptyCarrierError,
    LevelCapExceededError,
)
from idealforge.fixtures import capped_addition, flat, idem_pair
from idealforge.hierarchy import (
    Atom,
    AtomSystem,
    build_atoms,
    build_level,
    compare_atoms,
    hset,
    hset_mult,
    lesssim_star,
    non_idem_atom,
    sim_star,
    ur_elem,
)
from idealforge.higman import HWord
from idealforge.qo import (
    FiniteQO,
    _bits,
    _directed_mask,
    all_quasi_orders,
    equiv_classes,
    validate,
)
from idealforge.reflect import build_reflection


def test_interning_gives_identity():
    assert ur_elem(3) is ur_elem(3)
    a, b = ur_elem(0), ur_elem(1)
    assert hset([a, b]) is hset([b, a, b])
    nested = hset([hset([a]), b])
    assert nested is hset([b, hset([a])])
    assert a.rank == -1
    assert hset([a, b]).rank == 0
    assert nested.rank == 1
    assert nested.serial == "{u1,{u0}}"


def test_construction_guards():
    with pytest.raises(ValueError):
        hset([])
    with pytest.raises(ValueError):
        ur_elem(-1)
    # a non-integral index is no carrier index, and is not truncated to one;
    # a bool is refused as _checked_indices refuses it
    for bad in (1.7, True):
        with pytest.raises(TypeError):
            ur_elem(bad)


def test_lesssim_frozen_cases(a2):
    u0, u1 = ur_elem(0), ur_elem(1)
    pair = hset([u0, u1])
    assert not lesssim_star(u0, u1, a2)
    assert lesssim_star(u0, pair, a2)
    # a set sits below a point only when every member does
    assert not lesssim_star(pair, u0, a2)
    # {{a,b}} and {{a},{b}} are inequivalent: the doubleton member has no
    # single-member bound on the right
    left = hset([pair])
    right = hset([hset([u0]), hset([u1])])
    assert lesssim_star(right, left, a2)
    assert not lesssim_star(left, right, a2)
    assert not sim_star(left, right, a2)


def test_lesssim_is_a_quasi_order(a2, chain2):
    for q in (a2, chain2):
        urs = [ur_elem(i) for i in range(q.n)]
        pool = list(urs)
        for r in range(1, len(urs) + 1):
            pool.extend(hset(c) for c in itertools.combinations(urs, r))
        pool.append(hset([hset([u]) for u in urs]))
        pool.append(hset([pool[-1], urs[0]]))
        for x in pool:
            assert lesssim_star(x, x, q)
        for x, y, z in itertools.product(pool, repeat=3):
            if lesssim_star(x, y, q) and lesssim_star(y, z, q):
                assert lesssim_star(x, z, q)
        # comparisons reduce to containment of induced lower cones
        for x, y in itertools.product(pool, repeat=2):
            cone_x = [z for z in pool if lesssim_star(z, x, q)]
            if lesssim_star(x, y, q):
                assert all(lesssim_star(z, y, q) for z in cone_x)


def test_hset_mult_laws_exhaustive():
    # every stage member of the small fixtures, all triples and pairs
    for m in (capped_addition(3), flat(2), idem_pair()):
        lev = build_level(m.order, 2, "vstar")
        members = lev.members
        q = m.order
        for x, y in itertools.product(members, repeat=2):
            xy = hset_mult(x, y, m)
            assert lesssim_star(x, xy, q)
            assert lesssim_star(y, xy, q)
        for x, y, z in itertools.product(members, repeat=3):
            lhs = hset_mult(hset_mult(x, y, m), z, m)
            rhs = hset_mult(x, hset_mult(y, z, m), m)
            assert sim_star(lhs, rhs, q)
        for x, xs, y, ys in itertools.product(members, repeat=4):
            if lesssim_star(x, xs, q) and lesssim_star(y, ys, q):
                assert lesssim_star(
                    hset_mult(x, y, m), hset_mult(xs, ys, m), q
                )


def _plain_hset_mult(x, y, m):
    'The lifted product as its four cases, with no memo.'
    if x.ur is not None and y.ur is not None:
        return ur_elem(m.mul(x.ur, y.ur))
    if x.ur is not None:
        return hset(_plain_hset_mult(x, c, m) for c in y.children)
    if y.ur is not None:
        return hset(_plain_hset_mult(c, y, m) for c in x.children)
    return hset(_plain_hset_mult(a, b, m) for a in x.children for b in y.children)


def test_hset_mult_matches_four_case_reference():
    # the member pairs of test_hset_mult_laws_exhaustive
    pairs = 0
    for m in (capped_addition(3), flat(2), idem_pair()):
        members = build_level(m.order, 2, "vstar").members
        for x, y in itertools.product(members, repeat=2):
            assert hset_mult(x, y, m) is _plain_hset_mult(x, y, m), (x.serial, y.serial)
            pairs += 1
    assert pairs == 16 + 36 + 4


def test_unit_is_neutral_up_to_equivalence():
    m = flat(2)
    e = ur_elem(m.unit)
    lev = build_level(m.order, 2, "vstar")
    for x in lev.members:
        assert sim_star(hset_mult(x, e, m), x, m.order)
        assert sim_star(hset_mult(e, x, m), x, m.order)


def is_hereditarily_directed(x, q, memo):
    'Urelement, or a directed set of hereditarily directed members.'
    hit = memo.get(x)
    if hit is not None:
        return hit
    if x.ur is not None:
        out = True
    else:
        kids = x.children
        out = all(is_hereditarily_directed(c, q, memo) for c in kids) and all(
            any(lesssim_star(a, c, q) and lesssim_star(b, c, q) for c in kids)
            for a in kids
            for b in kids
        )
    memo[x] = out
    return out


def test_directed_members_stay_directed_under_mult():
    # The stage-1 directed sets before the quotient: a finite directed set
    # is equivalent to its top, so built levels hold only urelements and
    # would never reach the set case of is_hereditarily_directed.
    products = 0
    for m in (capped_addition(3), flat(2), idem_pair()):
        urs = tuple(ur_elem(cls[0]) for cls in equiv_classes(m.order))
        down = [
            sum(1 << i for i, x in enumerate(urs) if lesssim_star(x, y, m.order)) for y in urs
        ]
        masks = hierarchy._adjoined_masks(down, "istar", hierarchy.DEFAULT_MAX_MEMBERS)
        members = urs + tuple(hset(urs[i] for i in _bits(mask)) for mask in masks)
        directed = {}
        for x, y in itertools.product(members, repeat=2):
            xy = hset_mult(x, y, m)
            assert is_hereditarily_directed(xy, m.order, directed)
            products += xy.children is not None
    assert products == 639
    # {a1, a2} over flat(2): the two middle points have no upper bound inside
    assert not is_hereditarily_directed(hset([ur_elem(1), ur_elem(2)]), flat(2).order, {})


def test_frozen_cardinalities(a2, singleton, chain3):
    v = build_level(a2, 3, "vstar")
    assert [s.cardinality for s in v.chain()] == [2, 3, 4, 5]
    assert [m.serial for m in v.previous.members] == [
        "u0",
        "u1",
        "{u0,u1,{u0,u1}}",
        "{u0,u1}",
    ]
    for kind in ("istar", "ihat"):
        lev = build_level(a2, 3, kind)
        assert lev.kind == kind
        assert [s.cardinality for s in lev.chain()] == [2, 2, 2, 2]
    # every directed set over a finite carrier has a top, so the directed
    # stages never outgrow the carrier classes
    assert all(
        s.cardinality == 1 for s in build_level(singleton, 3, "istar").chain()
    )
    # over a chain every nonempty subset is directed
    iv = build_level(chain3, 2, "istar")
    vv = build_level(chain3, 2, "vstar")
    for si, sv in zip(iv.chain(), vv.chain()):
        assert si.members == sv.members


def test_flat_fixture_vstar_growth():
    assert [s.cardinality for s in build_level(flat(2).order, 2, "vstar").chain()] == [4, 5, 6]


def test_istar_members_have_principal_twins(a2, singleton, chain2, chain3, antichain3, two_cycle):
    for q in (singleton, chain2, a2, chain3, antichain3, two_cycle):
        istar = build_level(q, 2, "istar")
        ihat = build_level(q, 2, "ihat")
        for x in istar.members:
            assert any(sim_star(x, y, q) for y in ihat.members)


def test_level_guards(a2, antichain3):
    with pytest.raises(LevelCapExceededError):
        build_level(a2, 4)
    with pytest.raises(EmptyCarrierError):
        build_level(FiniteQO((), np.zeros((0, 0), dtype=bool)), 1)
    with pytest.raises(ValueError):
        build_level(a2, 1, kind="all")
    with pytest.raises(CombinatorialBlowupError):
        build_level(antichain3, 3, "vstar", max_members=40)


def test_vstar_member_bound_is_exact(a2):
    # stage 2 over a2's three stage-1 members has 3 + 2^3 - 1 = 10 candidates
    lev = build_level(a2, 2, "vstar", max_members=10)
    assert [s.cardinality for s in lev.chain()] == [2, 3, 4]
    for bound in (9, 7, 6):
        with pytest.raises(
            CombinatorialBlowupError, match=f"stage 2 exceeds {bound} candidate members"
        ):
            build_level(a2, 2, "vstar", max_members=bound)


def test_doomed_vstar_stage_interns_almost_nothing():
    # stage 1 over four incomparable points adjoins their 15 subsets; stage 2
    # would need 19 + 2^19 - 1 candidates, and raises before building a set
    antichain4 = FiniteQO(tuple("abcd"), np.eye(4, dtype=bool))
    before = len(hierarchy._SET_POOL)
    with pytest.raises(CombinatorialBlowupError, match="stage 2 exceeds"):
        build_level(antichain4, 2, "vstar")
    assert len(hierarchy._SET_POOL) - before <= 15


def test_stages_intern_only_their_representatives(monkeypatch):
    # hierarchy-sweep's levels: every quasi-order on at most 4 points at
    # level 2 in all three kinds.  Of 7,327 candidates, 1,538 win a class,
    # and the returned levels hold 101 distinct sets; the one more interned
    # is a stage-1 representative of the capped level (the 4-point
    # antichain's vstar, refused at stage 2)
    monkeypatch.setattr(hierarchy, "_SET_POOL", {})
    members = capped = 0
    for n in range(1, 5):
        for q in all_quasi_orders(n):
            for kind in ("vstar", "istar", "ihat"):
                try:
                    level = build_level(q, 2, kind)
                except CombinatorialBlowupError:
                    capped += 1
                    continue
                members += sum(stage.cardinality for stage in level.chain())
    assert (members, capped) == (1_519, 1)
    assert len(hierarchy._SET_POOL) == 102


@pytest.mark.parametrize("kind", ["vstar", "istar", "ihat"])
def test_doomed_stage_interns_no_set(kind, monkeypatch):
    # stage 1 over a 12-point chain has 12 + 12 ihat, 12 + 4,095 istar and
    # vstar candidates; each count is refused before any set is interned
    labels = [f"c{i}" for i in range(12)]
    chain12 = validate(labels, list(zip(labels, labels[1:])), close=True)
    monkeypatch.setattr(hierarchy, "_SET_POOL", {})
    with pytest.raises(CombinatorialBlowupError, match="stage 1 exceeds 20 candidate members"):
        build_level(chain12, 1, kind, max_members=20)
    assert hierarchy._SET_POOL == {}


def test_istar_lists_directed_sets_per_top(monkeypatch):
    # a 20-point antichain adjoins its 20 singletons and nothing else
    antichain20 = FiniteQO([f"p{i}" for i in range(20)], np.eye(20, dtype=bool))
    level = build_level(antichain20, 1, "istar", max_members=40)
    assert [s.cardinality for s in level.chain()] == [20, 20]
    # over a 12-point chain every one of the 4,095 nonempty sets has a top
    chain = list(range(12))
    down = [sum(1 << i for i in chain[: j + 1]) for j in chain]
    assert len(hierarchy._adjoined_masks(down, "istar", 10**6)) == 4_095
    # the same members as the scan of all 2^k masks for directedness, on
    # every quasi-order on at most 4 points at level 2
    levels = [build_level(q, 2, "istar") for n in range(1, 5) for q in all_quasi_orders(n)]

    def scanned(down, kind, room):
        directed = (m for m in range(1, 1 << len(down)) if _directed_mask(down, m))
        return list(itertools.islice(directed, room + 1))

    monkeypatch.setattr(hierarchy, "_adjoined_masks", scanned)
    wanted = [build_level(q, 2, "istar") for n in range(1, 5) for q in all_quasi_orders(n)]
    assert len(levels) == 46
    for got, want in zip(levels, wanted):
        assert [s.members for s in got.chain()] == [s.members for s in want.chain()]


def _scanned_stages(q, alpha, kind):
    """build_level's stages by the quadratic scan it replaced: the adjoined
    sets chosen by lesssim_star, and each candidate, in serial order, kept
    unless sim_star ties it to one kept before it."""
    members = [ur_elem(cls[0]) for cls in equiv_classes(q)]
    stages = []
    for stage in range(alpha + 1):
        candidates = list(members)
        if stage:
            below = [[lesssim_star(x, y, q) for y in members] for x in members]
            if kind == "ihat":
                candidates += [
                    hset(x for i, x in enumerate(members) if below[i][j])
                    for j in range(len(members))
                ]
            else:
                for mask in range(1, 1 << len(members)):
                    chosen = _bits(mask)
                    if kind == "vstar" or all(
                        any(below[i][k] and below[j][k] for k in chosen)
                        for i in chosen
                        for j in chosen
                    ):
                        candidates.append(hset(members[i] for i in chosen))
        ordered = sorted(set(candidates), key=lambda h: h.serial)
        members = []
        for x in ordered:
            if not any(sim_star(x, y, q) for y in members):
                members.append(x)
        stages.append(tuple(members))
    return stages


def test_stage_classes_match_the_quadratic_scan():
    # every quasi-order on at most 4 points at levels 0 to 2 and on at most
    # 3 points at level 3, in all three kinds
    cases = [(n, alpha) for n in range(1, 5) for alpha in range(3)]
    cases += [(n, 3) for n in range(1, 4)]
    compared = 0
    for n, alpha in cases:
        for q in all_quasi_orders(n):
            for kind in ("vstar", "istar", "ihat"):
                try:
                    level = build_level(q, alpha, kind)
                except CombinatorialBlowupError:
                    continue
                stages = [s.members for s in level.chain()]
                assert stages == _scanned_stages(q, alpha, kind), (q.leq.tolist(), alpha, kind)
                compared += 1
    assert compared == 451


@pytest.mark.parametrize(
    "verdict, caught_by",
    [
        # every set below every urelement: the order audit sees it, at the
        # first representative's column and its lowest failing row
        (True, "down-closures put {u0,u1} not below u0, lesssim_star disagrees"),
        # no set below any urelement: the merged {a} is no longer tied to a
        (False, "{u0} and u0 share a down-closure but sim_star separates them"),
    ],
    # each id names the verdict and the audit that catches it
    ids=["True-lesssim_star disagrees", "False-sim_star separates"],
)
def test_corrupted_set_rule_is_caught(monkeypatch, verdict, caught_by):
    honest = hierarchy._tied_tables

    def corrupted(candidates, prev, firsts, q):
        # the set x urelement cells of both tables; a set never built comes
        # as a list of indices
        up, back = honest(candidates, prev, firsts, q)
        sets = [isinstance(c, list) or c.ur is None for c in candidates]
        rep_sets = [sets[i] for i in firsts]
        up[np.ix_(sets, [not s for s in rep_sets])] = verdict
        back[np.ix_(rep_sets, [not s for s in sets])] = verdict
        return up, back

    monkeypatch.setattr(hierarchy, "_tied_tables", corrupted)
    with pytest.raises(ValueError) as caught:
        build_level(validate(["a", "b"], [], close=True), 1, "vstar")
    assert str(caught.value) == caught_by


def test_stage_zero_is_built_once_per_carrier(monkeypatch, two_cycle):
    # stage 0 depends only on the carrier: the three kinds at level 1 make
    # one stage-0 pass and three stage-1 passes, and share its members
    calls = []
    honest = hierarchy._stage_classes

    def counted(*args):
        calls.append(len(args[1]))
        return honest(*args)

    monkeypatch.setattr(hierarchy, "_stage_classes", counted)
    levels = [build_level(two_cycle, 1, kind) for kind in ("vstar", "istar", "ihat")]
    assert calls == [0, 3, 3, 2]
    assert [level.kind for level in levels] == ["vstar", "istar", "ihat"]
    assert {level.previous.members for level in levels} == {(ur_elem(0), ur_elem(2))}
    assert {level.previous.kind for level in levels} == {"vstar", "istar", "ihat"}
    # the member bound still covers the held stage 0
    with pytest.raises(CombinatorialBlowupError, match="stage 0 exceeds 1 "):
        build_level(two_cycle, 0, "ihat", max_members=1)
    assert len(calls) == 4


def test_atom_interning_and_validation(a2, chain2):
    p = non_idem_atom(a2, 0)
    assert p is non_idem_atom(a2, 0)
    assert p.level == 0 and not p.is_idem
    # idempotent letters are private to build_atoms, which closes payloads
    assert not hasattr(hierarchy, "idem_atom")
    star = hierarchy._idem_atom(a2, [p])
    assert star is hierarchy._idem_atom(a2, [p])
    assert star.level == 1 and star.is_idem
    with pytest.raises(ValueError):
        hierarchy._idem_atom(a2, [])
    with pytest.raises(ValueError):
        hierarchy._idem_atom(chain2, [p])
    with pytest.raises(ValueError):
        compare_atoms(p, non_idem_atom(chain2, 0))


def test_plain_letter_is_keyed_by_its_class(a2, two_cycle):
    # a non-integral or out-of-range index names no carrier class
    with pytest.raises(TypeError):
        non_idem_atom(a2, 0.9)
    with pytest.raises(ValueError):
        non_idem_atom(a2, -1)
    with pytest.raises(ValueError):
        non_idem_atom(a2, 2)
    # a and b form one class: either member names the class's one letter,
    # the one build_atoms puts in the alphabet
    a = non_idem_atom(two_cycle, 0)
    assert non_idem_atom(two_cycle, 1) is a
    assert a.base_class == 0 and a.serial == "a"
    plain = [x for x in build_atoms(two_cycle, 1).atoms if not x.is_idem]
    assert plain == [a, non_idem_atom(two_cycle, 2)]


def _live_atoms():
    return sum(isinstance(o, Atom) for o in gc.get_objects())


def test_letters_are_freed_with_their_carrier(a2):
    # the letter pool lives on the carrier, so no module table keeps letters
    # (or their carriers and memos) alive once the carrier is dropped
    gc.collect()
    before = _live_atoms()
    for _ in range(300):
        system = build_atoms(FiniteQO(a2.elements, a2.leq), 2)
    assert len(system.atoms) == 11
    assert _live_atoms() >= before + 11
    del system
    gc.collect()
    assert _live_atoms() == before


def test_held_stage_is_freed_with_its_carrier(a2):
    # stage 0 is held on the carrier itself, so no module table keeps it,
    # or the carrier, alive once the carrier is dropped
    class Carrier(FiniteQO):
        __slots__ = ("__weakref__",)

    carriers = [Carrier(a2.elements, a2.leq) for _ in range(3)]
    for carrier in carriers:
        for kind in ("vstar", "istar", "ihat"):
            build_level(carrier, 2, kind)
        assert carrier._stage0[0] == [ur_elem(0), ur_elem(1)]
    refs = [weakref.ref(carrier) for carrier in carriers]
    del carriers, carrier
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_atom_order_frozen(a2, singleton):
    sys1 = build_atoms(a2, 1)
    assert [a.serial for a in sys1.atoms] == ["a", "b", "*{a,b}", "*{a}", "*{b}"]
    assert sys1.level_counts == (2, 5)
    o = sys1.alphabet.order
    leq = lambda x, y: bool(o.leq[o.index(x), o.index(y)])
    assert leq("a", "*{a}")
    assert leq("*{a}", "*{a,b}")
    assert not leq("*{a,b}", "*{a}")
    assert not leq("*{a}", "a")
    assert not leq("a", "*{b}")
    assert sorted(sys1.alphabet.idem) == [2, 3, 4]

    ssys = build_atoms(singleton, 1)
    assert [a.serial for a in ssys.atoms] == ["a", "*{a}"]
    assert ssys.alphabet.order.leq.tolist() == [[True, True], [False, True]]


def test_letter_order_matches_the_recursion_without_a_memo(n_shape):
    # the order is a bit test on payload masks: every pair agrees with the
    # bare recursion, and no letter keeps a table of verdicts
    system = build_atoms(n_shape, 2)
    assert len(system.atoms) == 44
    pairs = list(itertools.product(system.atoms, repeat=2))
    assert len(pairs) == 1936
    for x, y in pairs:
        assert compare_atoms(x, y) == _plain_letter_leq(x, y), (x, y)
    for a in system.atoms:
        assert not hasattr(a, "__dict__")
        assert not any(isinstance(getattr(a, slot), dict) for slot in Atom.__slots__)
        if a.is_idem:
            assert list(a.downset) == sorted(a.downset, key=lambda d: d.serial)


def test_atom_counts_grow_as_downsets(a2, antichain3):
    assert build_atoms(a2, 2).level_counts == (2, 5, 11)
    assert build_atoms(antichain3, 1).level_counts == (3, 10)
    assert build_atoms(antichain3, 2, max_members=100_000).level_counts == (3, 10, 43)


def test_atom_order_is_antisymmetric(a2):
    atoms = build_atoms(a2, 2).atoms
    for x, y in itertools.product(atoms, repeat=2):
        if compare_atoms(x, y) and compare_atoms(y, x):
            assert x is y


def test_plain_atoms_track_principal_classes(a2, chain2, chain3, antichain3, two_cycle):
    # one plain letter per carrier class, which is exactly the directed
    # downward-closed picture at any level
    for q in (a2, chain2, chain3, antichain3, two_cycle):
        for alpha in (1, 2):
            system = build_atoms(q, alpha, max_members=100_000)
            plain = [a for a in system.atoms if not a.is_idem]
            assert len(plain) == len(equiv_classes(q))
            assert len(plain) == build_level(q, alpha, "ihat").cardinality


def test_atom_system_helpers(a2):
    system = build_atoms(a2, 1)
    w = HWord(system.alphabet, [0, 2])
    assert w.labels == ("a", "*{a,b}")
    # an index that is not an int is refused, not truncated
    for bad in ([1.7], ["2"], [1.7, "2"]):
        with pytest.raises(TypeError):
            HWord(system.alphabet, bad)


def test_atom_guards(a2):
    with pytest.raises(LevelCapExceededError):
        build_atoms(a2, 4)
    with pytest.raises(EmptyCarrierError):
        build_atoms(FiniteQO((), np.zeros((0, 0), dtype=bool)), 1)
    with pytest.raises(CombinatorialBlowupError):
        build_atoms(a2, 2, max_members=8)


def test_negative_level_is_rejected(a2):
    with pytest.raises(ValueError):
        build_level(a2, -1)
    with pytest.raises(ValueError):
        build_atoms(a2, -1)


def _plain_letter_leq(x, y, memo=None):
    """The letter rule as a bare recursion.  memo, when given, is a dict of
    verdicts owned by the caller, never the package's own rule or memo."""
    if memo is not None and (x, y) in memo:
        return memo[x, y]
    if not x.is_idem:
        if not y.is_idem:
            out = bool(x.base.leq[x.base_class, y.base_class])
        else:
            out = any(_plain_letter_leq(x, e, memo) for e in y.downset)
    elif not y.is_idem:
        out = False
    else:
        out = all(any(_plain_letter_leq(d, e, memo) for e in y.downset) for d in x.downset)
    if memo is not None:
        memo[x, y] = out
    return out


def _plain_hereditary_leq(x, y, q):
    'The hereditary rule as a bare recursion with no memo.'
    if x.ur is not None:
        if y.ur is not None:
            return bool(q.leq[x.ur, y.ur])
        return any(_plain_hereditary_leq(x, c, q) for c in y.children)
    if y.ur is not None:
        return all(_plain_hereditary_leq(c, y, q) for c in x.children)
    return all(
        any(_plain_hereditary_leq(a, b, q) for b in y.children) for a in x.children
    )


def test_letter_order_matches_bare_recursion():
    # every quasi-order on at most 4 points at level 2
    letter_pairs = 0
    for n in range(1, 5):
        for q in all_quasi_orders(n):
            system = build_atoms(q, 2)
            leq = system.alphabet.order.leq
            memo = {}
            for (i, x), (j, y) in itertools.product(enumerate(system.atoms), repeat=2):
                assert leq[i, j] == _plain_letter_leq(x, y, memo), (q.leq.tolist(), x, y)
            letter_pairs += len(system.atoms) ** 2
    # 129,823 of them over the 33 quasi-orders on 4 points
    assert letter_pairs == 133_421


def test_hereditary_tables_match_bare_recursion():
    # every quasi-order on at most 3 points at levels 0 to 2 and on at most
    # 2 points at level 3: the reflection images over the extended carrier,
    # and the members of each kind of stage that fits
    cases = [(n, alpha) for n in range(1, 4) for alpha in range(3)]
    cases += [(n, 3) for n in range(1, 3)]
    pairs = 0
    for n, alpha in cases:
        for q in all_quasi_orders(n):
            table = build_reflection(q, alpha)
            families = [(list(table.entries.values()), table.star_qo)]
            for kind in ("vstar", "istar", "ihat"):
                try:
                    families.append((list(build_level(q, alpha, kind).members), q))
                except CombinatorialBlowupError:
                    pass
            for family, carrier in families:
                below = hierarchy._leq_table(family, carrier)
                for (i, x), (j, y) in itertools.product(enumerate(family), repeat=2):
                    want = _plain_hereditary_leq(x, y, carrier)
                    assert below[i, j] == lesssim_star(x, y, carrier) == want, (
                        q.leq.tolist(), alpha, x, y,
                    )
                # the audit's two rectangular blocks are the square table's
                # columns and rows, whether a set whose members lie in the
                # family comes as an HSet or as their indices
                at = {x: i for i, x in enumerate(family)}
                rows = [
                    [at[c] for c in x.children]
                    if x.ur is None and all(c in at for c in x.children)
                    else x
                    for x in family
                ]
                odd = list(range(1, len(family), 2))
                for candidates in (family, rows):
                    up, back = hierarchy._tied_tables(candidates, tuple(family), odd, carrier)
                    assert (up == below[:, odd]).all() and (back == below[odd]).all()
                pairs += len(family) ** 2
    assert pairs == 6_203
