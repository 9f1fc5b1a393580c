"""The benchmark's four workloads: their inputs, timed sections and traced
replays, at the standard and tiny scales.

Each workload has three parts.

* ``inputs(seed, params)`` builds everything the timed section needs and
  runs before the clock starts, so it counts toward ``setup_s``.  Only
  algebra-mix draws from the seed; the other workloads have fixed inputs.
* ``drive(inputs, t)`` is the timed section.  It calls the library's public
  entry points through ``t`` (see tracer.py) and returns the observed
  verdicts and counts, plus state for the replay.
* ``replay(inputs, state, t)`` runs in traced repetitions only, after the
  timed section.  Where the timed section calls a sweep that hides its
  primitives, the replay calls those primitives on the same inputs, on
  fresh carrier and alphabet objects so that no memo table is pre-warmed.

expected.py pins the observations.  A value that differs, an observation
not pinned, or an exception is a failed check.  The standard scale is what the
benchmark measures; the tiny scale exists for the self-test.

Left out on purpose: ``check_containment_agreement`` at alpha=2.  Its
``passed: true`` is known to be wrong (it clips its unresolved count at 10
and its second check cannot fail), and pinning it would enshrine the wrong
verdict.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from idealforge import downsets, hierarchy, higman, monoid, oracle, qo, reflect
from idealforge.errors import CombinatorialBlowupError
from idealforge.fixtures import capped_addition
from idealforge.higman import AtomAlphabet, HWord
from idealforge.qo import FiniteQO, validate

# --------------------------------------------------------------- embed-sweep


def _params_only(seed, params):
    return {"params": params}


def _embed_drive(inp, t):
    report = t.run("higman.dp_agreement_sweep", higman.dp_agreement_sweep, **inp["params"])
    stats = report.check("dp-matches-witness-search").stats
    return {"passed": report.passed, "systems": stats["systems"], "pairs": stats["pairs"]}, None


def _idempotent_systems(q):
    'Fresh alphabets over q, one per upward-closed idempotent set up to isomorphism.'
    seen = set()
    for idem in higman.upward_closed_subsets(q):
        key = qo._canonical_relation_key(q.leq, tuple(idem))
        if key not in seen:
            seen.add(key)
            yield AtomAlphabet(q, idem)


def _embed_replay(inp, state, t):
    """leq_H and its witness-search audit on every pair the sweep asks, with
    the same pair rule as dp_agreement_sweep, over fresh alphabets."""
    p = inp["params"]
    higman._weakly_increasing_maps.cache_clear()
    pairs = agreed = 0
    for n in range(1, p["max_atoms"] + 1):
        full = n <= p["full_atom_cap"]
        for q in t.call("qo.all_quasi_orders", qo.all_quasi_orders, n):
            for alphabet in _idempotent_systems(q):
                cap = max(p["max_pair_len"], p["full_len"] if full else 0)
                by_len: dict[int, list[HWord]] = {}
                for w in higman.all_words(alphabet, cap):
                    by_len.setdefault(len(w), []).append(w)
                for a, b in itertools.product(sorted(by_len), repeat=2):
                    if a + b > p["max_pair_len"] and not (
                        full and a <= p["full_len"] and b <= p["full_len"]
                    ):
                        continue
                    for u in by_len[a]:
                        for v in by_len[b]:
                            fast = t.call("higman.leq_H", higman.leq_H, u, v)
                            slow = t.call("higman.leq_H_bruteforce", higman.leq_H_bruteforce, u, v)
                            pairs += 1
                            agreed += fast == slow
    return {"replay_pairs": pairs, "replay_agree": agreed == pairs}


# ----------------------------------------------------------- hierarchy-sweep

_KINDS = ("vstar", "istar", "ihat")


def _hierarchy_drive(inp, t):
    """Every quasi-order on at most max_points points at level alpha.

    build_level runs in every kind; a kind whose stage passes the library's
    subset cap raises, and those raises are counted and pinned.  Carriers
    whose alphabet passes letter_cap (build_atoms' max_members) are counted
    the same way and skip the reflection.
    """
    p = inp["params"]
    alpha = p["alpha"]
    obs = {
        "carriers": 0, "level_members": 0, "capped_levels": 0,
        "capped_alphabets": 0, "atoms": 0, "pairs": 0, "reflections_pass": True,
    }
    done = []
    for n in range(1, p["max_points"] + 1):
        for q in t.run("qo.all_quasi_orders", qo.all_quasi_orders, n):
            obs["carriers"] += 1
            for kind in _KINDS:
                try:
                    level = t.run("hierarchy.build_level", hierarchy.build_level, q, alpha, kind)
                except CombinatorialBlowupError:
                    obs["capped_levels"] += 1
                    continue
                members = sum(stage.cardinality for stage in level.chain())
                obs["level_members"] += members
                t.count("hierarchy.build_level.members", members)
            try:
                system = t.run(
                    "hierarchy.build_atoms", hierarchy.build_atoms, q, alpha,
                    max_members=p["letter_cap"],
                )
            except CombinatorialBlowupError:
                obs["capped_alphabets"] += 1
                continue
            obs["atoms"] += len(system.atoms)
            t.count("hierarchy.build_atoms.atoms", len(system.atoms))
            table = t.run("reflect.build_reflection", reflect.build_reflection, q, alpha)
            report = t.run("reflect.verify_reflection", reflect.verify_reflection, table)
            pairs = report.check("order-preserving").stats["pairs"]
            obs["reflections_pass"] = obs["reflections_pass"] and report.passed
            obs["pairs"] += pairs
            t.count("reflect.verify_reflection.pairs", pairs)
            done.append(table)
    return obs, done


def _hierarchy_replay(inp, done, t):
    """The letter order by compare_atoms and the image order by lesssim_star,
    on every pair verify_reflection compares, over fresh extended carriers."""
    pairs = agreed = 0
    for table in done:
        fresh = FiniteQO(table.star_qo.elements, table.star_qo.leq)
        atoms = table.system.atoms
        for x in atoms:
            fx = table.entries[x]
            for y in atoms:
                src = t.call("hierarchy.compare_atoms", hierarchy.compare_atoms, x, y)
                dst = t.call(
                    "hierarchy.lesssim_star", hierarchy.lesssim_star, fx, table.entries[y], fresh
                )
                pairs += 1
                agreed += src == dst
    return {"replay_pairs": pairs, "replay_agree": agreed == pairs}


# -------------------------------------------------------------- oracle-sweep


_CARRIERS = {
    "singleton": (["a"], []),
    "a2": (["a", "b"], []),
    "chain2": (["a", "b"], [("a", "b")]),
}


def _oracle_inputs(seed, params):
    return {
        "params": params,
        "carriers": {name: validate(*spec, close=True) for name, spec in _CARRIERS.items()},
    }


def _oracle_drive(inp, t):
    """check_xy_wz as in criterion 8, check_containment_agreement at alpha=1
    as in criterion 4, check_two_forms as in criterion 3."""
    p, carriers = inp["params"], inp["carriers"]
    obs = {}
    for name in p["xy_wz"]:
        report = t.run(
            "oracle.check_xy_wz", oracle.check_xy_wz, carriers[name],
            maxlen=4, max_word_len=p["xy_word_len"],
        )
        stats = report.check("factor-containment-forced").stats
        obs[f"xy_wz.{name}.passed"] = report.passed
        obs[f"xy_wz.{name}.quadruples"] = stats["quadruples"]
        obs[f"xy_wz.{name}.containments"] = stats["containments"]
        obs[f"xy_wz.{name}.saturated"] = stats["saturated_at_bound"]
    for name in p["containment"]:
        report = t.run(
            "oracle.check_containment_agreement", oracle.check_containment_agreement,
            carriers[name], 1, maxlen=4, max_word_len=p["containment_word_len"],
        )
        stats = report.check("order-implies-containment").stats
        obs[f"containment.{name}.passed"] = report.passed
        obs[f"containment.{name}.unresolved"] = stats["unresolved"]
        obs[f"containment.{name}.resolved_all"] = (
            stats["confirmed"] + stats["refuted"] == stats["pairs"]
        )
        obs[f"containment.{name}.pairs"] = stats["pairs"]
        obs[f"containment.{name}.confirmed"] = stats["confirmed"]
    for name in p["two_forms"]:
        report = t.run(
            "oracle.check_two_forms", oracle.check_two_forms, carriers[name],
            maxlen=4, max_word_len=p["two_forms_word_len"],
        )
        census = report.check("prime-ideal-shapes").stats
        obs[f"two_forms.{name}.passed"] = report.passed
        obs[f"two_forms.{name}.prime_classes"] = census["prime_classes"]
        obs[f"two_forms.{name}.forms"] = census["star_forms"] + census["down_forms"]
    return obs, None


def _atom_words(system, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(system.atoms, repeat=length)


def _oracle_replay(inp, state, t):
    """The prime census, word masks and mask products the checks compute,
    each on a fresh alphabet or denotation context."""
    p, carriers = inp["params"], inp["carriers"]
    primes_pass = True
    for name in p["two_forms"]:
        alphabet = hierarchy.build_atoms(carriers[name], 1).alphabet
        report = t.call(
            "higman.hword_primes_check", higman.hword_primes_check,
            alphabet, maxlen=p["two_forms_word_len"],
        )
        primes_pass = primes_pass and report.passed
    for name in p["containment"]:
        system = hierarchy.build_atoms(carriers[name], 1)
        ctx = oracle.DenotationContext(carriers[name], 4)
        for letters in _atom_words(system, p["containment_word_len"]):
            t.call("oracle.DenotationContext.word_mask", ctx.word_mask, letters)
    products = 0
    for name in p["xy_wz"]:
        system = hierarchy.build_atoms(carriers[name], 1)
        ctx = oracle.DenotationContext(carriers[name], 4)
        masks = [
            t.call("oracle.DenotationContext.word_mask", ctx.word_mask, letters)
            for letters in _atom_words(system, p["xy_word_len"])
        ]
        for mx in masks:
            for my in masks:
                t.call("oracle.DenotationContext.product", ctx.product, mx, my)
                products += 1
    return {"replay_primes_pass": primes_pass, "replay_products": products}


# --------------------------------------------------------------- algebra-mix


def _draw_spec(rng, depth):
    'A hereditary-set shape: an int is an urelement code, a tuple a set.'
    if depth == 0 or rng.random() < 0.35:
        return rng.randrange(1 << 16)
    return tuple(_draw_spec(rng, depth - 1) for _ in range(rng.randint(1, 3)))


# The plain alphabet whose bounded word order feeds enumerate_downsets:
# two incomparable letters below a third.
_VEE3 = (["a", "b", "c"], [("a", "c"), ("b", "c")])


def _algebra_inputs(seed, params):
    rng = random.Random(seed)
    pool, samples = params["pool"], params["samples"]
    draws = {}
    for name in ("capped", "words"):
        draws[name] = {
            "pool": [_draw_spec(rng, 2) for _ in range(pool)],
            "assoc": [tuple(rng.randrange(pool) for _ in range(3)) for _ in range(samples)],
            "increase": [tuple(rng.randrange(pool) for _ in range(2)) for _ in range(samples)],
            "monotone": [tuple(rng.randrange(pool) for _ in range(4)) for _ in range(samples)],
        }
    downset_order = validate(*_VEE3, close=True)
    return {
        "params": params,
        "capped": capped_addition(params["cap"]),
        "letters2": AtomAlphabet(validate(["a", "b"], [], close=True), ()),
        "downset_letters": AtomAlphabet(downset_order, ()),
        "draws": draws,
        "pair_rng": random.Random(rng.random()),
    }


def _hset_from_spec(spec, n):
    if isinstance(spec, int):
        return hierarchy.ur_elem(spec % n)
    return hierarchy.hset(_hset_from_spec(s, n) for s in spec)


def _ideal_pairs(m, rng, t):
    'Every ordered pair of ideals, in seeded order, through product and decomposition.'
    ideals = downsets.enumerate_ideals(m.order)
    pairs = list(itertools.product(ideals, repeat=2))
    rng.shuffle(pairs)
    boxes = 0
    within = recovered = True
    for a, b in pairs:
        c = t.call("downsets.downset_product", downsets.downset_product, a, b, m)
        parts = t.call(
            "downsets.product_decomposition", downsets.product_decomposition, c, a, b, m
        )
        boxes += len(parts)
        union = frozenset().union(
            *(t.call("downsets.downset_product", downsets.downset_product, x, y, m).members
              for x, y in parts)
        )
        within = within and union <= c.members
        recovered = recovered and union == c.members
    return len(pairs), boxes, within, recovered


def _laws(m, draws, t):
    """Criterion 7's laws on seeded draws from a small pool, so that
    products and comparisons are asked again: associativity up to sim_star,
    x and y below xy, and monotonicity of the product."""
    q = m.order
    pool = [_hset_from_spec(spec, m.n) for spec in draws["pool"]]
    ok = True
    for i, j, k in draws["assoc"]:
        x, y, z = pool[i], pool[j], pool[k]
        mult = hierarchy.hset_mult
        lhs = t.call("hierarchy.hset_mult", mult, t.call("hierarchy.hset_mult", mult, x, y, m), z, m)
        rhs = t.call("hierarchy.hset_mult", mult, x, t.call("hierarchy.hset_mult", mult, y, z, m), m)
        ok = ok and t.call("hierarchy.sim_star", hierarchy.sim_star, lhs, rhs, q)
    for i, j in draws["increase"]:
        x, y = pool[i], pool[j]
        xy = t.call("hierarchy.hset_mult", hierarchy.hset_mult, x, y, m)
        ok = ok and t.call("hierarchy.lesssim_star", hierarchy.lesssim_star, x, xy, q)
        ok = ok and t.call("hierarchy.lesssim_star", hierarchy.lesssim_star, y, xy, q)
    for i, j, k, l in draws["monotone"]:
        x, y = pool[i], pool[j]
        xs = hierarchy.hset([x, pool[k]])
        ys = hierarchy.hset([y, pool[l]])
        ok = ok and t.call("hierarchy.lesssim_star", hierarchy.lesssim_star, x, xs, q)
        ok = ok and t.call("hierarchy.lesssim_star", hierarchy.lesssim_star, y, ys, q)
        small = t.call("hierarchy.hset_mult", hierarchy.hset_mult, x, y, m)
        large = t.call("hierarchy.hset_mult", hierarchy.hset_mult, xs, ys, m)
        ok = ok and t.call("hierarchy.lesssim_star", hierarchy.lesssim_star, small, large, q)
    return ok


def _algebra_drive(inp, t):
    """Generated monoids through the monoid and downsets layers, hereditary
    sets through the hierarchy layer."""
    p = inp["params"]
    words = t.run(
        "higman.bounded_word_monoid", higman.bounded_word_monoid, inp["letters2"], p["word_len"]
    )
    obs = {}
    for name, m in (("capped", inp["capped"]), ("words", words)):
        obs[f"{name}.axioms"] = t.run("monoid.check_axioms", monoid.check_axioms, m).passed
        obs[f"{name}.plus"] = t.run(
            "monoid.check_plus_property", monoid.check_plus_property, m
        ).passed
        obs[f"{name}.prime_factors"] = sum(
            len(t.run("monoid.prime_factorization", monoid.prime_factorization, m, x))
            for x in range(m.n)
        )
        obs[f"{name}.ideal_monoid_size"] = t.run("monoid.ideal_monoid", monoid.ideal_monoid, m).n
        pairs, boxes, within, recovered = _ideal_pairs(m, inp["pair_rng"], t)
        obs[f"{name}.ideal_pairs"] = pairs
        obs[f"{name}.boxes"] = boxes
        obs[f"{name}.boxes_within"] = within
        obs[f"{name}.boxes_recover"] = recovered
        obs[f"{name}.laws_hold"] = _laws(m, inp["draws"][name], t)
    primes = t.run(
        "higman.hword_primes_check", higman.hword_primes_check, inp["letters2"], maxlen=p["word_len"]
    )
    obs["word_primes.passed"] = primes.passed
    obs["word_primes.prime_classes"] = primes.check("primes-are-letter-classes").stats["prime_classes"]
    big = t.run(
        "higman.bounded_word_monoid", higman.bounded_word_monoid, inp["downset_letters"],
        p["downset_word_len"],
    )
    found = t.run("downsets.enumerate_downsets", downsets.enumerate_downsets, big.order, max_count=None)
    obs["downsets"] = len(found)
    return obs, big


def _algebra_replay(inp, big, t):
    'The downset enumeration on the quotient poset, on a fresh carrier.'
    fresh = FiniteQO(big.order.elements, big.order.leq)
    classes = qo.quotient(fresh).classes
    sets = t.call("qo.all_downsets_of_poset", qo.all_downsets_of_poset, classes.leq)
    t.count("qo.all_downsets_of_poset.sets", len(sets))
    return {"replay_sets": len(sets)}


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    drive: Callable
    replay: Callable


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "embed-sweep": Workload(_params_only, _embed_drive, _embed_replay),
    "hierarchy-sweep": Workload(_params_only, _hierarchy_drive, _hierarchy_replay),
    "oracle-sweep": Workload(_oracle_inputs, _oracle_drive, _oracle_replay),
    "algebra-mix": Workload(_algebra_inputs, _algebra_drive, _algebra_replay),
}

PARAMS = {
    "standard": {
        "embed-sweep": {"max_atoms": 4, "max_pair_len": 4, "full_len": 4, "full_atom_cap": 2},
        "hierarchy-sweep": {"max_points": 4, "alpha": 2, "letter_cap": 100},
        "oracle-sweep": {
            "xy_wz": ("singleton", "chain2"), "xy_word_len": 2,
            "containment": ("singleton", "a2"), "containment_word_len": 3,
            "two_forms": ("singleton", "a2", "chain2"), "two_forms_word_len": 3,
        },
        "algebra-mix": {
            "cap": 4, "word_len": 3, "downset_word_len": 3,
            "pool": 60, "samples": 300,
        },
    },
    "tiny": {
        "embed-sweep": {"max_atoms": 2, "max_pair_len": 3, "full_len": 3, "full_atom_cap": 1},
        "hierarchy-sweep": {"max_points": 3, "alpha": 1, "letter_cap": 100},
        "oracle-sweep": {
            "xy_wz": ("singleton",), "xy_word_len": 2,
            "containment": ("singleton",), "containment_word_len": 2,
            "two_forms": ("singleton",), "two_forms_word_len": 2,
        },
        "algebra-mix": {
            "cap": 2, "word_len": 2, "downset_word_len": 2,
            "pool": 8, "samples": 10,
        },
    },
}
