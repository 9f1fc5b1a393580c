"""Command-line front door.

Reads carriers and monoids from JSON, dispatches to the library, and prints
one deterministic JSON envelope (or raw DOT) per run.  Exit status is 0 when
every requested check passes, 1 when a check fails with a counterexample in
the report, 2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import hierarchy, oracle
from .downsets import enumerate_downsets, enumerate_ideals
from .errors import IdealforgeError, NoFactorizationError, SchemaError
from .higman import AtomAlphabet, HWord, dp_agreement_sweep, leq_H
from .monoid import (
    check_axioms,
    check_plus_property,
    check_prime_product_lemma,
    monoid_from_json,
    prime_factorization,
    primes,
)
from .qo import equiv_classes, from_json, hasse_dot, quotient, to_json
from .reflect import build_reflection, verify_reflection
from .report import Report


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise SchemaError("JSON nesting is too deep") from None


def _load_alphabet(path: str) -> AtomAlphabet:
    obj = _load_json(path)
    q = from_json(obj)
    idem = obj.get("idem", [])
    if not isinstance(idem, list) or not all(isinstance(lab, str) for lab in idem):
        raise SchemaError('"idem" must be a list of labels')
    return AtomAlphabet(q, [q.index(lab) for lab in idem])


def _word(alpha: AtomAlphabet, text: str) -> HWord:
    if text in ("", "ε"):
        return HWord(alpha, [])
    return HWord(alpha, [alpha.order.index(lab) for lab in text.split(",")])


def _envelope(ns: argparse.Namespace, payload) -> str:
    sub = getattr(ns, "sub", None)
    doc = {
        "command": ns.cmd if sub is None else f"{ns.cmd} {sub}",
        "version": __version__,
        "seed": ns.seed,
        "report": payload,
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _report_payload(reports: list[Report]) -> tuple[int, dict]:
    ok = all(r.passed for r in reports)
    payload = {"passed": ok, "reports": [r.to_json() for r in reports]}
    return (0 if ok else 1), payload


def _cmd_qo(ns: argparse.Namespace) -> tuple[int, str]:
    q = from_json(_load_json(ns.path))
    if ns.sub == "validate":
        payload = {
            "ok": True,
            "elements": len(q.elements),
            "classes": len(equiv_classes(q)),
        }
        return 0, _envelope(ns, payload)
    if ns.sub == "quotient":
        qm = quotient(q)
        payload = {
            "classes": list(qm.classes.elements),
            "class_of": {q.elements[i]: qm.class_of[i] for i in range(q.n)},
            "order": to_json(qm.classes)["order"],
        }
        return 0, _envelope(ns, payload)
    return 0, hasse_dot(q)


def _cmd_downsets(ns: argparse.Namespace) -> tuple[int, str]:
    q = from_json(_load_json(ns.path))
    rows = enumerate_downsets(q) if ns.cmd == "downsets" else enumerate_ideals(q)
    payload = {"count": len(rows), "members": [sorted(d.labels) for d in rows]}
    return 0, _envelope(ns, payload)


def _cmd_monoid(ns: argparse.Namespace) -> tuple[int, str]:
    m = monoid_from_json(_load_json(ns.path))
    if ns.sub == "check":
        code, payload = _report_payload([check_axioms(m), check_plus_property(m)])
        return code, _envelope(ns, payload)
    if ns.sub == "primes":
        labels = sorted(m.label(i) for i in primes(m))
        return 0, _envelope(ns, {"primes": labels})
    target = m.order.index(ns.element)
    try:
        factors = prime_factorization(m, target)
    except NoFactorizationError as e:
        payload = {"passed": False, "element": ns.element, "reason": str(e)}
        return 1, _envelope(ns, payload)
    payload = {
        "passed": True,
        "element": ns.element,
        "factors": [m.label(i) for i in factors],
    }
    return 0, _envelope(ns, payload)


def _cmd_higman(ns: argparse.Namespace) -> tuple[int, str]:
    alpha = _load_alphabet(ns.path)
    u = _word(alpha, ns.lhs)
    v = _word(alpha, ns.rhs)
    payload = {"lhs": list(u.labels), "rhs": list(v.labels), "leq": leq_H(u, v)}
    return 0, _envelope(ns, payload)


def _cmd_hier(ns: argparse.Namespace) -> tuple[int, str]:
    q = from_json(_load_json(ns.path))
    if ns.sub == "build":
        level = hierarchy.build_level(q, ns.alpha, kind=ns.kind, max_members=ns.max_members)
        payload = {
            "kind": ns.kind,
            "alpha": ns.alpha,
            "levels": [
                {"alpha": lv.alpha, "count": lv.cardinality, "members": [x.serial for x in lv.members]}
                for lv in level.chain()
            ],
        }
        return 0, _envelope(ns, payload)
    system = hierarchy.build_atoms(q, ns.alpha, max_members=ns.max_members)
    if ns.format == "dot":
        return 0, hasse_dot(system.alphabet.order, name="atoms")
    payload = {
        "alpha": system.alpha,
        "level_counts": list(system.level_counts),
        "atoms": [
            {"serial": a.serial, "level": a.level, "idem": a.is_idem}
            for a in system.atoms
        ],
        "order": system.alphabet.order.leq.astype(int).tolist(),
    }
    return 0, _envelope(ns, payload)


def _cmd_verify(ns: argparse.Namespace) -> tuple[int, str]:
    if ns.sub == "higman-dp":
        reports = [dp_agreement_sweep(max_atoms=ns.max_atoms, max_pair_len=ns.maxlen)]
    elif ns.sub == "axioms":
        m = monoid_from_json(_load_json(ns.path))
        reports = [check_axioms(m), check_plus_property(m), check_prime_product_lemma(m)]
    else:
        q = from_json(_load_json(ns.path))
        if ns.sub == "two-forms":
            reports = [oracle.check_two_forms(q, maxlen=ns.maxlen)]
        elif ns.sub == "containment":
            reports = [oracle.check_containment_agreement(q, ns.alpha, maxlen=ns.maxlen)]
        elif ns.sub == "xywz":
            reports = [oracle.check_xy_wz(q, maxlen=ns.maxlen)]
        else:
            table = build_reflection(q, ns.alpha)
            reports = [verify_reflection(table)]
    code, payload = _report_payload(reports)
    return code, _envelope(ns, payload)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="idealforge")
    top.add_argument("--seed", type=int, default=0, help="recorded in every report")
    sub = top.add_subparsers(dest="cmd", required=True)

    qo = sub.add_parser("qo", help="inspect a quasi-order file")
    qo.set_defaults(run=_cmd_qo)
    qosub = qo.add_subparsers(dest="sub", required=True)
    for name in ("validate", "quotient", "dot"):
        p = qosub.add_parser(name)
        p.add_argument("path")

    for name in ("downsets", "ideals"):
        p = sub.add_parser(name, help=f"enumerate {name} of a quasi-order")
        p.set_defaults(run=_cmd_downsets)
        p.add_argument("path")

    mo = sub.add_parser("monoid", help="check or factor a multiplicative carrier")
    mo.set_defaults(run=_cmd_monoid)
    mosub = mo.add_subparsers(dest="sub", required=True)
    for name in ("check", "primes", "factor"):
        p = mosub.add_parser(name)
        p.add_argument("path")
        if name == "factor":
            p.add_argument("--element", required=True)

    hg = sub.add_parser("higman", help="compare words over an annotated alphabet")
    hg.set_defaults(run=_cmd_higman)
    hgsub = hg.add_subparsers(dest="sub", required=True)
    p = hgsub.add_parser("leq")
    p.add_argument("--alphabet", dest="path", required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    hi = sub.add_parser("hier", help="build iterated ideal stages or their atoms")
    hi.set_defaults(run=_cmd_hier)
    hisub = hi.add_subparsers(dest="sub", required=True)
    for name in ("build", "atoms"):
        p = hisub.add_parser(name)
        p.add_argument("--qo", dest="path", required=True)
        p.add_argument("--alpha", type=int, required=True)
        p.add_argument(
            "--max-members",
            type=int,
            default=hierarchy.DEFAULT_MAX_MEMBERS,
            help="member-count bound for each stage",
        )
        if name == "build":
            p.add_argument("--kind", choices=hierarchy._KINDS, default="ihat")
        else:
            p.add_argument("--format", choices=("json", "dot"), default="json")

    ve = sub.add_parser("verify", help="run a theorem check and report")
    ve.set_defaults(run=_cmd_verify)
    vesub = ve.add_subparsers(dest="sub", required=True)
    for name in ("two-forms", "containment", "xywz"):
        p = vesub.add_parser(name)
        p.add_argument("--qo", dest="path", required=True)
        p.add_argument("--maxlen", type=int, default=4)
        if name == "containment":
            p.add_argument("--alpha", type=int, default=1)
    p = vesub.add_parser("reflect")
    p.add_argument("--qo", dest="path", required=True)
    p.add_argument("--alpha", type=int, default=1)
    p = vesub.add_parser("higman-dp")
    p.add_argument("--max-atoms", type=int, default=3)
    p.add_argument("--maxlen", type=int, default=4)
    p = vesub.add_parser("axioms")
    p.add_argument("--monoid", dest="path", required=True)
    return top


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        code, out = ns.run(ns)
    except (IdealforgeError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
