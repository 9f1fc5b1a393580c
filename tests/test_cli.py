import io
import itertools
import json
import os
import re
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealforge.cli import main
from idealforge.fixtures import squaring_to_unit
from idealforge.monoid import monoid_from_json

from conftest import DATA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_validate_reports_sizes(capsys):
    code, doc = run_json(capsys, "qo", "validate", str(DATA / "two_classes.json"))
    assert code == 0
    assert doc["command"] == "qo validate"
    assert doc["report"] == {"ok": True, "classes": 2, "elements": 3}


def test_unknown_label_is_a_usage_error(capsys):
    code, out, err = run(capsys, "qo", "validate", str(DATA / "broken.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "qo", "validate", str(DATA / "no_such.json"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"elements": 5, "order": []},
        {"elements": ["a"], "order": 7},
        [],
        {"elements": ["a"], "order": [["a", "a"]], "close": "no"},
    ],
)
def test_malformed_qo_is_a_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "qo", "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "qo", "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


# Arbitrary JSON, well-shaped carrier and alphabet objects (which reach the
# library), and such objects with one field replaced by arbitrary JSON.  A
# JSON escape can spell a lone surrogate, which no UTF-8 output can hold.
_LABELS = st.sampled_from(["a", "b", "t", "\ud800"])
_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _LABELS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


def _carrier(elements):
    label = st.sampled_from(elements)
    return st.fixed_dictionaries(
        {
            "elements": st.just(elements),
            "order": st.lists(st.lists(label, min_size=2, max_size=2), max_size=4),
            "close": st.booleans(),
            "idem": st.lists(label, max_size=2, unique=True),
        }
    )


_CARRIER = st.lists(_LABELS, min_size=1, max_size=3, unique=True).flatmap(_carrier)
_JSON = _ANY | _CARRIER | st.builds(
    lambda doc, key, value: {**doc, key: value},
    _CARRIER,
    st.sampled_from(["elements", "order", "close", "idem"]),
    _ANY,
)
_FUZZED = [
    ("qo", "validate"),
    ("downsets",),
    ("ideals",),
    ("higman", "leq", "--lhs", "a", "--rhs", "b,t", "--alphabet"),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FUZZED), _JSON)
def test_arbitrary_json_keeps_the_exit_contract(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([*command, path])
    assert code in (0, 2)
    out.getvalue().encode("utf-8")


# The commands that run checks, on carriers and monoids of at most two
# points so that every sweep stays small; PATH stands for the fuzzed file.
def _monoid(elements):
    label = st.sampled_from(elements)
    cells = list(itertools.product(elements, repeat=2))
    return st.fixed_dictionaries(
        {
            "elements": st.just(elements),
            "order": st.lists(st.lists(label, min_size=2, max_size=2), max_size=3),
            "close": st.booleans(),
            "mult": st.lists(label, min_size=len(cells), max_size=len(cells)).map(
                lambda products: [[a, b, c] for (a, b), c in zip(cells, products)]
            ),
            "unit": label,
        }
    )


_SMALL = st.lists(_LABELS, min_size=1, max_size=2, unique=True)
_CHECKED_JSON = (
    _ANY
    | _SMALL.flatmap(_carrier)
    | _SMALL.flatmap(_monoid)
    | st.builds(
        lambda doc, key, value: {**doc, key: value},
        _SMALL.flatmap(_monoid),
        st.sampled_from(["order", "close", "mult", "unit"]),
        _ANY,
    )
)
_ALPHA = st.sampled_from(["-1", "0", "1"])
_CHECKED = st.one_of(
    st.just(["verify", "two-forms", "--maxlen", "2", "--qo", "PATH"]),
    st.just(["verify", "xywz", "--maxlen", "2", "--qo", "PATH"]),
    _ALPHA.map(lambda a: ["verify", "containment", "--alpha", a, "--maxlen", "2", "--qo", "PATH"]),
    _ALPHA.map(lambda a: ["verify", "reflect", "--alpha", a, "--qo", "PATH"]),
    st.just(["verify", "axioms", "--monoid", "PATH"]),
    st.sampled_from(["0", "1"]).map(
        lambda m: ["verify", "higman-dp", "--max-atoms", m, "--maxlen", "2"]
    ),
    st.just(["monoid", "check", "PATH"]),
    st.tuples(st.sampled_from(["build", "atoms"]), _ALPHA, st.sampled_from(["1", "3", "20"])).map(
        lambda t: ["hier", t[0], "--alpha", t[1], "--max-members", t[2], "--qo", "PATH"]
    ),
)


@settings(max_examples=100, deadline=None)
@given(_CHECKED, _CHECKED_JSON)
def test_check_commands_keep_the_exit_contract(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([path if word == "PATH" else word for word in command])
    assert code in (0, 1, 2)
    out.getvalue().encode("utf-8")
    if code == 1:
        # a failure is reported, never raised: the envelope names the check
        report = json.loads(out.getvalue())["report"]
        assert report["passed"] is False
        assert any(not c["passed"] for r in report["reports"] for c in r["checks"])


ONE = {"elements": ["a"], "order": [["a", "a"]]}


@pytest.mark.parametrize(
    "command, doc",
    [
        (("monoid", "check"), {**ONE, "mult": 5, "unit": "a"}),
        (("monoid", "check"), {**ONE, "mult": [["a", "a", "a"]], "unit": [1]}),
        (("higman", "leq", "--lhs", "a", "--rhs", "a", "--alphabet"), {**ONE, "idem": 5}),
        (
            ("monoid", "check"),
            {
                "elements": ["e", "a"],
                "order": [["e", "a"]],
                "close": True,
                "unit": "e",
                "mult": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"], ["a", "a", "a"], ["a", "a", "e"]],
            },
        ),
    ],
)
def test_malformed_monoid_or_alphabet_is_a_usage_error(capsys, tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    assert main(["qo"]) == 2
    assert main(["hier", "build", "--qo", str(DATA / "a2.json")]) == 2
    capsys.readouterr()


def test_output_bytes_are_deterministic(capsys):
    _, first, _ = run(capsys, "downsets", str(DATA / "n_shape.json"))
    _, second, _ = run(capsys, "downsets", str(DATA / "n_shape.json"))
    assert first == second


def test_quotient_payload(capsys):
    code, doc = run_json(capsys, "qo", "quotient", str(DATA / "two_classes.json"))
    assert code == 0
    report = doc["report"]
    assert report["classes"] == ["a=b", "c"]
    assert report["class_of"] == {"a": 0, "b": 0, "c": 1}
    assert ["a=b", "c"] in report["order"]


def test_qo_dot_output(capsys):
    code, out, err = run(capsys, "qo", "dot", str(DATA / "chain3.json"))
    assert code == 0
    assert out.startswith("digraph")
    assert '"a" -> "b"' in out and '"a" -> "c"' not in out


def test_downset_and_ideal_counts(capsys):
    _, doc = run_json(capsys, "downsets", str(DATA / "n_shape.json"))
    assert doc["report"]["count"] == 7
    _, doc = run_json(capsys, "ideals", str(DATA / "n_shape.json"))
    assert doc["report"]["count"] == 4
    assert ["a", "b", "c"] in doc["report"]["members"]


def test_monoid_check_passes(capsys):
    code, doc = run_json(
        capsys, "monoid", "check", str(DATA / "capped_addition4.monoid.json")
    )
    assert code == 0
    assert doc["report"]["passed"] is True
    titles = [r["title"] for r in doc["report"]["reports"]]
    assert titles == ["multiplicative-axioms", "plus-property"]


def test_monoid_check_failure_exits_1(capsys, tmp_path):
    obj = {
        "elements": ["e", "a"],
        "order": [["e", "a"]],
        "close": True,
        "mult": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"], ["a", "a", "e"]],
        "unit": "e",
    }
    assert monoid_from_json(obj).mult.tolist() == squaring_to_unit().mult.tolist()
    path = tmp_path / "squaring.monoid.json"
    path.write_text(json.dumps(obj))
    code, doc = run_json(capsys, "monoid", "check", str(path))
    assert code == 1
    assert doc["report"]["passed"] is False


def test_monoid_primes_and_factor(capsys):
    _, doc = run_json(capsys, "monoid", "primes", str(DATA / "capped_addition4.monoid.json"))
    assert doc["report"] == {"primes": ["1"]}
    code, doc = run_json(
        capsys,
        "monoid",
        "factor",
        str(DATA / "capped_addition4.monoid.json"),
        "--element",
        "3",
    )
    assert code == 0
    assert doc["report"]["factors"] == ["1", "1", "1"]


def test_monoid_factor_failure_exits_1(capsys, tmp_path):
    # p*p lands on an incomparable t, so t never splits strictly
    obj = {
        "elements": ["e", "p", "t"],
        "order": [["e", "p"], ["e", "t"]],
        "close": True,
        "mult": [
            ["e", "e", "e"], ["e", "p", "p"], ["e", "t", "t"],
            ["p", "e", "p"], ["p", "p", "t"], ["p", "t", "t"],
            ["t", "e", "t"], ["t", "p", "t"], ["t", "t", "t"],
        ],
        "unit": "e",
    }
    monoid_from_json(obj)
    path = tmp_path / "odd.monoid.json"
    path.write_text(json.dumps(obj))
    code, doc = run_json(capsys, "monoid", "factor", str(path), "--element", "t")
    assert code == 1
    assert doc["report"]["passed"] is False
    assert "reason" in doc["report"]


def test_higman_leq_queries(capsys):
    alphabet = str(DATA / "a2_idem_top.alphabet.json")
    code, doc = run_json(
        capsys, "higman", "leq", "--alphabet", alphabet, "--lhs", "a,b,a", "--rhs", "t"
    )
    assert code == 0
    assert doc["report"]["leq"] is True
    code, doc = run_json(
        capsys, "higman", "leq", "--alphabet", alphabet, "--lhs", "t", "--rhs", "a"
    )
    assert code == 0
    assert doc["report"]["leq"] is False
    # the empty word spells as epsilon
    code, doc = run_json(
        capsys, "higman", "leq", "--alphabet", alphabet, "--lhs", "ε", "--rhs", "a"
    )
    assert doc["report"]["lhs"] == [] and doc["report"]["leq"] is True


def test_hier_build_levels(capsys):
    code, doc = run_json(
        capsys,
        "hier",
        "build",
        "--qo",
        str(DATA / "a2.json"),
        "--alpha",
        "2",
        "--kind",
        "vstar",
    )
    assert code == 0
    assert [lv["count"] for lv in doc["report"]["levels"]] == [2, 3, 4]
    code, doc = run_json(
        capsys, "hier", "build", "--qo", str(DATA / "a2.json"), "--alpha", "2"
    )
    assert doc["report"]["kind"] == "ihat"
    assert [lv["count"] for lv in doc["report"]["levels"]] == [2, 2, 2]


def test_hier_atoms_json_and_dot(capsys):
    code, doc = run_json(
        capsys, "hier", "atoms", "--qo", str(DATA / "a2.json"), "--alpha", "1"
    )
    assert code == 0
    assert doc["report"]["level_counts"] == [2, 5]
    assert [a["serial"] for a in doc["report"]["atoms"]] == [
        "a",
        "b",
        "*{a,b}",
        "*{a}",
        "*{b}",
    ]
    assert len(doc["report"]["order"]) == 5
    code, out, _ = run(
        capsys,
        "hier",
        "atoms",
        "--qo",
        str(DATA / "a2.json"),
        "--alpha",
        "1",
        "--format",
        "dot",
    )
    assert code == 0
    assert out.startswith("digraph atoms")


def test_verify_commands_pass(capsys):
    assert run(capsys, "verify", "reflect", "--qo", str(DATA / "a2.json"), "--alpha", "2")[0] == 0
    assert (
        run(capsys, "verify", "higman-dp", "--max-atoms", "2", "--maxlen", "3")[0] == 0
    )
    code, doc = run_json(
        capsys, "verify", "axioms", "--monoid", str(DATA / "capped_addition4.monoid.json")
    )
    assert code == 0
    assert len(doc["report"]["reports"]) == 3
    code, doc = run_json(
        capsys, "verify", "two-forms", "--qo", str(DATA / "singleton.json"), "--maxlen", "3"
    )
    assert code == 0


def test_verify_containment_fails_on_undecided_pairs(capsys):
    # *{a} is not below a.a.a, but a.a.a denotes every sequence of length at
    # most 3 that *{a} denotes, so maxlen 3 leaves such pairs undecided
    code, doc = run_json(
        capsys, "verify", "containment", "--qo", str(DATA / "singleton.json"),
        "--alpha", "2", "--maxlen", "3",
    )
    assert code == 1
    assert doc["report"]["passed"] is False
    (refuting,) = [
        c for c in doc["report"]["reports"][0]["checks"]
        if c["name"] == "non-order-has-refuting-sequence"
    ]
    assert refuting["passed"] is False
    assert refuting["stats"]["unresolved"] == 11


@pytest.mark.parametrize(
    "argv, what",
    [
        (("hier", "build", "--qo", str(DATA / "a2.json"), "--alpha", "-1"), "level"),
        (("verify", "xywz", "--qo", str(DATA / "a2.json"), "--maxlen", "0"), "maxlen"),
        (("verify", "higman-dp", "--max-atoms", "0"), "max_atoms"),
        # the member bound covers stage 0 too: three classes, bound 1
        (("hier", "build", "--qo", str(DATA / "antichain3.json"), "--alpha", "0",
          "--max-members", "1"), "exceeds 1"),
        (("hier", "atoms", "--qo", str(DATA / "antichain3.json"), "--alpha", "0",
          "--max-members", "1"), "exceeds 1"),
        (("verify", "higman-dp", "--maxlen", "-1"), "max_pair_len"),
        (("verify", "higman-dp", "--maxlen", "9"), "witness search is capped at length 8"),
        # 18 stage-2 members give 18 + 2^18 - 1 vstar candidates at stage 3
        (("hier", "build", "--qo", str(DATA / "antichain3.json"), "--alpha", "3",
          "--kind", "vstar"), "stage 3 exceeds 20000 candidate members"),
        # 43 and 44 level-2 letters give 81,400 and 87,165 words up to
        # length 3; both are refused before a word is built
        (("verify", "containment", "--qo", str(DATA / "antichain3.json"), "--alpha", "2"),
         "over 81,400 words asks 6,625,960,000 pairs"),
        (("verify", "containment", "--qo", str(DATA / "n_shape.json"), "--alpha", "2"),
         "over 87,165 words"),
        # 19 level-1 letters give 381 words up to length 2, about 2.1 x 10^10
        # quadruples; refused before a word is built
        (("verify", "xywz", "--qo", str(DATA / "antichain4.json")),
         "over 381 words asks 21,071,715,921 quadruples"),
        # at maxlen 1 a letter's star form and down form coincide, so the
        # shape check could not fail
        (("verify", "two-forms", "--qo", str(DATA / "a2.json"), "--maxlen", "1"),
         "needs maxlen >= 2"),
    ],
)
def test_out_of_domain_level_or_bound_is_a_usage_error(capsys, argv, what):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert what in err
    assert "Traceback" not in err


def test_seed_is_recorded(capsys):
    code, doc = run_json(
        capsys, "--seed", "9", "qo", "validate", str(DATA / "singleton.json")
    )
    assert code == 0
    assert doc["seed"] == 9


def _readme_commands():
    'The argument lists of every idealforge line in the sh blocks of README.md.'
    text = (DATA.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["idealforge"]:
                commands.append(words[1:])
    return commands


def test_readme_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(DATA.parent)
    commands = _readme_commands()
    assert commands
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if out.startswith("{"):
            words = itertools.takewhile(
                lambda w: not w.startswith("-") and not w.endswith(".json"), argv
            )
            assert json.loads(out)["command"] == " ".join(words)
