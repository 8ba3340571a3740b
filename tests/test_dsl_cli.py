import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from braidedthompson import (BraidWord, DslError, GroupContext, Label,
                             LabeledBraid, LabelGroupSpec, Spraige,
                             braid_equal, format_element, format_header,
                             format_session, half_twist, is_pure,
                             parse_element_text, parse_session)
from braidedthompson import complexes as cx
from braidedthompson.cli import RESULT_SCHEMA, main
from braidedthompson.dsl import _tokenize
from braidedthompson.forests import decode as decode_forest
from conftest import (context_full_twist, context_half_twist, context_trivial,
                      random_element, seeded)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

HEADER = "group { d:2, r:2, flavor:V, gens:[1 1] }"

ELEMENT = """
elem a {
  minus: (..)|.
  braid: 1
  labels: e; e; e
  plus: .|(..)
}
"""


def test_parse_basic_element():
    ctx, elements = parse_session(HEADER + ELEMENT)
    assert ctx.d == 2 and ctx.r == 2 and ctx.flavor == "V"
    assert str(ctx.spec.generators[0]) == "1 1"
    a = elements["a"]
    assert a.leaves == 3 and str(a.lb.braid) == "1"


def test_parse_trivial_gens_and_empty_braid():
    ctx, elements = parse_session(
        "group { d:2, r:1, flavor:V, gens:[] }\n"
        "elem e { minus: . braid: labels: e plus: . }")
    assert ctx.spec.generators == ()
    assert elements["e"].leaves == 1


def test_label_count_mismatch_is_an_error():
    text = HEADER + """
elem bad {
  minus: (..)|.
  braid: 1
  labels: e; e
  plus: .|(..)
}
"""
    with pytest.raises(DslError):
        parse_session(text)


def test_nonpure_generator_rejected_under_flavor_f():
    with pytest.raises(DslError) as err:
        parse_session("group { d:2, r:1, flavor:F, gens:[1] }")
    assert "pure" in str(err.value)


def flavor_session(flavor, elem):
    return "group { d:2, r:1, flavor:%s, gens:[] }\n  %s\n" % (flavor, elem)


SWAP = "elem a { minus: (..) braid: 1 labels: e; e plus: (..) }"
CROSSING = "elem a { minus: ((..).) braid: 1 labels: e; e; e plus: ((..).) }"


def test_flavor_sessions_hold_only_their_members():
    # the swap of two leaves is in bT but not bF; crossing two of three
    # leaves is in neither
    for flavor, elem in (("F", SWAP), ("T", CROSSING)):
        text = flavor_session(flavor, elem)
        for parse in (parse_session, oracle_parse_session):
            with pytest.raises(DslError, match="line 2, column 8: not an element of b%s"
                               % flavor) as err:
                parse(text)
            assert (err.value.line, err.value.col) == (2, 8)
        ctx, _ = parse_session(flavor_session(flavor, "elem x { minus: . braid: labels: e "
                                                       "plus: . }"))
        with pytest.raises(DslError, match="line 1, column 6: not an element"):
            parse_element_text(ctx, elem)
    for flavor, elem in (("V", SWAP), ("V", CROSSING), ("T", SWAP)):
        _, elements = parse_session(flavor_session(flavor, elem))
        assert list(elements) == ["a"]


def test_a_forest_text_is_one_token():
    # whitespace is free between tokens, but it ends a forest text: after
    # "minus: (..)" the parser wants "braid" and meets the "|"
    elem = "elem a { minus: %s braid: 1 labels: e; e; e plus: (..)|. }\n"
    text = "group { d:2, r:2, flavor:V, gens:[] }\n" + elem
    for parse in (parse_session, oracle_parse_session):
        assert list(parse(text % "(..)|.")[1]) == ["a"]
        with pytest.raises(DslError) as err:
            parse(text % "(..) | .")
        assert str(err.value) == "line 2, column 22: expected 'braid', found '|'"
        assert (err.value.line, err.value.col) == (2, 22)


def test_syntax_error_carries_line_and_column():
    text = HEADER + "\nelem x {\n  minus: (..)|.\n  oops: 1\n}\n"
    with pytest.raises(DslError) as err:
        parse_session(text)
    assert err.value.line == 4


def test_forest_arity_checked():
    with pytest.raises(DslError):
        parse_session(HEADER + "\nelem x { minus: (...) braid: labels: e plus: (...) }")


def test_undeclared_generator_rejected():
    with pytest.raises(DslError) as err:
        parse_session(HEADER + "\nelem x { minus: . braid: labels: g2 plus: . }")
    assert "g2" in str(err.value)


H = "group { d:2, r:1, flavor:V, gens:[1 1] }\n"
E = "elem a {\n  minus: (..)\n  braid: 1\n  labels: e; g1\n  plus: (..)\n}\n"

# One malformed session per grammar step: (text, message, line, column).
MALFORMED = [
    ("grp { d:2, r:1, flavor:V, gens:[] }", "expected 'group', found 'grp'", 1, 1),
    (H.replace("{", "(", 1), "expected '{', found '('", 1, 7),
    (H.replace("d:", "D:"), "expected 'd', found 'D'", 1, 9),
    (H.replace("d:", "d "), "expected ':', found '2'", 1, 11),
    (H.replace("d:2", "d:two"), "expected an arity, found 'two'", 1, 11),
    # an integer is an optional "-" and ASCII digits, not whatever int() reads
    (H.replace("d:2", "d:0_2"), "expected an arity, found '0_2'", 1, 11),
    (H.replace("2,", "2;", 1), "expected ',', found ';'", 1, 12),
    (H.replace("r:", "q:"), "expected 'r', found 'q'", 1, 14),
    (H.replace("r:1", "r:x"), "expected a root count, found 'x'", 1, 16),
    (H.replace("flavor", "kind"), "expected 'flavor', found 'kind'", 1, 19),
    (H.replace("flavor:V", "flavor:W"), "flavor must be V, F or T", 1, 26),
    (H.replace("gens", "gen"), "expected 'gens', found 'gen'", 1, 29),
    (H.replace("[", "("), "expected '[', found '(1'", 1, 34),
    (H.replace("[1 1]", "[1 1; 2]"), "expected ']', found ';'", 1, 38),
    (H.replace("[1 1]", "[1 3]"), "letter 3 out of range for B_2", 1, 35),
    (H.replace("] }", "] ]"), "expected '}', found ']'", 1, 40),
    (H.replace("flavor:V", "flavor:F").replace("[1 1]", "[1]"),
     "flavor F needs a pure label group; generator '1' is not pure", 1, 35),
    (H.replace("flavor:V", "flavor:F").replace("[1 1]", "[1 1, 1]") + E,
     "flavor F needs a pure label group; generator '1' is not pure", 1, 40),
    # the impure generator is reported even with a bad root count as well
    (H.replace("flavor:V", "flavor:T").replace("r:1", "r:0").replace("[1 1]", "[1 1, -1]"),
     "flavor T needs a pure label group; generator '-1' is not pure", 1, 40),
    (H.replace("r:1", "r:0"), "root count 0 must be >= 1", 1, 16),
    (H.replace("r:1", "r:0") + E, "root count 0 must be >= 1", 1, 16),
    (H.replace("d:2", "d:1").replace("[1 1]", "[]"), "label group degree 1 must be >= 2",
     1, 11),
    (H.replace("d:2", "d:-3").replace("r:1", "r:0").replace("[1 1]", "[]") + E,
     "label group degree -3 must be >= 2", 1, 11),
    (H + E.replace("elem", "elm"), "expected 'elem', found 'elm'", 2, 1),
    (H + E.replace("elem a {", "elem {"), "bad element name '{'", 2, 6),
    (H + E.replace("elem a", "elem group"), "bad element name 'group'", 2, 6),
    (H + E.replace("a {", "a ["), "expected '{', found '['", 2, 8),
    (H + E.replace("minus", "minos"), "expected 'minus', found 'minos'", 3, 3),
    (H + E.replace("minus: (..)", "minus: (.x)"), "unexpected character 'x' at position 2", 3, 10),
    (H + E.replace("braid:", "braid"), "expected ':', found '1'", 4, 9),
    (H + E.replace("labels:", "label:"), "expected 'labels', found 'label'", 5, 3),
    (H + E.replace("plus:", "plus ="), "expected ':', found '='", 6, 8),
    (H + E.replace("}", "]"), "expected '}', found ']'", 7, 1),
    (H + E.replace("g1\n", "g1x\n"), "bad label token 'g1x'", 5, 14),
    # an index is ASCII decimal digits, not whatever int() reads
    (H + E.replace("g1\n", "g1_0\n"), "bad label token 'g1_0'", 5, 14),
    (H + E.replace("g1\n", "g+1\n"), "bad label token 'g+1'", 5, 14),
    (H + E.replace("g1\n", "g\u0663\n"), "bad label token 'g\u0663'", 5, 14),
    (H + E.replace("e; g1", "e; ; g1"), "expected a label word", 5, 14),
    (H + E.replace("g1\n", "g2^-1\n"), "label references undeclared generator g2", 5, 14),
    (H + E.replace("minus: (..)", "minus: (...)"), "expected ')' at position 3 (is the arity 2?)",
     3, 10),
    (H + E.replace("braid: 1", "braid: 2"), "letter 2 out of range for B_2", 4, 10),
    # a token that is not an integer ends the braid run
    (H + E.replace("braid: 1", "braid: 1_0"), "expected 'labels', found '1_0'", 4, 10),
    (H + E.replace("braid: 1", "braid: \u0663"), "expected 'labels', found '\u0663'", 4, 10),
    (H + E.replace("braid: 1", "braid: +1"), "expected 'labels', found '+1'", 4, 10),
    (H + E.replace("plus: (..)", "plus: ((..).)"), "forests have 2 and 3 leaves", 2, 6),
    (H + E.replace("e; g1", "e; g1; e"), "3 labels for 2 leaves", 2, 6),
    (H + E + E, "duplicate element name 'a'", 8, 6),
    (H + "elem a {\n  minus: (..)\n", "unexpected end of input (at end of input)", 3, 10),
    ("", "unexpected end of input (at end of input)", 1, 1),
]


@pytest.mark.parametrize("text,message,line,col", MALFORMED)
def test_malformed_session_reports_message_line_and_column(text, message, line, col):
    for parse in (parse_session, oracle_parse_session):
        with pytest.raises(DslError) as err:
            parse(text)
        assert str(err.value) == "line %d, column %d: %s" % (line, col, message)
        assert (err.value.line, err.value.col) == (line, col)


def test_format_parse_roundtrip():
    ctx = context_half_twist(3, 1)
    rng = seeded("dsl-roundtrip")
    elements = {}
    for i in range(10):
        elements["e%d" % i] = ctx.reduce(random_element(ctx, rng, 2))
    text = format_session(ctx, elements)
    ctx2, parsed = parse_session(text)
    assert ctx2.d == ctx.d and ctx2.r == ctx.r and ctx2.flavor == ctx.flavor
    assert ctx2.spec.generators == ctx.spec.generators
    for name, s in elements.items():
        t = parsed[name]
        assert t.minus == s.minus and t.plus == s.plus
        assert t.lb.braid == s.lb.braid and t.lb.labels == s.lb.labels
    # byte-exact: reformatting the parsed session reproduces the text
    assert format_session(ctx2, parsed) == text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    data = json.loads(out) if out else None
    if data is not None:
        jsonschema.validate(data, RESULT_SCHEMA)
    return code, data


@pytest.fixture
def session_file(tmp_path):
    path = tmp_path / "session.dsl"
    path.write_text(HEADER + ELEMENT + """
elem g {
  minus: (..)|.
  braid: 1 -2 1
  labels: g1; e; g1^-1
  plus: (..)|.
}

elem braige {
  minus: .|.|.
  braid: 1
  labels: e; e; e
  plus: (..)|.
}
""", encoding="utf-8")
    return str(path)


def test_cli_eq_and_strict_exit_codes(capsys, session_file):
    code, data = run_cli(capsys, "eq", "--input", session_file, "a", "a")
    assert code == 0 and data["equal"] is True
    code, data = run_cli(capsys, "--strict", "eq", "--input", session_file, "a", "g")
    assert code == 1 and data["equal"] is False
    code, data = run_cli(capsys, "eq", "--input", session_file, "a", "g")
    assert code == 0
    code, data = run_cli(capsys, "eq", "--input", str(GOLDEN / "case_00.dsl"), "e0", "e1")
    assert code == 0
    # a false equality in the half-twist context
    code, data = run_cli(capsys, "--strict", "eq", "--input", str(GOLDEN / "case_03.dsl"),
                         "e0", "e1")
    assert code == 1 and data["equal"] is False


def test_cli_errors_exit_2(capsys, session_file):
    code = main(["eq", "--input", "/nonexistent.dsl", "a", "b"])
    err = capsys.readouterr().err
    assert code == 2 and "ok" in err
    code = main(["eq", "--input", session_file, "a", "missing"])
    assert code == 2


def usage_error(capsys, argv):
    """Run a command that argparse or the input checks reject; return its
    JSON error, checked against RESULT_SCHEMA, after checking exit code 2
    and empty stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", argv
    err = json.loads(captured.err)
    jsonschema.validate(err, RESULT_SCHEMA)
    assert err["ok"] is False
    return err


def test_cli_missing_operand_is_a_json_error(capsys, session_file):
    err = usage_error(capsys, ["eq", "--input", session_file, "a"])
    assert err == {"command": "eq", "ok": False,
                   "error": "bht eq: the following arguments are required: b"}


def test_cli_unknown_option_is_a_json_error(capsys, session_file):
    err = usage_error(capsys, ["eq", "--input", session_file, "a", "b", "--bogus"])
    assert err == {"command": "eq", "ok": False,
                   "error": "bht: unrecognized arguments: --bogus"}


def test_cli_morse_without_heights_is_a_json_error(capsys, tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(cx.d_matching_linear(2, 6).to_json_dict()), encoding="utf-8")
    err = usage_error(capsys, ["morse", "--file", str(path)])
    assert err == {"command": "morse", "ok": False,
                   "error": "morse needs --filter start or --heights"}


def test_cli_help_still_prints_help(capsys):
    with pytest.raises(SystemExit) as done:
        main(["morse", "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bht morse")


def test_cli_reduce_mul_inv(capsys, session_file):
    code, data = run_cli(capsys, "reduce", "--input", session_file, "g")
    assert code == 0 and data["leaves_after"] <= data["leaves_before"]
    code, data = run_cli(capsys, "mul", "--input", session_file, "a", "g")
    assert code == 0 and data["element"]["heads"] == 2
    code, data = run_cli(capsys, "inv", "--input", session_file, "a")
    assert code == 0
    code, data = run_cli(capsys, "is-identity", "--input", session_file, "a")
    assert code == 0 and data["identity"] is False


def test_cli_retract_and_embed(capsys, session_file):
    code, data = run_cli(capsys, "retract", "--input", session_file, "g")
    assert code == 0
    assert braid_equal(half_twist(2) * half_twist(2),
                       __import__("braidedthompson").BraidWord.from_string(2, data["braid"]))
    code, data = run_cli(capsys, "embed", "--input", session_file,
                         "--label", "g1", "--prime")
    assert code == 0 and data["element"]["labels"][0] == "g1"


def test_cli_embed_reads_e_in_a_label_word(capsys):
    golden = str(GOLDEN / "case_02.dsl")
    for label in ("g1 e", "e g1", "g1"):
        code, data = run_cli(capsys, "embed", "--input", golden, "--label", label)
        assert code == 0 and data["element"]["labels"] == ["g1"]
    code, data = run_cli(capsys, "embed", "--input", golden, "--label", "e e", "--prime")
    assert code == 0 and data["element"]["labels"] == ["e", "e"]


def test_cli_rejects_a_session_element_outside_its_flavor(capsys, tmp_path):
    path = tmp_path / "f.dsl"
    path.write_text(flavor_session("F", SWAP), encoding="utf-8")
    code = main(["mul", "--input", str(path), "a", "a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {
        "command": "mul", "ok": False,
        "error": "line 2, column 8: not an element of bF: its braid is not pure"}


@pytest.mark.parametrize("prime", [[], ["--prime"]])
def test_cli_embed_rejects_undeclared_generator(capsys, session_file, prime):
    code = main(["embed", "--input", session_file, "--label", "g5"] + prime)
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2 and err["ok"] is False and captured.out == ""
    assert err["error"] == "label references undeclared generator g5"


def test_cli_dangling_and_support(capsys, session_file):
    code, data = run_cli(capsys, "dangling-eq", "--input", session_file,
                         "braige", "braige")
    assert code == 0 and data["dangling_equal"] is True
    code, data = run_cli(capsys, "arc-support", "--input", session_file, "braige")
    assert code == 0 and data["supports"] == [[1, 2]]


def test_cli_member_and_project(capsys, tmp_path):
    path = tmp_path / "pure.dsl"
    path.write_text(
        "group { d:2, r:1, flavor:F, gens:[1 1] }\n"
        "elem x { minus: (..) braid: 1 1 labels: e; e plus: (..) }\n",
        encoding="utf-8")
    code, data = run_cli(capsys, "member", "--sub", "F", "--input", str(path), "x")
    assert code == 0 and data["member"] is True
    code, data = run_cli(capsys, "project-v", "--input", str(path), "x")
    assert code == 0 and data["diagram"]["permutation"] == [1]
    code, data = run_cli(capsys, "member", "--sub", "F", "--input",
                         str(GOLDEN / "case_04.dsl"), "e0")
    assert code == 0 and data["member"] is True

    # The guard is on the generators, not on the flavor: V sessions with no
    # generators or pure ones answer, and one with an impure generator is refused.
    golden = str(GOLDEN / "case_00.dsl")
    for sub in ("F", "T"):
        assert run_cli(capsys, "member", "--sub", sub, "--input", golden, "e0") == (
            0, {"command": "member", "member": True, "ok": True})
    code, data = run_cli(capsys, "project-v", "--input", golden, "e0")
    assert code == 0 and data["diagram"] == {"minus": ".", "permutation": [1], "plus": "."}

    path.write_text(
        "group { d:2, r:1, flavor:V, gens:[1 1] }\n"
        "elem x { minus: (..) braid: 1 1 labels: e; g1 plus: (..) }\n"
        "elem y { minus: (..) braid: 1 labels: e; e plus: (..) }\n",
        encoding="utf-8")
    code, data = run_cli(capsys, "member", "--sub", "F", "--input", str(path), "x")
    assert code == 0 and data["member"] is True
    code, data = run_cli(capsys, "member", "--sub", "F", "--input", str(path), "y")
    assert code == 0 and data["member"] is False
    code, data = run_cli(capsys, "project-v", "--input", str(path), "x")
    assert code == 0 and data["diagram"] == {"minus": ".", "permutation": [1], "plus": "."}
    code, data = run_cli(capsys, "project-v", "--input", str(path), "y")
    assert code == 0 and data["diagram"] == {"minus": "(..)", "permutation": [2, 1],
                                             "plus": "(..)"}

    path.write_text("group { d:3, r:1, flavor:V, gens:[1 2 1] }\n"
                    "elem x { minus: . braid: labels: e plus: . }\n", encoding="utf-8")
    for argv, what in ((["member", "--sub", "F"], "F membership"),
                       (["member", "--sub", "T"], "T membership"),
                       (["project-v"], "projection to V")):
        code = main(argv + ["--input", str(path), "x"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err)["error"] == "%s needs a pure label group" % what


# A malformed session, size or integer flag, each a JSON error in the
# library's wording (a flag is read in the one spelling of an integer in
# session text, so "+1", "1_0" and other scripts' digits are not integers
# there either): (arguments, session text or None, error).
CLI_INPUT_ERRORS = [
    (["mul", "a", "a"], "group { d:2, r:1, flavor:V, gens:[] }\n"
     "elem a { minus: (..) braid: labels: g1; e plus: (..) }\n",
     "line 2, column 37: label references undeclared generator g1"),
    (["mul", "a", "a"], "group { d:2, r:1, flavor:V, gens:[] }\n"
     "elem a { minus: (..) braid: 2 labels: e; e plus: (..) }\n",
     "line 2, column 29: letter 2 out of range for B_2"),
    (["embed", "--label", "e"], "group { d:2, r:0, flavor:V, gens:[] }\n",
     "line 1, column 16: root count 0 must be >= 1"),
    (["complex", "linear-matching", "--d", "1", "--m", "5"], None, "arity 1 must be >= 2"),
    (["complex", "linear-matching", "--d", "2", "--m", "+1"], None,
     "bht complex: argument --m: expected an integer, not '+1'"),
    (["complex", "linear-matching", "--d", "2", "--m", "1_0"], None,
     "bht complex: argument --m: expected an integer, not '1_0'"),
    (["complex", "linear-matching", "--d", "2", "--m", "\u0663"], None,
     "bht complex: argument --m: expected an integer, not '\u0663'"),
]


@pytest.mark.parametrize("argv,text,error", CLI_INPUT_ERRORS)
def test_cli_input_error_is_the_library_message(capsys, tmp_path, argv, text, error):
    if text is not None:
        path = tmp_path / "s.dsl"
        path.write_text(text, encoding="utf-8")
        argv = argv + ["--input", str(path)]
    assert usage_error(capsys, argv) == {"command": argv[0], "ok": False, "error": error}


def test_cli_eq_on_a_long_braid(capsys, tmp_path):
    # a and b differ only by Delta^2 (central) commuted past a random
    # 4,000-letter braid on 60 strands, so they are equal although spelled
    # differently; c flips one letter of a's braid (the exponent sum
    # changes) and d a positive and a negative one (exponent sum and
    # permutation stay, only the Dynnikov coordinates differ)
    n = 60
    rng = random.Random(1)
    w = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(4000)]
    delta2 = [k for _ in range(2) for j in range(1, n) for k in range(j, 0, -1)]
    one = list(w)
    one[0] = -w[0]
    p = next(i for i, a in enumerate(w) if a > 0)
    q = next(i for i, a in enumerate(w) if a < 0)
    two = list(w)
    two[p], two[q] = -w[p], -w[q]
    forest = "|".join("." * n)
    elem = "elem %s { minus: %s braid: %s labels: %s plus: %s }\n"
    path = tmp_path / "twist.dsl"
    with open(path, "w", encoding="utf-8") as out:
        out.write("group { d:2, r:%d, flavor:V, gens:[] }\n" % n)
        for name, letters in (("a", delta2 + w), ("b", w + delta2),
                              ("c", delta2 + one), ("d", delta2 + two)):
            out.write(elem % (name, forest, " ".join(map(str, letters)),
                              "; ".join(["e"] * n), forest))
    for other, code in (("b", 0), ("c", 1), ("d", 1)):
        assert run_cli(capsys, "--strict", "eq", "--input", str(path), "a", other)[0] == code


def test_bht_process_reads_stdin_and_exits_0_1_or_2():
    # `python -m braidedthompson.cli` in a child process: a complex piped
    # from one run into the next, and the exit codes and streams themselves
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def bht(*argv, stdin=None):
        return subprocess.run([sys.executable, "-m", "braidedthompson.cli", *argv],
                              input=stdin, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)

    def complex_text(m):
        run = bht("complex", "linear-matching", "--d", "2", "--m", str(m))
        assert run.returncode == 0 and run.stderr == "", run.stderr
        return run.stdout

    answer = bht("homology", stdin=complex_text(6))
    assert answer.returncode == 0 and answer.stderr == "", answer.stderr
    data = json.loads(answer.stdout)
    jsonschema.validate(data, RESULT_SCHEMA)
    assert data["ok"] is True and data["command"] == "homology"
    # M_2(P_7) is a circle, so not wCM of dimension 2 (homology computed
    # only through the degree asked): a false --strict predicate exits with
    # exactly 1
    answer = bht("--strict", "wcm", "--n", "2", stdin=complex_text(7))
    assert answer.returncode == 1 and answer.stderr == "", answer.stderr
    assert json.loads(answer.stdout)["wcm"] is False
    # a size below its bound: exit code exactly 2, nothing on stdout, and
    # one JSON error on stderr
    answer = bht("complex", "linear-matching", "--d", "1", "--m", "5")
    assert answer.returncode == 2 and answer.stdout == ""
    assert json.loads(answer.stderr) == {"command": "complex", "ok": False,
                                         "error": "arity 1 must be >= 2"}


def test_cli_complex_pipeline(capsys, tmp_path):
    code, data = run_cli(capsys, "complex", "linear-matching", "--d", "3", "--m", "9")
    assert code == 0 and data["complex"]["vertices"] == 7
    cpath = tmp_path / "k.json"
    cpath.write_text(json.dumps(data["complex"]), encoding="utf-8")

    code, data = run_cli(capsys, "homology", "--file", str(cpath))
    assert code == 0
    betti = {row["degree"]: row["betti"] for row in data["reduced_homology"]}
    assert betti[1] == 3  # wedge of three circles

    code, data = run_cli(capsys, "wcm", "--n", "1", "--file", str(cpath))
    assert code == 0 and data["wcm"] is True

    code, data = run_cli(capsys, "join-check", "--duplicated", "--file", str(cpath))
    assert code == 0 and data["complete_join"] is True

    code, data = run_cli(capsys, "morse", "--filter", "start", "--file", str(cpath))
    assert code == 0 and data["morse_ok"] is True
    assert [row["t"] for row in data["levels"]] == list(range(1, 8))


def test_cli_complex_restricted_to_initial_positions(capsys):
    argv = ["complex", "linear-matching", "--d", "2", "--m", "5"]
    # M_2(P_5) has arcs starting at 1..4; keeping 1 and 3 leaves one edge
    code, data = run_cli(capsys, *argv, "--z", "1,3")
    assert code == 0 and data["complex"] == {"vertices": 4, "maximal_faces": [[0, 2]]}
    for z, message in (("0", "initial positions must lie in 1..4"),
                       ("a", "--z takes comma separated integers, not 'a'"),
                       ("1,+3", "--z takes comma separated integers, not '+3'"),
                       ("1_0", "--z takes comma separated integers, not '1_0'"),
                       ("1,\u0663", "--z takes comma separated integers, not '\u0663'")):
        code = main(argv + ["--z", z])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", z
        assert json.loads(captured.err) == {"command": "complex", "ok": False, "error": message}


def run_cli_stdin(capsys, monkeypatch, payload, *argv):
    """run_cli with the JSON payload on stdin and no --file."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    return run_cli(capsys, *argv)


def matching_complex(capsys, *argv):
    """What `bht complex ...` prints as the complex."""
    code, data = run_cli(capsys, "complex", *argv)
    assert code == 0
    return data["complex"]


# `bht complex ... | bht ...`: (the complex's arguments, the reader's
# arguments, the reader's exit code).  The child process test below pipes
# M_2(P_6) into `homology` and M_2(P_7) into `--strict wcm --n 2`.
PIPELINES = [
    (["linear-matching", "--d", "2", "--m", "6"], ["morse", "--filter", "start"], 0),
    # homology computed only through the degree asked: M_2(P_8) is
    # contractible, so it is wCM of dimension 2
    (["linear-matching", "--d", "2", "--m", "8"], ["--strict", "wcm", "--n", "2"], 0),
    (["linear-matching", "--d", "2", "--m", "8"], ["morse", "--filter", "start", "--k", "1"], 0),
    # the cyclic matching complex on the odd initial positions 1, 3, 5, 7 is
    # one 3-simplex, so it is wCM of dimension 3
    (["cyclic-matching", "--d", "2", "--m", "8", "--z", "1,3,5,7"],
     ["--strict", "wcm", "--n", "3"], 0),
    # the duplicated cover of M_2(P_6) is a complete join
    (["linear-matching", "--d", "2", "--m", "6"], ["--strict", "join-check", "--duplicated"], 0),
]


@pytest.mark.parametrize("source,argv,code", PIPELINES)
def test_cli_pipeline_reads_the_complex_from_stdin(capsys, monkeypatch, source, argv, code):
    k = matching_complex(capsys, *source)
    assert run_cli_stdin(capsys, monkeypatch, k, *argv)[0] == code


def test_cli_morse_sweep_on_m2_p8_reads_exact_degrees(capsys, monkeypatch):
    # the Morse sweep reads each level pair off the descending links: exact
    # degrees k for t = 1..7 on M_2(P_8), and every level holds
    k = matching_complex(capsys, "linear-matching", "--d", "2", "--m", "8")
    code, data = run_cli_stdin(capsys, monkeypatch, k, "morse", "--filter", "start")
    assert code == 0
    assert [(row["t"], row["k"], row["holds"]) for row in data["levels"]] == list(
        zip(range(1, 8), [-1, -1, 5, 0, 0, 5, 1], [True] * 7))


def test_cli_morse_with_heights_on_stdin(capsys, monkeypatch):
    path3 = {"vertices": 3, "maximal_faces": [[0, 1], [1, 2]]}
    # vertex 1 tops both edges, so the descending links at t = 0, 1, 2 are
    # empty, empty and two points (k = -1, -1, 0)
    code, data = run_cli_stdin(capsys, monkeypatch, path3, "morse", "--heights", "[0,2,1]")
    assert code == 0
    assert [(row["t"], row["k"], row["holds"]) for row in data["levels"]] == [
        (0, -1, True), (1, -1, True), (2, 0, True)]
    # one height short
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(path3)))
    err = usage_error(capsys, ["morse", "--heights", "[0,2]"])
    assert err["command"] == "morse" and "--heights" in err["error"]


def test_cli_homology_on_stdin(capsys, monkeypatch):
    # a hollow triangle listing a vertex inside an edge: one circle
    hollow = {"vertices": 3, "maximal_faces": [[0, 1], [1, 2], [0, 2], [1]]}
    code, data = run_cli_stdin(capsys, monkeypatch, hollow, "homology")
    assert code == 0
    assert {row["degree"]: row["betti"] for row in data["reduced_homology"]} == {
        -1: 0, 0: 0, 1: 1}
    # RP^2: no free part, Z/2 in degree 1; the sparse elimination leaves a
    # 3x1 block, so this reaches the dense Smith form
    rp2 = {"vertices": 6, "maximal_faces": [[0, 1, 2], [0, 1, 5], [0, 2, 3], [0, 3, 4],
                                            [0, 4, 5], [1, 2, 4], [1, 3, 4], [1, 3, 5],
                                            [2, 3, 5], [2, 4, 5]]}
    code, data = run_cli_stdin(capsys, monkeypatch, rp2, "homology")
    rows = data["reduced_homology"]
    assert code == 0 and all(row["betti"] == 0 for row in rows)
    assert {row["degree"]: row["torsion"] for row in rows if row["torsion"]} == {1: [2]}


def test_cli_join_check_explicit_map(capsys, tmp_path):
    tri = {"vertices": 3, "maximal_faces": [[0, 1], [1, 2], [0, 2]]}
    payload = {"source": tri, "target": tri, "vertex_map": [0, 1, 2]}
    path = tmp_path / "join.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, data = run_cli(capsys, "join-check", "--file", str(path))
    assert code == 0 and data["complete_join"] is True


def test_cli_morse_with_heights(capsys, tmp_path):
    tri = {"vertices": 3, "maximal_faces": [[0, 1], [1, 2], [0, 2]]}
    path = tmp_path / "k.json"
    path.write_text(json.dumps(tri), encoding="utf-8")
    code, data = run_cli(capsys, "morse", "--file", str(path),
                         "--heights", "[0, 1, 2]", "--t", "2", "--k", "0")
    assert code == 0 and data["levels"][0]["holds"] is True


def test_cli_morse_builds_each_descending_link_once(capsys, tmp_path, monkeypatch):
    k = cx.d_matching_linear(2, 12)
    h = cx.HeightFunction({v: v + 1 for v in range(k.vertices)})
    levels = [{"t": t, "k": kk, "holds": cx.morse_check(k, h, t, kk)}
              for t in h.levels(k) for kk in [cx.morse_sweep(k, h, [t])[0][1]]]
    path = tmp_path / "k.json"
    path.write_text(json.dumps(k.to_json_dict()), encoding="utf-8")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("reduced_homology", "morse_descending_link", "_descending_link"):
        monkeypatch.setattr(cx, name, counted(name, getattr(cx, name)))
    monkeypatch.setattr(cx.HeightFunction, "is_valid_for",
                        counted("is_valid_for", cx.HeightFunction.is_valid_for))
    code, data = run_cli(capsys, "morse", "--filter", "start", "--file", str(path))
    assert code == 0 and data["levels"] == levels and len(levels) == k.vertices == 11
    assert calls["morse_descending_link"] + calls["_descending_link"] <= 11
    assert calls["reduced_homology"] <= 11
    assert calls["is_valid_for"] == 1


@pytest.mark.parametrize("argv", [["morse", "--filter", "start"], ["join-check", "--duplicated"]])
def test_cli_cost_follows_the_faces_not_the_declared_vertex_count(capsys, tmp_path, argv):
    answers = []
    for vertices in (3, 10 ** 6):  # a 3-vertex path, alone and among a million vertices
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"vertices": vertices, "maximal_faces": [[0, 1], [1, 2]]}),
                        encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(argv + ["--file", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 2 ** 20, (vertices, peak)
        answers.append(capsys.readouterr().out)
    assert answers[0] == answers[1]
    assert json.loads(answers[0])["ok"] is True


def vines(carets):
    """The binary left vine and right vine with `carets` carets each."""
    return ("(" * carets + ".." + ")." * (carets - 1) + ")",
            "(." * (carets - 1) + "(..)" + ")" * (carets - 1))


def expand_last(text):
    """The binary forest `text` with a caret attached at its last leaf."""
    i = text.rindex(".")
    return text[:i] + "(..)" + text[i + 1:]


def deep_elem(name, minus, plus):
    """An element with these binary forests, the empty braid and trivial labels."""
    labels = "; ".join(["e"] * minus.count("."))
    return "elem %s { minus: %s braid: labels: %s plus: %s }\n" % (name, minus, labels, plus)


def deep_text(minus, plus):
    """A session whose element g has these binary forests, the empty braid
    and trivial labels."""
    return "group { d:2, r:1, flavor:V, gens:[] }\n" + deep_elem("g", minus, plus)


def deep_session(tmp_path, carets=1500):
    """A session whose element g is x0-shaped with `carets` carets: a left
    vine over a right vine, each nested `carets` deep.  Its element h is g
    expanded at its last leaf, so it represents the same group element."""
    left, right = vines(carets)
    path = tmp_path / "deep.dsl"
    path.write_text(deep_text(left, right) + deep_elem("h", expand_last(left), expand_last(right)),
                    encoding="utf-8")
    return str(path)


@contextlib.contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_deep_element_parses_under_the_recursion_limit(tmp_path):
    # Forests are decoded in one iterative pass, however deep they are.
    with open(deep_session(tmp_path, 5000), encoding="utf-8") as fh:
        text = fh.read()
    with recursion_limit(1000):  # CPython's default
        _, elements = parse_session(text)
    g = elements["g"]
    assert g.minus.leaves == g.plus.leaves == g.lb.strands == 5001


@pytest.mark.parametrize("argv", [["reduce", "g"], ["inv", "g"], ["eq", "g", "g"],
                                  ["eq", "g", "h"], ["is-identity", "g"]])
def test_cli_deep_input_answers_under_the_recursion_limit(capsys, tmp_path, argv):
    # Elementary carets are read off each forest's text, a decoded forest is
    # written back from the text it was read from, and two decoded forests
    # are compared by their texts, so none of these commands walks the
    # 1,500-caret trees recursively.
    left, right = vines(1500)
    path = deep_session(tmp_path)
    with recursion_limit(1000):
        code, data = run_cli(capsys, argv[0], "--input", path, *argv[1:])
    assert code == 0
    if argv[0] in ("reduce", "inv"):
        element = data["element"]
        minus, plus = (left, right) if argv[0] == "reduce" else (right, left)
        assert (element["minus"], element["plus"], element["leaves"]) == (minus, plus, 1501)
    if argv[0] == "reduce":
        assert data["leaves_before"] == data["leaves_after"] == 1501
    if argv[0] == "eq":
        assert data["equal"] is True
    if argv[0] == "is-identity":
        assert data["identity"] is False


def test_deep_vine_over_itself_reduces_to_the_identity():
    left, _ = vines(1500)
    ctx, elements = parse_session(deep_text(left, left))
    with recursion_limit(1000):
        red = ctx.reduce(elements["g"])
    assert red.leaves == 1 and ctx.is_identity(red)


def test_cli_strict_exit_codes_on_deep_input(capsys, tmp_path):
    # distinct deep representatives of one element compare by their forests'
    # texts, and g is not the identity
    path = deep_session(tmp_path)
    with recursion_limit(1000):
        assert run_cli(capsys, "--strict", "eq", "--input", path, "g", "h")[0] == 0
        assert run_cli(capsys, "--strict", "is-identity", "--input", path, "g")[0] == 1


def test_cli_too_deep_input_is_a_json_error(capsys, tmp_path):
    # The session parses, but a product walks forests recursively
    # (forests.join and the expansions along its paths), so mul exceeds
    # the recursion limit.
    code = main(["mul", "--input", deep_session(tmp_path), "g", "g"])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2 and captured.out == ""
    assert err["ok"] is False and err["command"] == "mul" and "recursion" in err["error"]


# -- complex input contract: a JSON error and exit code 2 --------------------------

COMPLEX_COMMANDS = (["homology"], ["wcm", "--n", "1"], ["morse", "--filter", "start"],
                    ["join-check", "--duplicated"], ["join-check"])


def assert_input_error(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for cmd in COMPLEX_COMMANDS:
        if cmd == ["join-check"] and isinstance(payload, dict):
            args = cmd + ["--file", str(tmp_path / "pair.json")]
            (tmp_path / "pair.json").write_text(json.dumps(
                {"source": payload, "target": payload, "vertex_map": [0]}), encoding="utf-8")
        else:
            args = cmd + ["--file", str(path)]
        code = main(args)
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert code == 2 and err["ok"] is False and err["error"], cmd
        assert captured.out == ""


def test_cli_missing_file_is_a_json_error(capsys, tmp_path):
    for cmd in COMPLEX_COMMANDS:
        code = main(cmd + ["--file", str(tmp_path / "missing.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["ok"] is False, cmd


def test_cli_top_level_array_is_a_json_error(capsys, tmp_path):
    assert_input_error(capsys, tmp_path, [[0, 1]])


def test_cli_non_integer_vertex_is_a_json_error(capsys, tmp_path):
    assert_input_error(capsys, tmp_path, {"vertices": 3, "maximal_faces": [["a", 1]]})
    assert_input_error(capsys, tmp_path, {"maximal_faces": [["a", 1]]})


def test_cli_fractional_vertex_is_a_json_error(capsys, tmp_path):
    assert_input_error(capsys, tmp_path, {"vertices": 3, "maximal_faces": [[0, 1.5]]})
    assert_input_error(capsys, tmp_path, {"vertices": 3, "maximal_faces": [[0, 1.0]]})


def test_cli_bad_vertex_count_is_a_json_error(capsys, tmp_path):
    for vertices in (True, 3.0, "3", None):
        assert_input_error(capsys, tmp_path, {"vertices": vertices, "maximal_faces": [[0, 1]]})


def test_cli_face_in_a_complex_without_vertices_says_so(capsys, tmp_path):
    assert_input_error(capsys, tmp_path, {"vertices": 0, "maximal_faces": [[0]]})
    path = tmp_path / "k.json"
    for faces in ([[0]], [[], [2, 1]]):
        path.write_text(json.dumps({"vertices": 0, "maximal_faces": faces}), encoding="utf-8")
        code = main(["homology", "--file", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {
            "command": "homology", "ok": False,
            "error": "the complex has no vertices, so it has no nonempty face"}
    # empty faces are dropped, so this is the empty complex
    path.write_text('{"vertices": 0, "maximal_faces": [[]]}', encoding="utf-8")
    code, data = run_cli(capsys, "homology", "--file", str(path))
    assert code == 0 and data["reduced_homology"] == [{"degree": -1, "betti": 1, "torsion": []}]


def assert_field_error(capsys, argv, field):
    code = main(argv)
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2 and err["ok"] is False and field in err["error"], err
    assert captured.out == ""


@pytest.fixture
def path3_file(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"vertices": 3, "maximal_faces": [[0, 1], [1, 2]]}),
                    encoding="utf-8")
    return str(path)


def test_cli_heights_not_a_list_is_a_json_error(capsys, path3_file):
    assert_field_error(capsys, ["morse", "--file", path3_file, "--heights", "5"], "--heights")
    assert_field_error(capsys, ["morse", "--file", path3_file, "--heights", "[1, 2"],
                       "--heights")


def test_cli_fractional_heights_are_a_json_error(capsys, path3_file):
    for heights in ("[1.5, 2.7, 3.2]", "[1.0, 2, 3]", "[true, 2, 3]", '["1", 2, 3]'):
        assert_field_error(capsys, ["morse", "--file", path3_file, "--heights", heights],
                           "--heights")


def test_cli_heights_of_wrong_length_are_a_json_error(capsys, path3_file):
    for heights in ("[1, 2]", "[]", "[1, 2, 3, 4]"):
        assert_field_error(capsys, ["morse", "--file", path3_file, "--heights", heights],
                           "--heights")


def test_cli_level_edge_is_a_json_error_for_a_sweep_and_one_level(capsys, path3_file):
    for extra in ([], ["--t", "2"]):
        code = main(["morse", "--file", path3_file, "--heights", "[1, 1, 2]"] + extra)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {
            "command": "morse", "ok": False,
            "error": "invalid height function: some cell has no unique maximum"}


def write_pair(tmp_path, vertex_map):
    tri = {"vertices": 3, "maximal_faces": [[0, 1], [1, 2], [0, 2]]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"source": tri, "target": tri, "vertex_map": vertex_map}),
                    encoding="utf-8")
    return str(path)


def test_cli_bad_vertex_map_is_a_json_error(capsys, tmp_path):
    for vertex_map in (5, None, "012", [0, 1], [0, 1, 2.0], [0, 1, True],
                       {"a": 0, "1": 1, "2": 2}, {"-1": 0}, {"0": 0, "1": 1, "2": "2"}):
        assert_field_error(capsys, ["join-check", "--file", write_pair(tmp_path, vertex_map)],
                           "vertex_map")


@pytest.mark.parametrize("key", ["source", "target"])
def test_cli_join_check_names_a_missing_complex(capsys, tmp_path, key):
    tri = {"vertices": 3, "maximal_faces": [[0, 1], [1, 2], [0, 2]]}
    payload = {"source": tri, "target": tri, "vertex_map": [0, 1, 2]}
    del payload[key]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["join-check", "--file", str(path)])
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert code == 2 and captured.out == ""
    assert err != repr(key) and '"%s"' % key in err


def test_cli_vertex_map_object_keys_are_vertex_ids(capsys, tmp_path):
    path = write_pair(tmp_path, {"0": 1, "1": 2, "2": 0})
    code, data = run_cli(capsys, "join-check", "--file", path)
    assert code == 0 and data["complete_join"] is True


def test_cli_plain_mode(capsys, session_file):
    code = main(["--plain", "eq", "--input", session_file, "a", "a"])
    out = capsys.readouterr().out
    assert code == 0 and "equal\tTrue" in out


def test_cli_dot_export(capsys, tmp_path, session_file):
    dot = tmp_path / "g.dot"
    code, _ = run_cli(capsys, "reduce", "--input", session_file, "g",
                      "--dot", str(dot))
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph") and "braid" in text


def test_cli_dot_to_unwritable_path_is_a_json_error(capsys, tmp_path, session_file):
    for path in (tmp_path / "missing" / "x.dot", tmp_path):
        code = main(["reduce", "--input", session_file, "g", "--dot", str(path)])
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert code == 2 and err["ok"] is False and err["error"], path
        assert captured.out == ""


def test_cli_dot_text(capsys, tmp_path):
    path = tmp_path / "x.dsl"
    path.write_text("group { d:2, r:2, flavor:V, gens:[] }\n"
                    "elem x { minus: ((..).)|. braid: 1 labels: e; e; e; e plus: .|(.(..)) }\n",
                    encoding="utf-8")
    dot = tmp_path / "x.dot"
    code, _ = run_cli(capsys, "reduce", "--input", str(path), "x", "--dot", str(dot))
    assert code == 0
    assert dot.read_text(encoding="utf-8") == """digraph element {
  label="x";
  minus0 [shape=circle, label=""];
  minus1 [shape=circle, label=""];
  minus0 -> minus1;
  minus2 [shape=point, label=""];
  minus1 -> minus2;
  minus3 [shape=point, label=""];
  minus1 -> minus3;
  minus4 [shape=point, label=""];
  minus0 -> minus4;
  minus5 [shape=point, label=""];
  plus0 [shape=point, label=""];
  plus1 [shape=circle, label=""];
  plus2 [shape=point, label=""];
  plus1 -> plus2;
  plus3 [shape=circle, label=""];
  plus1 -> plus3;
  plus4 [shape=point, label=""];
  plus3 -> plus4;
  plus5 [shape=point, label=""];
  plus3 -> plus5;
  braid [shape=box, label="braid: 1"];
  labels [shape=box, label="labels: e; e; e; e"];
}
"""


def test_header_formatting_roundtrip():
    ctx = context_half_twist(3, 2)
    text = format_header(ctx)
    ctx2, _ = parse_session(text)
    assert ctx2.spec.generators == ctx.spec.generators
    assert format_header(ctx2) == text


# -- differential oracle: the parser with a token object per token -------------
#
# The token-object parser that the index-based one replaced, frozen as it was:
# it records every token's line and column up front.  The two must agree on
# every text, valid or not: the same elements, or the same error text, line
# and column.

# A punctuation character, or a run of anything but whitespace and
# punctuation.  `\s` matches exactly the characters `str.isspace` accepts.
_ORACLE_TOKEN = re.compile(r"[{}\[\],;:]|[^\s{}\[\],;:]+")

# An integer: an optional "-", then ASCII digits ("+1", "1_0" and "\u0663",
# which int() reads, are not integers).
_ORACLE_INT = re.compile(r"-?[0-9]+")


def test_tokenizer_agrees_with_the_oracle_token_pattern():
    # whitespace of each kind `str.isspace` accepts, and three non-spaces
    spaces = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000 "
    assert spaces.isspace() and not any(c.isspace() for c in "\u200b\ufeff\u00e9")
    alphabet = list("{}[],;:|().0123456789e\u200b\ufeff\u00e9" + spaces) + ["g", "^-", "g1^-1"]
    rng = seeded("dsl-tokenizer")
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
        assert _tokenize(text) == _ORACLE_TOKEN.findall(text), text


class _OracleToken:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text = text
        self.line = line
        self.col = col


def _oracle_tokenize(text):
    # Only "\n" ends a line; columns count characters from 1.
    return [_OracleToken(m.group(), line, m.start() + 1)
            for line, row in enumerate(text.split("\n"), 1)
            for m in _ORACLE_TOKEN.finditer(row)]


class _OracleParser:
    def __init__(self, text):
        self.tokens = _oracle_tokenize(text)
        self.pos = 0

    def error(self, message, token=None):
        if token is None:
            token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else _OracleToken("", 1, 1)
            raise DslError(message + " (at end of input)", last.line, last.col)
        raise DslError(message, token.line, token.col)

    def check(self, token, build, *args, **kwargs):
        """build(*args, **kwargs), its ValueError reported at token."""
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            self.error(str(exc), token)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, *texts):
        """Consume the fixed token sequence texts."""
        for text in texts:
            tok = self.next()
            if tok.text != text:
                self.error("expected %r, found %r" % (text, tok.text), tok)

    def at(self, text):
        tok = self.peek()
        return tok is not None and tok.text == text

    def int_token(self, what):
        tok = self.next()
        if not _ORACLE_INT.fullmatch(tok.text):
            self.error("expected %s, found %r" % (what, tok.text), tok)
        return int(tok.text)

    def collect_ints(self):
        out = []
        while self.pos < len(self.tokens) and _ORACLE_INT.fullmatch(self.tokens[self.pos].text):
            out.append(int(self.tokens[self.pos].text))
            self.pos += 1
        return out

    # -- grammar -----------------------------------------------------------

    def parse_header(self) -> GroupContext:
        self.expect("group", "{", "d", ":")
        d_tok = self.peek()
        d = self.int_token("an arity")
        self.expect(",", "r", ":")
        r_tok = self.peek()
        r = self.int_token("a root count")
        self.expect(",", "flavor", ":")
        tok = self.next()
        if tok.text not in ("V", "F", "T"):
            self.error("flavor must be V, F or T", tok)
        flavor = tok.text
        self.expect(",", "gens", ":", "[")
        gens = []  # (first token, word)
        if not self.at("]"):
            gens.append(self._generator(d))
            while self.at(","):
                self.next()
                gens.append(self._generator(d))
        self.expect("]", "}")
        require_pure = flavor in ("F", "T")
        for tok, g in gens:
            if require_pure and not is_pure(g):
                self.error("flavor %s needs a pure label group; generator %r is not pure"
                           % (flavor, str(g)), tok)
        gens = [g for _, g in gens]
        spec = self.check(d_tok, LabelGroupSpec, d, gens, require_pure=require_pure)
        return self.check(r_tok, GroupContext, d, r, spec, flavor)

    def parse_element(self, ctx: GroupContext):
        self.expect("elem")
        name_tok = self.next()
        if name_tok.text in ("{", "}", "group", "elem"):
            self.error("bad element name %r" % name_tok.text, name_tok)
        self.expect("{", "minus", ":")
        minus = self._forest(ctx.d)
        self.expect("braid", ":")
        braid_start = self.peek()
        letters = self.collect_ints()
        self.expect("labels", ":")
        labels = [self._label(len(ctx.spec.generators))]
        while self.at(";"):
            self.next()
            labels.append(self._label(len(ctx.spec.generators)))
        self.expect("plus", ":")
        plus = self._forest(ctx.d)
        self.expect("}")
        if minus.leaves != plus.leaves:
            self.error("forests have %d and %d leaves" % (minus.leaves, plus.leaves),
                       name_tok)
        if len(labels) != minus.leaves:
            self.error("%d labels for %d leaves" % (len(labels), minus.leaves), name_tok)
        braid = self.check(braid_start, BraidWord, minus.leaves, letters)
        return name_tok, self.check(name_tok, ctx.validate,
                                    Spraige(minus, LabeledBraid(braid, labels), plus))

    def _generator(self, d):
        tok = self.peek()
        return tok, self.check(tok, BraidWord, d, self.collect_ints())

    def _forest(self, d):
        tok = self.next()
        return self.check(tok, decode_forest, tok.text, d)

    def _label(self, n_gens):
        """A label word: a run of "e" and g<i>[^-1] tokens."""
        parts = []
        while (tok := self.peek()) is not None and (tok.text == "e" or tok.text.startswith("g")):
            parts.append(self.next())
        if not parts:
            self.error("expected a label word")
        if len(parts) == 1 and parts[0].text == "e":
            return Label()
        word = []
        for tok in parts:
            word.extend(self.check(tok, Label.parse, tok.text).word)
        for x in word:
            if abs(x) > n_gens:
                self.error("label references undeclared generator g%d" % abs(x), parts[0])
        return Label(word)


def oracle_parse_session(text):
    """Parse a header plus any number of elements.
    Returns (context, ordered dict of name -> Spraige)."""
    p = _OracleParser(text)
    ctx = p.parse_header()
    elements = {}
    while p.peek() is not None:
        name_tok, s = p.parse_element(ctx)
        if name_tok.text in elements:
            p.error("duplicate element name %r" % name_tok.text, name_tok)
        elements[name_tok.text] = s
    return ctx, elements


def oracle_parse_element_text(ctx: GroupContext, text: str) -> Spraige:
    p = _OracleParser(text)
    _, s = p.parse_element(ctx)
    if p.peek() is not None:
        p.error("trailing input after element")
    return s


# Tokens a mutation may put in place of another: syntax, near-misses of
# labels, letters and forests, and spellings that int() reads but that are
# not integers here ("+1", "1_0", "\u0663").
JUNK = ["x", "e", "g0", "g9", "g1^-2", "g", "-0", "0", "+1", "1_0", "99", "\u0663",
        "(..", "(...)", ".|.", "((..).)", "elem", "group", "{", "}", ";", ":", ",",
        "[", "]", "labels", "braid", "plus", "minus"]


def parse_outcome(parse, text):
    """What parse(text) returns, as text, or the error it raises."""
    try:
        ctx, elements = parse(text)
    except DslError as exc:
        return "error", str(exc), exc.line, exc.col
    except Exception as exc:  # any other exception is compared by type and text
        return "raised", type(exc).__name__, str(exc)
    return "ok", format_session(ctx, elements), list(elements)


def mutate(text, rng, vocab):
    """One seeded edit: a token deleted, duplicated, swapped or replaced, a
    line dropped, or CRLF line endings (with one more edit half the time)."""
    kind = rng.randrange(6)
    if kind == 4:
        lines = text.split("\n")
        del lines[rng.randrange(len(lines))]
        return "\n".join(lines)
    if kind == 5:
        text = text.replace("\n", "\r\n")
        return mutate(text, rng, vocab) if rng.random() < 0.5 else text
    spans = [m.span() for m in _ORACLE_TOKEN.finditer(text)]
    a, b = spans[rng.randrange(len(spans))]
    if kind == 0:
        return text[:a] + text[b:]
    if kind == 1:
        return text[:b] + rng.choice(("", " ", "\n")) + text[a:b] + text[b:]
    if kind == 2:
        c, d = spans[rng.randrange(len(spans))]
        if c < a:
            a, b, c, d = c, d, a, b
        if c < b:
            return text
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    return text[:a] + rng.choice(vocab) + text[b:]


def differential_sessions():
    rng = seeded("dsl-differential")
    sessions = []
    for ctx in (context_trivial(2, 1), context_full_twist(2, 1), context_half_twist(3, 1)):
        for _ in range(2):
            elements = {}
            for i in range(3):
                s = random_element(ctx, rng, 3)
                elements["e%d" % i] = ctx.reduce(s) if i % 2 else s
            sessions.append(format_session(ctx, elements))
    return rng, sessions


def test_parser_agrees_with_token_object_oracle_on_valid_sessions():
    _, sessions = differential_sessions()
    for text in sessions:
        got = parse_outcome(parse_session, text)
        assert got[0] == "ok" and got == parse_outcome(oracle_parse_session, text)
        assert got[1] == text  # and it round-trips


def test_parser_agrees_with_token_object_oracle_on_mutated_sessions():
    rng, sessions = differential_sessions()
    seen = []
    for n in range(5400):
        text = sessions[n % len(sessions)]
        vocab = JUNK + sorted(set(_ORACLE_TOKEN.findall(text)))
        bad = mutate(text, rng, vocab)
        got = parse_outcome(parse_session, bad)
        assert got == parse_outcome(oracle_parse_session, bad), bad
        seen.append(got[1] if got[0] == "error" else got[0])
    # the mutations reach valid texts and every kind of check
    assert "ok" in seen
    for what in ("(at end of input)", "duplicate element name", "bad label token",
                 "undeclared generator", "out of range", "labels for", "leaves",
                 "is the arity", "bad element name", "expected a label word"):
        assert any(what in outcome for outcome in seen), what


def test_element_text_parser_agrees_with_token_object_oracle():
    rng, sessions = differential_sessions()
    for text in sessions:
        ctx, elements = parse_session(text)
        for name, s in elements.items():
            elem = format_element(name, s)
            vocab = JUNK + sorted(set(_ORACLE_TOKEN.findall(elem)))
            for bad in [elem, elem + " x"] + [mutate(elem, rng, vocab) for _ in range(60)]:
                new, old = [parse_outcome(lambda t, parse=parse: (ctx, {name: parse(ctx, t)}), bad)
                            for parse in (parse_element_text, oracle_parse_element_text)]
                assert new == old, bad
