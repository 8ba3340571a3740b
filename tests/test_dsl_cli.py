import json

import jsonschema
import pytest

from braidedthompson import (DslError, braid_equal, format_header,
                             format_session, half_twist, parse_session)
from braidedthompson.cli import RESULT_SCHEMA, main
from conftest import context_half_twist, random_element, seeded

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
     "flavor F requires pure generators; '1' is not pure (at end of input)", 1, 38),
    (H.replace("r:1", "r:0"), "need at least one root (at end of input)", 1, 40),
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
    (H + E.replace("e; g1", "e; ; g1"), "expected a label word", 5, 14),
    (H + E.replace("g1\n", "g2^-1\n"), "label references undeclared generator g2", 5, 14),
    (H + E.replace("minus: (..)", "minus: (...)"), "expected ')' at position 3 (is the arity 2?)",
     3, 10),
    (H + E.replace("braid: 1", "braid: 2"), "letter 2 out of range for B_2", 4, 10),
    (H + E.replace("plus: (..)", "plus: ((..).)"), "forests have 2 and 3 leaves", 2, 6),
    (H + E.replace("e; g1", "e; g1; e"), "3 labels for 2 leaves", 2, 6),
    (H + E + E, "duplicate element name 'a' (at end of input)", 13, 1),
    (H + "elem a {\n  minus: (..)\n", "unexpected end of input (at end of input)", 3, 10),
    ("", "unexpected end of input (at end of input)", 1, 1),
]


@pytest.mark.parametrize("text,message,line,col", MALFORMED)
def test_malformed_session_reports_message_line_and_column(text, message, line, col):
    with pytest.raises(DslError) as err:
        parse_session(text)
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


def test_cli_errors_exit_2(capsys, session_file):
    code = main(["eq", "--input", "/nonexistent.dsl", "a", "b"])
    err = capsys.readouterr().err
    assert code == 2 and "ok" in err
    code = main(["eq", "--input", session_file, "a", "missing"])
    assert code == 2


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
