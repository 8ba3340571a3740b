"""Command line front end.

Element commands read a DSL file (header plus named elements) given with
--input and name their operands; complex commands build or read JSON
complexes ({"vertices": V, "maximal_faces": [[..], ..]}), so they can be
piped:  `bht complex linear-matching --d 3 --m 9 | bht homology`.

Every command prints one JSON object (or stable lines with --plain).
Exit codes: 0 success, 1 mathematically false predicate under --strict,
2 error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import complexes as cx
from ._checks import int_prefix
from .diagrams import Spraige, v_reduce
from .dsl import format_element, parse_session
from .labeled import Label

RESULT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command", "ok"],
    "properties": {
        "command": {"type": "string"},
        "ok": {"type": "boolean"},
        "error": {"type": "string"},
        "element": {"$ref": "#/$defs/element"},
        "elements": {"type": "array", "items": {"$ref": "#/$defs/element"}},
        "equal": {"type": "boolean"},
        "identity": {"type": "boolean"},
        "member": {"type": "boolean"},
        "dangling_equal": {"type": "boolean"},
        "braid": {"type": "string"},
        "label": {"type": "string"},
        "supports": {"type": "array",
                     "items": {"type": "array", "items": {"type": "integer"}}},
        "leaves_before": {"type": "integer"},
        "leaves_after": {"type": "integer"},
        "diagram": {"type": "object"},
        "complex": {"type": "object",
                    "required": ["vertices", "maximal_faces"],
                    "properties": {
                        "vertices": {"type": "integer"},
                        "maximal_faces": {"type": "array",
                                          "items": {"type": "array",
                                                    "items": {"type": "integer"}}}}},
        "reduced_homology": {"type": "array", "items": {
            "type": "object",
            "required": ["degree", "betti", "torsion"],
            "properties": {"degree": {"type": "integer"},
                           "betti": {"type": "integer"},
                           "torsion": {"type": "array", "items": {"type": "integer"}}}}},
        "euler_characteristic": {"type": "integer"},
        "wcm": {"type": "boolean"},
        "dimension": {"type": "integer"},
        "violation": {"type": ["string", "null"]},
        "complete_join": {"type": "boolean"},
        "levels": {"type": "array", "items": {
            "type": "object",
            "required": ["t", "k", "holds"],
            "properties": {"t": {"type": "integer"},
                           "k": {"type": "integer"},
                           "holds": {"type": "boolean"}}}},
        "morse_ok": {"type": "boolean"},
    },
    "$defs": {
        "element": {
            "type": "object",
            "required": ["minus", "braid", "labels", "plus"],
            "properties": {
                "name": {"type": "string"},
                "minus": {"type": "string"},
                "braid": {"type": "string"},
                "labels": {"type": "array", "items": {"type": "string"}},
                "plus": {"type": "string"},
                "heads": {"type": "integer"},
                "feet": {"type": "integer"},
                "leaves": {"type": "integer"},
                "text": {"type": "string"},
            },
        }
    },
}


class CliError(Exception):
    pass


def _element_json(name, s: Spraige):
    return {
        "name": name,
        "minus": str(s.minus),
        "braid": str(s.lb.braid),
        "labels": [str(l) for l in s.lb.labels],
        "plus": str(s.plus),
        "heads": s.heads,
        "feet": s.feet,
        "leaves": s.leaves,
        "text": format_element(name, s),
    }


def _get(elements, name):
    if name not in elements:
        raise CliError("no element named %r in the input file" % name)
    return elements[name]


def _read_json(args):
    """The JSON object in --file, or on stdin without it."""
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    if not isinstance(data, dict):
        raise CliError("the input JSON must be an object")
    return data


def _read_complex(args):
    data = _read_json(args)
    return cx.SimplicialComplex.from_json_dict(data.get("complex", data))


def _heights(text, k):
    """--heights: a JSON list of integers, one per vertex of k."""
    try:
        heights = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError("--heights is not JSON: %s" % exc) from None
    if (not isinstance(heights, list) or len(heights) != k.vertices
            or not all(type(x) is int for x in heights)):
        raise CliError("--heights must be a JSON list of %d integers, one per vertex"
                       % k.vertices)
    return dict(enumerate(heights))


def _vertex_map(data, source):
    """"vertex_map": a list of integers, one per source vertex, or an
    object from decimal vertex ids to integers."""
    vmap = data.get("vertex_map")
    if isinstance(vmap, list):
        if len(vmap) == source.vertices and all(type(w) is int for w in vmap):
            return vmap
    elif isinstance(vmap, dict):
        if all(v.isascii() and v.isdigit() and type(w) is int for v, w in vmap.items()):
            return {int(v): w for v, w in vmap.items()}
    raise CliError('"vertex_map" must be a list of %d integers, one per source vertex, '
                   "or an object from decimal vertex ids to integers" % source.vertices)


# -- element commands ---------------------------------------------------------


def _reduce(ctx, args, s):
    red = ctx.reduce(s)
    if args.dot:
        _write_dot(args.dot, args.name, red)
    return {"leaves_before": s.leaves, "leaves_after": red.leaves,
            "element": _element_json(args.name, red)}, True


def _embed(ctx, args):
    label = Label.parse(args.label)
    if args.prime:
        return {"element": _element_json("iota'(%s)" % args.label, ctx.iota_prime(label))}, True
    return {"element": _element_json("iota(%s)" % args.label, ctx.iota_label(label))}, True


def _project_v(ctx, args, s):
    pfd = v_reduce(ctx.project_to_v(s))
    return {"diagram": {"minus": str(pfd.minus),
                        "permutation": list(pfd.perm.image),
                        "plus": str(pfd.plus)}}, True


def _answer(field, truth):
    return {field: truth}, truth


# command -> (operand names, fn(ctx, args, *operand elements) -> (fields, truth))
ELEMENT_COMMANDS = {
    "reduce": (["name"], _reduce),
    "mul": (["a", "b"], lambda ctx, args, a, b: (
        {"element": _element_json("%s*%s" % (args.a, args.b), ctx.multiply(a, b))}, True)),
    "inv": (["name"], lambda ctx, args, s: (
        {"element": _element_json("%s^-1" % args.name, ctx.reduce(ctx.invert(s)))}, True)),
    "eq": (["a", "b"], lambda ctx, args, a, b: _answer("equal", ctx.equal(a, b))),
    "is-identity": (["name"], lambda ctx, args, s: _answer("identity", ctx.is_identity(s))),
    "member": (["name"], lambda ctx, args, s: _answer(
        "member", ctx.in_bF(s) if args.sub == "F" else ctx.in_bT(s))),
    "project-v": (["name"], _project_v),
    "retract": (["name"], lambda ctx, args, s: ({"braid": str(ctx.r_label(s))}, True)),
    "embed": ([], _embed),
    "dangling-eq": (["a", "b"], lambda ctx, args, a, b: _answer(
        "dangling_equal", ctx.dangling_equal(a, b))),
    "arc-support": (["name"], lambda ctx, args, s: (
        {"supports": sorted(sorted(block) for block in ctx.arc_support(s))}, True)),
}


def cmd_element(args):
    """Any command of ELEMENT_COMMANDS, on the elements named in --input."""
    operands, fn = ELEMENT_COMMANDS[args.command]
    with open(args.input, "r", encoding="utf-8") as fh:
        ctx, elements = parse_session(fh.read())
    fields, truth = fn(ctx, args, *[_get(elements, getattr(args, n)) for n in operands])
    return dict(fields, command=args.command, ok=True), truth


# -- complex commands ----------------------------------------------------------


def cmd_complex(args):
    if args.kind == "linear-matching":
        k = cx.d_matching_linear(args.d, args.m)
    else:
        k = cx.d_matching_cyclic(args.d, args.m)
    if args.z:
        tokens = [x for x in map(str.strip, args.z.split(",")) if x]
        z = int_prefix(tokens)
        if len(z) < len(tokens):
            raise CliError("--z takes comma separated integers, not %r" % tokens[len(z)])
        k = cx.restrict_initial(k, z)
    return {"command": "complex", "ok": True, "complex": k.to_json_dict()}, True


def cmd_homology(args):
    rep = cx.reduced_homology(_read_complex(args))
    return {"command": "homology", "ok": True,
            "reduced_homology": rep.to_json_dict()["reduced_homology"],
            "euler_characteristic": rep.euler_characteristic()}, True


def cmd_wcm(args):
    k = _read_complex(args)
    violation = cx.wcm_violation(k, args.n)
    res = violation is None
    return {"command": "wcm", "ok": True, "wcm": res, "dimension": args.n,
            "violation": violation}, res


def cmd_join_check(args):
    if args.duplicated:
        k = _read_complex(args)
        cover, vmap = cx.duplicated_cover(k)
        res = cx.complete_join_check(cover, k, vmap)
    else:
        data = _read_json(args)
        for key in ("source", "target"):
            if key not in data:
                raise CliError('the input JSON has no "%s" complex' % key)
        source = cx.SimplicialComplex.from_json_dict(data["source"])
        target = cx.SimplicialComplex.from_json_dict(data["target"])
        res = cx.complete_join_check(source, target, _vertex_map(data, source))
    return {"command": "join-check", "ok": True, "complete_join": res}, res


def cmd_morse(args):
    if not (args.filter or args.heights):
        raise CliError("morse needs --filter start or --heights")
    k = _read_complex(args)
    if args.filter == "start":
        heights = {v: v + 1 for v in k.vertex_set()}
    else:
        heights = _heights(args.heights, k)
    h = cx.HeightFunction(heights)
    levels = [{"t": t, "k": kk, "holds": holds} for t, kk, holds in
              cx.morse_sweep(k, h, [args.t] if args.t is not None else h.levels(k), args.k)]
    all_hold = all(level["holds"] for level in levels)
    return {"command": "morse", "ok": True, "levels": levels,
            "morse_ok": all_hold}, all_hold


# -- plumbing -------------------------------------------------------------------


def _write_dot(path, name, s: Spraige):
    """Each forest from its encoding: "(" opens a caret, "." is a leaf and
    ")" closes the innermost open caret; nodes are numbered in that order."""
    lines = ["digraph element {", '  label="%s";' % name]
    for tag, forest in (("minus", s.minus), ("plus", s.plus)):
        open_carets = []
        nodes = 0
        for ch in str(forest):
            if ch == ")":
                open_carets.pop()
            elif ch in "(.":
                nid = "%s%d" % (tag, nodes)
                nodes += 1
                lines.append('  %s [shape=%s, label=""];'
                             % (nid, "circle" if ch == "(" else "point"))
                if open_carets:
                    lines.append("  %s -> %s;" % (open_carets[-1], nid))
                if ch == "(":
                    open_carets.append(nid)
    lines.append('  braid [shape=box, label="braid: %s"];' % s.lb.braid)
    lines.append('  labels [shape=box, label="labels: %s"];'
                 % "; ".join(str(l) for l in s.lb.labels))
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(out, fh, plain):
    """One JSON object, or with --plain sorted key<TAB>value lines."""
    if not plain:
        fh.write(json.dumps(out, sort_keys=True) + "\n")
        return
    for key in sorted(out):
        if key == "command":
            continue
        val = out[key]
        if isinstance(val, (dict, list)):
            val = json.dumps(val, sort_keys=True)
        fh.write("%s\t%s\n" % (key, val))


def _int_flag(text):
    """An integer flag, in the one spelling of an integer in session text."""
    value = int_prefix([text.strip()])
    if not value:
        raise argparse.ArgumentTypeError("expected an integer, not %r" % text)
    return value[0]


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error raises CliError, so it is reported like any other
    failure; --help still prints help and exits 0."""

    def error(self, message):
        raise CliError("%s: %s" % (self.prog, message))


def build_parser():
    ap = _ArgumentParser(prog="bht", description=__doc__,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when a predicate answer is false")
    ap.add_argument("--plain", action="store_true", help="line output instead of JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    elem = {}
    for name, (operands, _) in ELEMENT_COMMANDS.items():
        p = elem[name] = sub.add_parser(name)
        p.add_argument("--input", required=True, help="DSL file with header and elements")
        for n in operands:
            p.add_argument(n)
        p.set_defaults(fn=cmd_element)
    elem["reduce"].add_argument("--dot", help="also write a DOT sketch of the reduced element")
    elem["member"].add_argument("--sub", choices=["F", "T"], required=True)
    elem["embed"].add_argument("--label", required=True, help="label word, e.g. 'g1 g2^-1' or 'e'")
    elem["embed"].add_argument("--prime", action="store_true", help="first-strand embedding")

    p = sub.add_parser("complex")
    p.add_argument("kind", choices=["linear-matching", "cyclic-matching"])
    p.add_argument("--d", type=_int_flag, required=True)
    p.add_argument("--m", type=_int_flag, required=True)
    p.add_argument("--z", help="comma separated initial positions to keep")
    p.set_defaults(fn=cmd_complex)

    p = sub.add_parser("homology")
    p.add_argument("--file", help="complex JSON (default: stdin)")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("wcm")
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--file")
    p.set_defaults(fn=cmd_wcm)

    p = sub.add_parser("join-check")
    p.add_argument("--file", help="JSON with source/target/vertex_map, or a complex with --duplicated")
    p.add_argument("--duplicated", action="store_true",
                   help="check the duplicated-vertex cover of the input complex")
    p.set_defaults(fn=cmd_join_check)

    p = sub.add_parser("morse")
    p.add_argument("--file")
    p.add_argument("--filter", choices=["start"],
                   help="height = initial position (for matching complexes)")
    p.add_argument("--heights", help="JSON list of integer heights, one per vertex")
    p.add_argument("--t", type=_int_flag, help="single level to check (default: all)")
    p.add_argument("--k", type=_int_flag, help="connectivity degree (default: derived from links)")
    p.set_defaults(fn=cmd_morse)
    return ap


# Built by the first call of main; parse_args keeps no state between calls,
# so one parser serves every call in the process.
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    # filled in as parsing goes, so a usage error still knows the command and --plain
    args = argparse.Namespace(command="", plain=False)
    try:
        _parser.parse_args(argv, args)
        out, truth = args.fn(args)
    # DslError and JSONDecodeError are ValueErrors; too deep an input ends in RecursionError
    except (CliError, OSError, ValueError, KeyError, RecursionError) as exc:
        _emit({"command": args.command, "ok": False, "error": str(exc)}, sys.stderr, args.plain)
        return 2
    _emit(out, sys.stdout, args.plain)
    return 0 if (truth or not args.strict) else 1


if __name__ == "__main__":
    sys.exit(main())
