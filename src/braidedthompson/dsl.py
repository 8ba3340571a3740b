"""Text format for group contexts and elements.

    group { d:2, r:1, flavor:V, gens:[1 1, 1 -1] }
    elem a {
      minus: (..)|.
      braid: 1
      labels: e; g1; g1^-1
      plus: .|(..)
    }

Whitespace is free everywhere; a braid word is a run of signed integers,
a label word is "e" or a run of g<i>[^-1] tokens separated by
whitespace, label words are separated by ";".  `gens:[]` declares the
trivial label group.  The F and T flavors require pure generators and
reject the header otherwise.
"""

from __future__ import annotations

import re

from .braids import BraidWord, is_pure
from .diagrams import GroupContext, Spraige
from .forests import decode as decode_forest, encode as encode_forest
from .labeled import Label, LabeledBraid, LabelGroupSpec

# A punctuation character, or a run of anything but whitespace and
# punctuation.  `\s` matches exactly the characters `str.isspace` accepts.
_TOKEN = re.compile(r"[{}\[\],;:]|[^\s{}\[\],;:]+")


class DslError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    # Only "\n" ends a line; columns count characters from 1.
    return [_Token(m.group(), line, m.start() + 1)
            for line, row in enumerate(text.split("\n"), 1)
            for m in _TOKEN.finditer(row)]


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def error(self, message, token=None):
        if token is None:
            token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
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
        try:
            return int(tok.text)
        except ValueError:
            self.error("expected %s, found %r" % (what, tok.text), tok)

    def collect_ints(self):
        out = []
        while self.pos < len(self.tokens):
            try:
                out.append(int(self.tokens[self.pos].text))
            except ValueError:
                break
            self.pos += 1
        return out

    # -- grammar -----------------------------------------------------------

    def parse_header(self) -> GroupContext:
        self.expect("group", "{", "d", ":")
        d = self.int_token("an arity")
        self.expect(",", "r", ":")
        r = self.int_token("a root count")
        self.expect(",", "flavor", ":")
        tok = self.next()
        if tok.text not in ("V", "F", "T"):
            self.error("flavor must be V, F or T", tok)
        flavor = tok.text
        self.expect(",", "gens", ":", "[")
        gens = []
        if not self.at("]"):
            gens.append(self.check(self.peek(), BraidWord, d, self.collect_ints()))
            while self.at(","):
                self.next()
                gens.append(self.check(self.peek(), BraidWord, d, self.collect_ints()))
        self.expect("]", "}")
        require_pure = flavor in ("F", "T")
        for g in gens:
            if require_pure and not is_pure(g):
                self.error("flavor %s requires pure generators; %r is not pure"
                           % (flavor, str(g)))
        spec = self.check(None, LabelGroupSpec, d, gens, require_pure=require_pure)
        return self.check(None, GroupContext, d, r, spec, flavor)

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
        return name_tok.text, ctx.validate(Spraige(minus, LabeledBraid(braid, labels), plus))

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


def parse_session(text):
    """Parse a header plus any number of elements.
    Returns (context, ordered dict of name -> Spraige)."""
    p = _Parser(text)
    ctx = p.parse_header()
    elements = {}
    while p.peek() is not None:
        name, s = p.parse_element(ctx)
        if name in elements:
            p.error("duplicate element name %r" % name)
        elements[name] = s
    return ctx, elements


def parse_element_text(ctx: GroupContext, text: str) -> Spraige:
    p = _Parser(text)
    _, s = p.parse_element(ctx)
    if p.peek() is not None:
        p.error("trailing input after element")
    return s


def format_header(ctx: GroupContext) -> str:
    gens = ", ".join(str(g) for g in ctx.spec.generators)
    return "group { d:%d, r:%d, flavor:%s, gens:[%s] }" % (ctx.d, ctx.r, ctx.flavor, gens)


def format_element(name: str, s: Spraige) -> str:
    labels = "; ".join(str(l) for l in s.lb.labels)
    return ("elem %s {\n  minus: %s\n  braid: %s\n  labels: %s\n  plus: %s\n}"
            % (name, encode_forest(s.minus), s.lb.braid, labels, encode_forest(s.plus)))


def format_session(ctx: GroupContext, elements) -> str:
    blocks = [format_header(ctx)]
    for name, s in elements.items():
        blocks.append(format_element(name, s))
    return "\n\n".join(blocks) + "\n"
