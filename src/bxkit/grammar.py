"""Textual forms for values, paths, updates, edits, and traces.

The grammar is fixed so that tests and CLI transcripts are byte
reproducible: integers are decimal with no leading zero or minus zero,
strings are double-quoted with only backslash and quote escapes, pairs
are ``(v, v)``, sequences ``[v, v]``, records ``{k = 2, u = 7}`` with
names sorted ascending.  Paths concatenate ``/left``, ``/right``, ``/3``
and ``/.name`` steps; the empty path renders as the empty string.  Each
edit, update and trace constructor states its form once, in the table
``_FORMS``: a head, brackets, and a label and kind per field.  The
renderer and the parser both read that table.  Whitespace between tokens
is insignificant on input; rendering then parsing is the identity, and
a repeated field or link or a constructor's refusal is a parse error.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from operator import itemgetter

from .values import (
    AtomInt,
    AtomStr,
    Pair,
    Path,
    Rec,
    SamenessRelation,
    Seq,
    Side,
    Value,
)
from .scheme import (
    BothStates,
    ComplementTrace,
    Delete,
    DeltaTrace,
    DeltaUpdate,
    EditOp,
    Edits,
    Insert,
    NoTrace,
    Opaque,
    PostState,
    ReplaceAt,
    ReplaceRoot,
    SchemeError,
    SetField,
    StateEdits,
    StateTrace,
    Traceability,
    Update,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(Exception):
    def __init__(self, position: int, expected: str):
        super().__init__(f"parse error at position {position}: expected {expected}")
        self.position = position
        self.expected = expected


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_value(value: Value) -> str:
    if isinstance(value, AtomInt):
        return str(value.value)
    if isinstance(value, AtomStr):
        return f'"{_escape(value.value)}"'
    if isinstance(value, Pair):
        return f"({render_value(value.left)}, {render_value(value.right)})"
    if isinstance(value, Seq):
        return "[" + ", ".join(render_value(el) for el in value.elements) + "]"
    if isinstance(value, Rec):
        parts = []
        for name, sub in value.fields:
            if not _IDENT.fullmatch(name):
                raise ValueError(f"record field name {name!r} is not serializable")
            parts.append(f"{name} = {render_value(sub)}")
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"not a value: {value!r}")


def render_path(path: Path) -> str:
    parts = []
    for step in path:
        if type(step) is Side:
            parts.append(f"/{step.value}")
        elif type(step) is int:
            parts.append(f"/{step}")
        elif isinstance(step, str):
            if not _IDENT.fullmatch(step):
                raise ValueError(f"field step {step!r} is not serializable")
            parts.append(f"/.{step}")
        else:
            raise TypeError(f"not a step: {step!r}")
    return "".join(parts)


def render_links(rel: SamenessRelation) -> str:
    parts = [
        f"({render_path(src)}, {render_path(tgt)})" for src, tgt in rel.sorted_links()
    ]
    return "[" + ", ".join(parts) + "]"


# Each edit, update and trace constructor's textual form: its head, its
# brackets ("" for none) and one (label, kind) per dataclass field in
# declaration order.  An unlabeled field is written without ``label=``.
# A kind is index, name, tag, value, links or ops (a list of edits).
# Within a family, the parser offers the heads in this order.
_FORMS = {
    Insert: ("ins", "()", (("", "index"), ("", "value"))),
    Delete: ("del", "()", (("", "index"), ("", "value"))),
    ReplaceAt: ("rep", "()", (("", "index"), ("", "value"), ("", "value"))),
    SetField: ("set", "()", (("", "name"), ("", "value"), ("", "value"))),
    ReplaceRoot: ("root", "()", (("", "value"), ("", "value"))),
    PostState: ("state", "{}", (("post", "value"),)),
    BothStates: ("states", "{}", (("pre", "value"), ("post", "value"))),
    DeltaUpdate: ("delta", "{}", (("pre", "value"), ("post", "value"), ("same", "links"))),
    Edits: ("edits", "", (("", "ops"),)),
    StateEdits: ("stateedits", "{}", (("pre", "value"), ("edits", "ops"))),
    Opaque: ("opaque", "{}", (("tag", "tag"),)),
    NoTrace: ("none", "", ()),
    StateTrace: ("state", "{}", (("", "value"),)),
    ComplementTrace: ("compl", "{}", (("", "value"),)),
    DeltaTrace: ("delta", "{}", (("src", "value"), ("tgt", "value"), ("same", "links"))),
}


def _render_field(kind: str, value) -> str:
    if kind == "value":
        return render_value(value)
    if kind == "links":
        return render_links(value)
    if kind == "ops":
        return "[" + ", ".join(render_op(op) for op in value) + "]"
    if kind == "tag":
        return f'"{_escape(value)}"'
    if kind == "name" and not _IDENT.fullmatch(value):
        raise ValueError(f"field name {value!r} is not serializable")
    return str(value)


def _render_form(obj, family: type, what: str) -> str:
    form = _FORMS.get(type(obj))
    if form is None or not isinstance(obj, family):
        raise TypeError(f"not {what}: {obj!r}")
    head, brackets, slots = form
    parts = []
    for attribute, (label, kind) in zip(fields(obj), slots, strict=True):
        text = _render_field(kind, getattr(obj, attribute.name))
        parts.append(f"{label}={text}" if label else text)
    return head + brackets[:1] + ", ".join(parts) + brackets[1:]


def render_op(op: EditOp) -> str:
    return _render_form(op, EditOp, "an edit op")


def render_update(u: Update) -> str:
    return _render_form(u, Update, "an update")


def render_trace(t: Traceability) -> str:
    return _render_form(t, Traceability, "a traceability")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_PUNCT = set("()[]{},=/.")


@dataclass(frozen=True)
class _Token:
    kind: str   # one of INT, STRING, IDENT, or a punctuation character, or EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c == '"':
            start = i
            i += 1
            chunks: list[str] = []
            while True:
                if i >= n:
                    raise ParseError(start, "closing quote")
                c = text[i]
                if c == '"':
                    i += 1
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in ('"', "\\"):
                        raise ParseError(i, "escape sequence \\\" or \\\\")
                    chunks.append(text[i + 1])
                    i += 2
                else:
                    chunks.append(c)
                    i += 1
            tokens.append(_Token("STRING", "".join(chunks), start))
            continue
        if c == "-" or "0" <= c <= "9":  # not str.isdigit, which also takes "²"
            start = i
            if c == "-":
                i += 1
                if i >= n or not "0" <= text[i] <= "9":
                    raise ParseError(start, "digit after minus sign")
            while i < n and "0" <= text[i] <= "9":
                i += 1
            if text[start:i] != str(int(text[start:i])):  # a leading zero or minus zero
                raise ParseError(start, f"canonical integer {int(text[start:i])}")
            tokens.append(_Token("INT", text[start:i], start))
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), i))
            i = m.end()
            continue
        raise ParseError(i, "a token")
    tokens.append(_Token("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, expected: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(token.pos, expected or kind)
        return self.advance()

    def keyword(self, *names: str) -> str:
        token = self.expect("IDENT", " or ".join(names))
        if token.text not in names:
            raise ParseError(token.pos, " or ".join(names))
        return token.text

    def done(self) -> None:
        token = self.peek()
        if token.kind != "EOF":
            raise ParseError(token.pos, "end of input")

    # -- values ------------------------------------------------------------

    def value(self) -> Value:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return AtomInt(int(token.text))
        if token.kind == "STRING":
            self.advance()
            return AtomStr(token.text)
        if token.kind == "(":
            self.advance()
            left = self.value()
            self.expect(",")
            right = self.value()
            self.expect(")")
            return Pair(left, right)
        if token.kind == "[":
            self.advance()
            return Seq(self.listed("]", self.value))
        if token.kind == "{":
            self.advance()
            return Rec(self.listed("}", self.binding, "a field name not given before", itemgetter(0)))
        raise ParseError(token.pos, "a value")

    def binding(self) -> tuple[str, Value]:
        name = self.expect("IDENT", "field name").text
        self.expect("=")
        return name, self.value()

    def listed(self, close: str, read, distinct: str = "", key=None) -> list:
        """Items read by ``read``, separated by commas, up to and with ``close``.
        Where ``distinct`` is given, an item whose ``key`` (by default the item)
        repeats an earlier one's is refused with ``distinct`` as the expectation."""
        items, keys = [], set()
        more = self.peek().kind != close
        while more:
            start = self.peek().pos
            items.append(read())
            if distinct:
                keys.add(items[-1] if key is None else key(items[-1]))
                if len(keys) < len(items):
                    raise ParseError(start, distinct)
            more = self.peek().kind == ","
            if more:
                self.advance()
        self.expect(close)
        return items

    # -- paths and link sets -------------------------------------------------

    def path(self) -> Path:
        steps = []
        while self.peek().kind == "/":
            self.advance()
            token = self.advance()
            if token.kind == "IDENT" and token.text in ("left", "right"):
                steps.append(Side(token.text))
            elif token.kind == "INT":
                index = int(token.text)
                if index < 0:
                    raise ParseError(token.pos, "a non-negative index")
                steps.append(index)
            elif token.kind == ".":
                steps.append(self.expect("IDENT", "field name").text)
            else:
                raise ParseError(token.pos, "a path step")
        return tuple(steps)

    def link(self) -> tuple[Path, Path]:
        self.expect("(")
        src = self.path()
        self.expect(",")
        tgt = self.path()
        self.expect(")")
        return src, tgt

    # -- edits, updates, traces ----------------------------------------------

    def field(self, kind: str):
        if kind == "value":
            return self.value()
        if kind == "links":
            self.expect("[")
            return SamenessRelation(self.listed("]", self.link, "a link not given before"))
        if kind == "ops":
            self.expect("[")
            return self.listed("]", lambda: self.form(EditOp))
        if kind == "tag":
            return self.expect("STRING", "a tag string").text
        if kind == "name":
            return self.expect("IDENT", "field name").text
        return int(self.expect("INT", "an index").text)

    def form(self, family: type):
        """Read one member of ``family`` as ``_FORMS`` states it, or refuse it at its head."""
        forms = {
            form[0]: (cls, form) for cls, form in _FORMS.items() if issubclass(cls, family)
        }
        head = self.peek()
        cls, (_head, brackets, slots) = forms[self.keyword(*forms)]
        try:
            if brackets:
                self.expect(brackets[0])
            args = []
            for position, (label, kind) in enumerate(slots):
                if position:
                    self.expect(",")
                if label:
                    self.keyword(label)
                    self.expect("=")
                args.append(self.field(kind))
            if brackets:
                self.expect(brackets[1])
            return cls(*args)
        except (ValueError, SchemeError) as refusal:
            raise ParseError(head.pos, f"{head.text} that its constructor accepts: {refusal}") from refusal


def _parse(text: str, read):
    parser = _Parser(text)
    result = read(parser)
    parser.done()
    return result


def parse_value(text: str) -> Value:
    return _parse(text, _Parser.value)


def parse_path(text: str) -> Path:
    return _parse(text, _Parser.path)


def parse_update(text: str) -> Update:
    return _parse(text, lambda parser: parser.form(Update))


def parse_trace(text: str) -> Traceability:
    return _parse(text, lambda parser: parser.form(Traceability))
