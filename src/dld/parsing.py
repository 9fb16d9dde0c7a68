"""Text formats: linkages, linkage terms and action names.

Linkage grammar (whitespace between tokens is ignored):

    linkage := "0" | item ("," item)*
    item    := SPOT ":" ATOM
             | ATOM "." FIELD ":" ATOM
             | ATOM "." FIELD ":" "?"
             | ATOM "=" NAT
    ATOM    := "#" NAT | IDENT

Term grammar, "+" binding tighter than "<|", both left-associative:

    term := ovr
    ovr  := cmb ("<|" cmb)*
    cmb  := prim ("+" prim)*
    prim := "(" term ")" | "{" linkage "}" | linkage

Action syntax: lowercase name with a parenthesised name list, e.g.
getatobj(r), setfield(s,f,t); fgc and rgc take no parameter list.
"""

from __future__ import annotations

import re

from .actions import Act, SIGNATURES
from .errors import ParseError
from .linkage import (DataLinkage, TCombine, TEmpty, TLit, TOverride, flink,
                      pflink, slink, valass)
from .universe import Universe

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<atom>\#\d+)
  | (?P<nat>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ovr><\|)
  | (?P<punct>[(){},:.=+?;])
""", re.VERBOSE)


def tokenize(text: str):
    """Yield (kind, value, offset) triples; kinds: atom, nat, ident, op."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind in ("ovr", "punct"):
                kind = "op"
            out.append((kind, value, pos))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.i = 0
        self.length = length

    def peek(self, ahead=0):
        j = self.i + ahead
        if j < len(self.tokens):
            return self.tokens[j]
        return ("eof", "", self.length)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, got, pos = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}, got {got!r}", pos)

    def at_end(self):
        return self.i >= len(self.tokens)


def _parse_atom(cur: _Cursor, universe: Universe) -> str:
    kind, value, pos = cur.next()
    if kind not in ("atom", "ident"):
        raise ParseError(f"expected an atom, got {value!r}", pos)
    return universe.check_atom(value)


def _parse_item(cur: _Cursor, universe: Universe):
    kind, value, pos = cur.next()
    if kind not in ("atom", "ident"):
        raise ParseError(f"expected a link item, got {value!r}", pos)
    _, sep, seppos = cur.next()
    if sep == ":":
        if kind == "atom":
            raise ParseError(f"{value!r} cannot name a spot", pos)
        spot = universe.check_spot(value)
        return slink(spot, _parse_atom(cur, universe))
    if sep == ".":
        atom = universe.check_atom(value)
        fkind, fname, fpos = cur.next()
        if fkind != "ident":
            raise ParseError(f"expected a field name, got {fname!r}", fpos)
        field = universe.check_field(fname)
        cur.expect(":")
        if cur.peek()[1] == "?":
            cur.next()
            return pflink(atom, field)
        return flink(atom, field, _parse_atom(cur, universe))
    if sep == "=":
        atom = universe.check_atom(value)
        nkind, nval, npos = cur.next()
        if nkind != "nat":
            raise ParseError(f"expected a value, got {nval!r}", npos)
        return valass(atom, int(nval) % universe.modulus)
    raise ParseError(f"expected ':', '.' or '=', got {sep!r}", seppos)


def _parse_linkage_items(cur: _Cursor, universe: Universe):
    if cur.peek()[1] == "0":
        cur.next()
        return []
    items = [_parse_item(cur, universe)]
    while cur.peek()[1] == ",":
        cur.next()
        items.append(_parse_item(cur, universe))
    return items


def parse_linkage(text: str, universe: Universe) -> DataLinkage:
    cur = _Cursor(tokenize(text), len(text))
    links = _parse_linkage_items(cur, universe)
    if not cur.at_end():
        raise ParseError(f"trailing input {cur.peek()[1]!r}", cur.peek()[2])
    return DataLinkage(universe, links)


def _parse_prim(cur: _Cursor, universe: Universe):
    kind, value, pos = cur.peek()
    if value == "(":
        cur.next()
        term = _parse_term(cur, universe)
        cur.expect(")")
        return term
    if value == "{":
        cur.next()
        links = _parse_linkage_items(cur, universe)
        cur.expect("}")
        return TLit(DataLinkage(universe, links))
    if kind == "nat" and value == "0":
        cur.next()
        return TEmpty()
    links = _parse_linkage_items(cur, universe)
    return TLit(DataLinkage(universe, links))


def _parse_combine(cur: _Cursor, universe: Universe):
    term = _parse_prim(cur, universe)
    while cur.peek()[1] == "+":
        cur.next()
        term = TCombine(term, _parse_prim(cur, universe))
    return term


def _parse_term(cur: _Cursor, universe: Universe):
    term = _parse_combine(cur, universe)
    while cur.peek()[1] == "<|":
        cur.next()
        term = TOverride(term, _parse_combine(cur, universe))
    return term


def parse_term(text: str, universe: Universe):
    cur = _Cursor(tokenize(text), len(text))
    try:
        term = _parse_term(cur, universe)
    except RecursionError:
        raise ParseError("term nested too deeply",
                         cur.peek()[2]) from None
    if not cur.at_end():
        raise ParseError(f"trailing input {cur.peek()[1]!r}", cur.peek()[2])
    return term


def parse_action(text: str, universe: Universe) -> Act:
    cur = _Cursor(tokenize(text), len(text))
    act = parse_action_at(cur, universe)
    if not cur.at_end():
        raise ParseError(f"trailing input {cur.peek()[1]!r}", cur.peek()[2])
    return act


def parse_action_at(cur: _Cursor, universe: Universe) -> Act:
    kind, name, pos = cur.next()
    if kind != "ident" or name not in SIGNATURES:
        raise ParseError(f"unknown action {name!r}", pos)
    sig = SIGNATURES[name]
    args = []
    if cur.peek()[1] == "(":
        cur.next()
        if cur.peek()[1] != ")":
            while True:
                akind, aval, apos = cur.next()
                if akind not in ("ident", "atom"):
                    raise ParseError(f"expected a name, got {aval!r}", apos)
                args.append(aval)
                if cur.peek()[1] != ",":
                    break
                cur.next()
        cur.expect(")")
    if len(args) != len(sig):
        raise ParseError(
            f"{name} takes {len(sig)} parameter(s), got {len(args)}", pos)
    checked = []
    for arg, want in zip(args, sig):
        if want == "spot":
            checked.append(universe.check_spot(arg))
        else:
            checked.append(universe.check_field(arg))
    return Act(name, tuple(checked))


def parse_action_list(text: str, universe: Universe) -> list[Act]:
    """Semicolon-separated action sequence, e.g. "getatobj(r); fgc"."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(parse_action(chunk, universe))
    return out
