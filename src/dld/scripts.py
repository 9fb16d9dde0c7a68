"""Thread script files.

One declaration per line, `#` starts a comment:

    decl   := NAME "=" proc
    proc   := "S" | "D" | "tau" "." proc | NAME
            | action
            | action ";" proc            (sequencing: a ? p : p)
            | action "?" proc ":" proc   (postconditional composition)
    action := [IDENT "."] IDENT [ "(" names ")" ]

A declaration named `main` selects the entry: when its body is a bare
name the entry is that declaration, otherwise the body itself is run.
Actions without a focus prefix go to the `dld` service; a trailing bare
action is short for `action ; S`.  A chain of `;` and `tau.` may be of
any length; `?:` may nest as deep as the Python stack allows.
"""

from __future__ import annotations

from .errors import ParseError
from .parsing import _Cursor, parse_action_at, tokenize
from .threads import DEADLOCK, DEFAULT_FOCUS, STOP, TAU, Call, Post, Ref, ThreadSpec, prefix
from .universe import Universe

_KEYWORDS = {"S", "D", "tau"}


def _parse_call(cur: _Cursor, universe: Universe) -> Call:
    focus = DEFAULT_FOCUS
    if cur.peek(0)[0] == "ident" and cur.peek(1)[1] == ".":
        focus = cur.next()[1]
        cur.expect(".")
    if focus == DEFAULT_FOCUS:
        return Call(focus, parse_action_at(cur, universe))
    return Call(focus, _raw_method(cur))


def _raw_method(cur: _Cursor) -> str:
    kind, name, pos = cur.next()
    if kind != "ident":
        raise ParseError(f"expected a method name, got {name!r}", pos)
    if cur.peek()[1] != "(":
        return name
    cur.next()
    parts = []
    while cur.peek()[1] != ")":
        parts.append(cur.next()[1])
        if cur.peek()[1] == ",":
            cur.next()
    cur.expect(")")
    return f"{name}({','.join(parts)})"


def _parse_proc(cur: _Cursor, universe: Universe, names):
    """A chain of `tau.` prefixes and `;`-sequenced calls is read in a
    loop and folded from the right, so it may be of any length; only
    `?:` nesting recurses."""
    chain = []
    body = None
    while body is None:
        kind, value, _ = cur.peek()
        if value in ("S", "D"):
            cur.next()
            body = STOP if value == "S" else DEADLOCK
        elif value == "tau":
            cur.next()
            cur.expect(".")
            chain.append(TAU)
        elif kind == "ident" and value in names and cur.peek(1)[1] not in ("(", ".", ";", "?"):
            cur.next()
            body = Ref(value)
        else:
            call = _parse_call(cur, universe)
            nxt = cur.peek()[1]
            if nxt == "?":
                cur.next()
                then = _parse_proc(cur, universe, names)
                cur.expect(":")
                body = Post(call, then, _parse_proc(cur, universe, names))
            else:
                chain.append(call)
                if nxt == ";":
                    cur.next()
                else:
                    body = STOP
    for action in reversed(chain):
        body = prefix(action, body)
    return body


def parse_spec(text: str, universe: Universe) -> ThreadSpec:
    decls = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected NAME = proc", 0)
        name, body = line.split("=", 1)
        decls.append((name.strip(), body.strip(), lineno))
    if not decls:
        raise ParseError("empty thread script", 0)
    names = {name for name, _, _ in decls}
    equations = {}
    main_ref = None
    for name, body, lineno in decls:
        cur = _Cursor(tokenize(body), len(body))
        if name == "main" and cur.peek()[0] == "ident" \
                and cur.peek()[1] in names and cur.peek(1)[0] == "eof":
            main_ref = cur.next()[1]
            continue
        try:
            thread = _parse_proc(cur, universe, names)
        except RecursionError:
            raise ParseError(f"line {lineno}: process nested too deeply",
                             cur.peek()[2]) from None
        if not cur.at_end():
            raise ParseError(f"line {lineno}: trailing input "
                             f"{cur.peek()[1]!r}", cur.peek()[2])
        equations[name] = thread
    if main_ref is None:
        if "main" not in equations:
            raise ParseError("script has no main declaration", 0)
        main_ref = "main"
    return ThreadSpec(equations, main_ref)
