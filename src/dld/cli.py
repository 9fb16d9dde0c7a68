"""Command-line surface.

    dld normalize  --config F "TERM"        canonical form of a linkage term
    dld eval       --config F --state F --actions "a1; a2"
    dld run        --config F --spec F --init F [--service V] [--max-steps N]
    dld check SUITE [bounds]                verification suites

The universe is always explicit, from a key=value config file and/or
flags; it is never inferred from input states.  Config keys: spots=,
fields=, atoms= (comma-separated names, or a count expanded to #0..),
modulus=, max_steps=, service=, output=; a line whose first non-blank
character is `#` is a comment.

run exits 0 on termination, 2 on deadlock, 3 on budget exhaustion;
check exits 1 when any case fails.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import checks
from .checks import DEFAULT_BOUNDS, SUITES
from .errors import DldError
from .linkage import normalize
from .parsing import parse_action_list, parse_linkage, parse_term
from .reclaim import perform_dldr
from .scripts import parse_spec
from .threads import DldService, run
from .universe import Universe, generated_names, small_universe


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DldError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DldError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None


def _integer(value, label: str, minimum: int | None = None) -> int:
    """An integer setting from a config file or a flag."""
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise DldError(f"{label} must be an integer, got {value!r}") from None
    if minimum is not None and n < minimum:
        raise DldError(f"{label} must be at least {minimum}, got {n}")
    return n


def read_config(path: str | None) -> dict:
    config: dict = {}
    if path is None:
        return config
    for lineno, raw in enumerate(_read_text(path).split("\n"), 1):
        # a comment is a whole line; `#` inside a value is an atom name
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DldError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def build_universe(config: dict, args) -> Universe:
    def pick(key, flag):
        return flag if flag is not None else config.get(key)

    spots = pick("spots", args.spots)
    fields = pick("fields", args.fields)
    atoms = pick("atoms", args.atoms)
    modulus = pick("modulus", args.modulus)
    if spots is None or fields is None or atoms is None or modulus is None:
        raise DldError("universe not fully declared: need spots, fields, "
                       "atoms and modulus (config file or flags)")

    def names(value, kind):
        value = value.strip()
        if value.isdecimal():
            return generated_names(kind, int(value))
        return tuple(x.strip() for x in value.split(",") if x.strip())

    return Universe(
        spots=names(spots, "spots"),
        fields=names(fields, "fields"),
        atoms=names(atoms, "atoms"),
        modulus=_integer(modulus, "modulus"),
    )


def _add_universe_flags(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--spots", help="spot names or a count")
    sub.add_argument("--fields", help="field names or a count")
    sub.add_argument("--atoms", help="atom names or a count")
    sub.add_argument("--modulus", help="prime value modulus")


def cmd_normalize(args) -> int:
    u = build_universe(read_config(args.config), args)
    term = parse_term(args.term, u)
    print(normalize(term, u).canonical_text())
    return 0


def cmd_eval(args) -> int:
    u = build_universe(read_config(args.config), args)
    state = parse_linkage(_read_text(args.state).strip(), u)
    for act in parse_action_list(args.actions, u):
        state, reply = perform_dldr(act, state)
        print(f"{act.text()} {'T' if reply else 'F'} {state.canonical_text()}")
    return 0


_EXIT_CODES = {"Stop": 0, "Deadlock": 2, "BudgetExhausted": 3}
_OUTPUTS = ("trace", "final", "machine")


def cmd_run(args) -> int:
    config = read_config(args.config)
    u = build_universe(config, args)
    variant = (args.service if args.service is not None
               else config.get("service", "plain"))
    if args.max_steps is not None:
        budget = _integer(args.max_steps, "--max-steps", 0)
    else:
        budget = _integer(config.get("max_steps", 1000), "max_steps", 0)
    output = (args.output if args.output is not None
              else config.get("output", "trace"))
    if output not in _OUTPUTS:
        raise DldError(f"unknown output {output!r}; "
                       f"choose one of {', '.join(_OUTPUTS)}")
    spec = parse_spec(_read_text(args.spec), u)
    initial = parse_linkage(_read_text(args.init).strip(), u)
    execution = run(spec, {"dld": DldService(initial, variant)}, budget)
    if output == "final":
        for _ in execution:
            pass
        print(execution.render())
    else:
        if output == "trace":
            print(f"init {execution.render()}")
        for action, reply in execution:
            print(f"{action} {reply} {execution.render()}")
        print(execution.terminal.lower())
    return _EXIT_CODES[execution.terminal]


_BOUNDS = ("spots", "fields", "atoms", "modulus")


def cmd_check(args) -> int:
    # the keywords of the suite's own function: a traced benchmark run
    # swaps the SUITES entries for wrappers taking (*args, **kwargs)
    suite = getattr(checks, "suite_" + args.suite.replace("-", "_"))
    takes = set(inspect.signature(suite).parameters)
    if "u" in takes:
        takes.update(_BOUNDS)
    given = {"cases": args.cases, "seed": args.seed,
             "include_nontight": args.include_nontight or None}
    given.update((name, getattr(args, name)) for name in _BOUNDS)
    given = {key: value for key, value in given.items() if value is not None}
    for key in given:
        if key not in takes:
            flag = "--" + key.replace("_", "-")
            raise DldError(f"{args.suite} does not take {flag}")
    kwargs = {key: value for key, value in given.items()
              if key not in _BOUNDS}
    if "cases" in kwargs:
        kwargs["cases"] = _integer(kwargs["cases"], "--cases", 0)
    if "seed" in kwargs:
        kwargs["seed"] = _integer(kwargs["seed"], "--seed")
    if given.keys() & set(_BOUNDS):
        spots, fields, atoms, modulus = (
            given.get(name, bound)
            for name, bound in zip(_BOUNDS, DEFAULT_BOUNDS[args.suite]))
        kwargs["u"] = small_universe(_integer(spots, "--spots", 1),
                                     _integer(fields, "--fields", 1),
                                     _integer(atoms, "--atoms", 1),
                                     _integer(modulus, "--modulus"))
    summary = SUITES[args.suite](**kwargs)
    for detail in summary.failures:
        print(f"FAIL {detail}")
    print(summary.line())
    return 0 if summary.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dld", description="data linkage dynamics toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("normalize", help="canonical form of a linkage term")
    _add_universe_flags(p)
    p.add_argument("term")
    p.set_defaults(func=cmd_normalize)

    p = subs.add_parser("eval", help="run actions against a state")
    _add_universe_flags(p)
    p.add_argument("--state", required=True, help="file with the initial state")
    p.add_argument("--actions", required=True,
                   help="semicolon-separated action list")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("run", help="execute a thread script")
    _add_universe_flags(p)
    p.add_argument("--spec", required=True, help="thread script file")
    p.add_argument("--init", required=True, help="file with the initial state")
    p.add_argument("--service",
                   help="one of " + ", ".join(DldService.VARIANTS))
    p.add_argument("--max-steps")
    p.add_argument("--output", help="one of " + ", ".join(_OUTPUTS))
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--spots")
    p.add_argument("--fields")
    p.add_argument("--atoms")
    p.add_argument("--modulus")
    p.add_argument("--cases")
    p.add_argument("--seed")
    p.add_argument("--include-nontight", action="store_true",
                   help="also check states with invisible in-use atoms")
    p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
