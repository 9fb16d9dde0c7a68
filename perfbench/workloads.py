"""Workload inputs and output checks for the dld benchmark.

Each workload makes its inputs from a seed, names the `dld` command
lines of one pass, and checks the captured output of a pass against a
model computed here, apart from the program: a closed formula for
list-build, a small model of the live list and its counter for
gc-churn, and counts derived from the universe's size for verify.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Verdict:
    """Outcome of checking one pass.

    `failed` counts operations the program itself reports as failed (a
    suite's failed= count, or every operation of an invocation that
    raised); `problems` names each operation whose output differs from
    the model."""
    failed: int
    problems: list


@dataclass
class Plan:
    """One pass: the command lines run in order, the operations they
    perform, and the check of their outputs."""
    argvs: list
    ops: int
    check: Callable[[list], Verdict]  # [(exit code, stdout)] -> Verdict


# --- canonical rendering, written apart from dld.linkage ---------------------

def render(spots, fields, atoms, spot_links=(), field_links=(), values=()):
    """Canonical text of a state: spot links, then field links, then
    value associations, each sorted by declaration order of its names."""
    si = {n: i for i, n in enumerate(spots)}
    fi = {n: i for i, n in enumerate(fields)}
    ai = {n: i for i, n in enumerate(atoms)}
    keyed = [((0, si[s], ai[a]), f"{s}:{a}") for s, a in spot_links]
    keyed += [((2, ai[a], fi[f], ai[b]), f"{a}.{f}:{b}")
              for a, f, b in field_links]
    keyed += [((3, ai[a], n), f"{a}={n}") for a, n in values]
    if not keyed:
        return "0"
    keyed.sort()
    return ", ".join(text for _, text in keyed)


def _link_diff(got: str, want: str, where: str) -> list:
    """One problem per link missing from or extra in `got`, plus one
    when the same links come in another order."""
    g, w = got.split(", "), want.split(", ")
    problems = [f"{where}: missing {x}" for x in sorted(set(w) - set(g))]
    problems += [f"{where}: unexpected {x}" for x in sorted(set(g) - set(w))]
    if not problems and g != w:
        problems.append(f"{where}: links out of canonical order")
    return problems


# --- list-build ---------------------------------------------------------------

LIST_SCRIPT = """\
# allocate until the atoms run out; each node links to its predecessor
# and carries the predecessor's value plus one
main = X
X = getatobj(r) ? addfield(r,nx) ; setfield(r,nx,t) ; assone(r) ; assadd(r,r,t) ; setspot(t,r) ; X : S
"""

LIST_MODULUS = 97


def list_build(seed: int, workdir: Path, nodes: int) -> Plan:
    """`dld run --output final` on the plain service, building a list of
    `nodes` nodes; the seed permutes the atoms' declaration order, which
    is the order allocation takes them in."""
    atoms = [f"#{i}" for i in range(nodes)]
    random.Random(seed).shuffle(atoms)
    spec = workdir / "list.thread"
    init = workdir / "list-init.txt"
    spec.write_text(LIST_SCRIPT)
    init.write_text(f"r:{atoms[0]}, t:{atoms[0]}, {atoms[0]}=0\n")
    steps = 6 * (nodes - 1) + 1
    argv = ["run", "--spots", "r,t", "--fields", "nx",
            "--atoms", ",".join(atoms), "--modulus", str(LIST_MODULUS),
            "--spec", str(spec), "--init", str(init), "--service", "plain",
            "--output", "final", "--max-steps", str(steps + 1)]

    @functools.cache
    def expected() -> str:
        last = atoms[-1]
        return render(("r", "t"), ("nx",), atoms,
                      [("r", last), ("t", last)],
                      [(atoms[k], "nx", atoms[k - 1]) for k in range(1, nodes)],
                      [(a, k % LIST_MODULUS) for k, a in enumerate(atoms)])

    def check(outputs) -> Verdict:
        ((code, out),) = outputs
        lines = out.splitlines()
        problems = [] if code == 0 else [f"exit code {code}, want 0"]
        if len(lines) != 1:
            problems.append(f"{len(lines)} output lines, want 1")
            return Verdict(0, problems)
        return Verdict(0, problems + _link_diff(lines[0], expected(), "final"))

    return Plan([argv], steps, check)


# --- gc-churn -------------------------------------------------------------------

CHURN_SCRIPT = """\
# each round points three temporary nodes into the live list at cursor w
# and disposes of them three ways: safe disposal, clrspot then rgc, and
# clrspot alone, left to the full collection before the next allocation
main = Test
Test = eqvaltst(c,z) ? S : Safe
Safe = getatobj(x) ; addfield(x,ref) ; setfield(x,ref,w) ; sdclrspot(x) ; getfield(w,w,nx) ; Counted
Counted = getatobj(x) ; addfield(x,ref) ; setfield(x,ref,w) ; clrspot(x) ; rgc ; getfield(w,w,nx) ; Lazy
Lazy = getatobj(x) ; addfield(x,ref) ; setfield(x,ref,w) ; clrspot(x) ; getfield(w,w,nx) ; assadd(c,c,m) ; Test
"""

CHURN_SPOTS = ("h", "w", "x", "c", "z", "m")
CHURN_FIELDS = ("nx", "ref")
CHURN_MODULUS = 101
# the actions of one round, one list per disposal
_ROUND = (["getatobj(x)", "addfield(x,ref)", "setfield(x,ref,w)", "sdclrspot(x)",
           "getfield(w,w,nx)"],
          ["getatobj(x)", "addfield(x,ref)", "setfield(x,ref,w)", "clrspot(x)",
           "rgc", "getfield(w,w,nx)"],
          ["getatobj(x)", "addfield(x,ref)", "setfield(x,ref,w)", "clrspot(x)",
           "getfield(w,w,nx)", "assadd(c,c,m)"])
# the lines after which the whole state is checked
_CHECKED = {"sdclrspot(x)", "rgc", "assadd(c,c,m)"}


def gc_churn(seed: int, workdir: Path, nodes: int, rounds: int) -> Plan:
    """`dld run` with the trace output on the afgc service: a circular
    live list of `nodes` nodes and `rounds` rounds of allocation and
    disposal.  The seed permutes the atom numbering, the list's values
    and the order of the initial state's links."""
    if not 0 < rounds < CHURN_MODULUS:
        raise ValueError("the counter must fit in the modulus")
    rng = random.Random(seed)
    n_atoms = nodes + 4
    numbers = list(range(n_atoms))
    rng.shuffle(numbers)
    atoms = [f"#{i}" for i in range(n_atoms)]
    ring = [f"#{i}" for i in numbers[:nodes]]
    cnt, zero, minus1, free = (f"#{i}" for i in numbers[nodes:])
    node_values = [(a, rng.randrange(CHURN_MODULUS)) for a in ring]
    nx_links = [(ring[i], "nx", ring[(i + 1) % nodes]) for i in range(nodes)]

    def state(cursor: int, counter: int, garbage=()):
        spots = [("h", ring[0]), ("w", ring[cursor % nodes]), ("c", cnt),
                 ("z", zero), ("m", minus1)]
        vals = node_values + [(cnt, counter), (zero, 0),
                              (minus1, CHURN_MODULUS - 1)]
        return render(CHURN_SPOTS, CHURN_FIELDS, atoms, spots,
                      nx_links + list(garbage), vals)

    init_links = ([f"{s}:{a}" for s, a in
                   (("h", ring[0]), ("w", ring[0]), ("c", cnt), ("z", zero),
                    ("m", minus1))]
                  + [f"{a}.nx:{b}" for a, _, b in nx_links]
                  + [f"{a}={n}" for a, n in node_values]
                  + [f"{cnt}={rounds}", f"{zero}=0",
                     f"{minus1}={CHURN_MODULUS - 1}"])
    rng.shuffle(init_links)
    config = workdir / "churn.cfg"
    spec = workdir / "churn.thread"
    init = workdir / "churn-init.txt"
    config.write_text(f"spots={','.join(CHURN_SPOTS)}\n"
                      f"fields={','.join(CHURN_FIELDS)}\n"
                      f"atoms={n_atoms}\nmodulus={CHURN_MODULUS}\n"
                      f"service=afgc\nmax_steps={18 * rounds + 2}\n")
    spec.write_text(CHURN_SCRIPT)
    init.write_text(", ".join(init_links) + "\n")
    argv = ["run", "--config", str(config), "--spec", str(spec),
            "--init", str(init)]

    @functools.cache
    def expected() -> list:
        """The trace: (action, reply, state or None when unchecked)."""
        want = [("init", None, state(0, rounds))]
        cursor = 0
        for r in range(rounds):
            counter = rounds - r
            want.append(("eqvaltst(c,z)", "F", None))
            for actions in _ROUND:
                for act in actions:
                    if act == "getfield(w,w,nx)":
                        cursor += 1
                    text = None
                    if act == "assadd(c,c,m)":
                        counter -= 1
                        garbage = [(free, "ref", ring[(cursor - 1) % nodes])]
                        text = state(cursor, counter, garbage)
                    elif act in _CHECKED:
                        text = state(cursor, counter)
                    want.append((act, "T", text))
        want.append(("eqvaltst(c,z)", "T", None))
        want.append(("stop", None, None))
        return want

    def check(outputs) -> Verdict:
        ((code, out),) = outputs
        lines = out.splitlines()
        problems = [] if code == 0 else [f"exit code {code}, want 0"]
        want = expected()
        if len(lines) != len(want):
            problems.append(f"{len(lines)} trace lines, want {len(want)}")
        for i, (line, (act, reply, text)) in enumerate(zip(lines, want)):
            if reply is None:  # the init and stop lines
                got_act, _, got_state = line.partition(" ")
                got_reply = None
            else:
                got_act, got_reply, got_state = (line.split(" ", 2)
                                                 + ["", ""])[:3]
            where = f"line {i + 1}"
            if (got_act, got_reply) != (act, reply):
                problems.append(f"{where}: {line[:40]!r}, "
                                f"want {act} {reply or ''}")
            elif text is not None:
                problems.extend(_link_diff(got_state, text, where)[:1])
        return Verdict(0, problems)

    return Plan([argv], 18 * rounds + 1, check)


# --- verify -----------------------------------------------------------------------

# parameter kinds of every action, spot (s) or field (f), written apart
# from dld.actions
_BASIC = ("s", "ss", "s", "ss", "s", "sf", "sf", "sf", "sfs", "sf", "ssf",
          "s", "s", "sss", "sss", "ss", "ss", "ss", "s")
_DISPOSED = ("s", "ss", "s", "sfs", "sf", "ssf")  # sd and ud variants each
_RECLAIM = ("", "") + _DISPOSED + _DISPOSED


def action_instances(spots: int, fields: int) -> int:
    return sum(spots ** k.count("s") * fields ** k.count("f")
               for k in _BASIC + _RECLAIM)


def deterministic_states(spots: int, fields: int, atoms: int,
                         modulus: int) -> int:
    """Each spot is undefined or on one atom; each (atom, field) position
    is absent, partial or on one atom; each atom has no value or one."""
    return ((1 + atoms) ** spots * (2 + atoms) ** (atoms * fields)
            * (1 + modulus) ** atoms)


def all_links(spots: int, fields: int, atoms: int, modulus: int) -> int:
    return spots * atoms + atoms * fields * (1 + atoms) + atoms * modulus


def verify(seed: int, spots: int, fields: int, atoms: int,
           modulus: int) -> Plan:
    """`dld check thm3` then `dld check gc-cross` on the exhaustive
    universe; the seed goes to gc-cross."""
    bounds = ["--spots", str(spots), "--fields", str(fields),
              "--atoms", str(atoms), "--modulus", str(modulus)]
    det = deterministic_states(spots, fields, atoms, modulus)
    expected = [("thm3", det * action_instances(spots, fields)),
                ("gc-cross",
                 2 * det + 2 ** all_links(spots, fields, atoms, modulus))]
    argvs = [["check", "thm3", *bounds],
             ["check", "gc-cross", *bounds, "--seed", str(seed)]]

    def check(outputs) -> Verdict:
        failed, problems = 0, []
        for (code, out), (suite, cases) in zip(outputs, expected):
            last = out.splitlines()[-1] if out.strip() else ""
            summary = dict(x.split("=", 1) for x in last.split() if "=" in x)
            try:
                checked, passed, bad = (int(summary[k]) for k in
                                        ("checked", "passed", "failed"))
            except (KeyError, ValueError):
                problems.append(f"{suite}: no summary line")
                continue
            failed += bad
            if checked != cases:
                problems.append(f"{suite}: checked={checked}, want {cases}")
            if passed + bad != checked:
                problems.append(f"{suite}: passed+failed != checked")
            if code != (1 if bad else 0):
                problems.append(f"{suite}: exit code {code} with failed={bad}")
        return Verdict(failed, problems)

    return Plan(argvs, sum(cases for _, cases in expected), check)


# name -> (plan maker at full size, at smoke size)
WORKLOADS = {
    "list-build": (lambda seed, wd: list_build(seed, wd, nodes=400),
                   lambda seed, wd: list_build(seed, wd, nodes=5)),
    "gc-churn": (lambda seed, wd: gc_churn(seed, wd, nodes=250, rounds=24),
                 lambda seed, wd: gc_churn(seed, wd, nodes=4, rounds=2)),
    "verify": (lambda seed, wd: verify(seed, 2, 1, 2, 2),
               lambda seed, wd: verify(seed, 1, 1, 1, 2)),
}
