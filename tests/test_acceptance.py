"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line (run pytest with -s to see them all)
and enforces the stated runtime budget.
"""

import random
import time

import pytest

from dld import Act, DataLinkage, Meadow
from dld.actions import all_basic_actions, all_reclaim_actions
from dld.checks import (enumerate_linkages, suite_gc_cross, suite_thm1,
                        suite_thm2, suite_thm3, suite_tsu)
from dld.cli import main
from dld.linkage import valass
from dld.parsing import parse_linkage
from dld.reclaim import effect_dldr
from dld.refine import check_commutation, enumerate_states, represent
from dld.semantics import effect
from dld.set_model import SetState, is_tight
from dld.universe import Universe, small_universe

TINY = small_universe(2, 1, 2, 2)


def report(num, name, started, limit, ok, detail=""):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} "
          f"({elapsed:.1f}s < {limit}s){' ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


GOLDEN_NONVALUE = """\
init 0
getatobj(r) T r:#0
getatobj(t) T r:#0, t:#1
addfield(r,up) T r:#0, t:#1, #0.up:?
addfield(t,dn) T r:#0, t:#1, #0.up:?, #1.dn:?
setfield(r,up,t) T r:#0, t:#1, #1.dn:?, #0.up:#1
setfield(t,dn,r) T r:#0, t:#1, #0.up:#1, #1.dn:#0
clrspot(t) T r:#0, #0.up:#1, #1.dn:#0
stop
"""

GOLDEN_VALUE = """\
init s:#0, t:#1, u:#2, #1=7, #2=3
assneg(u,u) T s:#0, t:#1, u:#2, #1=7, #2=8
assadd(s,t,u) T s:#0, t:#1, u:#2, #0=4, #1=7, #2=8
assneg(u,u) T s:#0, t:#1, u:#2, #0=4, #1=7, #2=3
stop
"""

DEMO_CONFIG = "spots=r,s,t,u\nfields=up,dn\natoms=10\nmodulus=11\n"


def _run_cli_trace(tmp_path, capsys, script, init_text):
    (tmp_path / "u.cfg").write_text(DEMO_CONFIG)
    (tmp_path / "init.txt").write_text(init_text + "\n")
    (tmp_path / "spec.thread").write_text(script)
    code = main(["run", "--config", str(tmp_path / "u.cfg"),
                 "--spec", str(tmp_path / "spec.thread"),
                 "--init", str(tmp_path / "init.txt")])
    return code, capsys.readouterr().out


def test_criterion_01_golden_nonvalue_trace(tmp_path, capsys):
    t0 = time.time()
    script = ("main = getatobj(r) ; getatobj(t) ; addfield(r,up) ; "
              "addfield(t,dn) ; setfield(r,up,t) ; setfield(t,dn,r) ; "
              "clrspot(t) ; S\n")
    code, out = _run_cli_trace(tmp_path, capsys, script, "0")
    ok = code == 0 and out == GOLDEN_NONVALUE
    with capsys.disabled():
        report(1, "golden trace, allocation and field wiring", t0, 1.0, ok,
               "" if ok else f"got:\n{out}")


def test_criterion_02_golden_value_trace(tmp_path, capsys):
    t0 = time.time()
    script = "main = assneg(u,u) ; assadd(s,t,u) ; assneg(u,u) ; S\n"
    code, out = _run_cli_trace(tmp_path, capsys, script,
                               "s:#0, t:#1, #1=7, u:#2, #2=3")
    ok = code == 0 and out == GOLDEN_VALUE
    ok = ok and "#0=4" in out.splitlines()[-2] and "#2=3" in out.splitlines()[-2]
    with capsys.disabled():
        report(2, "golden trace, difference of values mod 11", t0, 1.0, ok,
               "" if ok else f"got:\n{out}")


@pytest.fixture
def example_universe():
    return Universe(spots=("r", "s", "t"), fields=("up", "dn"),
                    atoms=tuple(f"#{i}" for i in range(10)), modulus=11)


def test_criterion_03_gc_example(example_universe, capsys):
    t0 = time.time()
    u = example_universe
    state = parse_linkage("r:#0, #0.up:#1, #2.up:#3, #3.dn:#2", u)
    full = effect_dldr(Act("fgc"), state)
    restricted = effect_dldr(Act("rgc"), state)
    ok = (full.canonical_text() == "r:#0, #0.up:#1"
          and restricted.canonical_text() == "r:#0, #0.up:#1, #2.up:#3, #3.dn:#2")
    with capsys.disabled():
        report(3, "collector example: fgc reclaims, rgc keeps the cycle",
               t0, 1.0, ok)


def test_criterion_04_disposal_example(example_universe, capsys):
    t0 = time.time()
    u = example_universe
    state = parse_linkage("r:#0, s:#0, #0.up:#1, t:#2, #2.up:#3", u)
    safe = effect_dldr(Act("sdsetspot", ("s", "t")), state)
    unsafe = effect_dldr(Act("udsetspot", ("s", "t")), state)
    ok = (safe.canonical_text() == "r:#0, s:#2, t:#2, #0.up:#1, #2.up:#3"
          and unsafe.canonical_text() == "s:#2, t:#2, #2.up:#3")
    with capsys.disabled():
        report(4, "disposal example: safe keeps, unsafe reclaims", t0, 1.0, ok)


def test_criterion_05_normalization(capsys):
    t0 = time.time()
    summary = suite_thm1(cases=1000, seed=0)
    ok = summary.failed == 0 and summary.checked == 1000
    with capsys.disabled():
        report(5, "normalization vs axiom-chaining oracle", t0, 10.0, ok,
               summary.line())


def test_criterion_06_unique_outcomes_under_shuffle(capsys):
    t0 = time.time()
    summary = suite_thm2(TINY, seed=0)
    ok = summary.failed == 0
    with capsys.disabled():
        report(6, "one effect and one yield per action and state", t0, 60.0,
               ok, summary.line())


def test_criterion_07_differential(capsys):
    t0 = time.time()
    summary = suite_thm3(TINY)
    ok = summary.failed == 0 and summary.checked > 100000

    # the counterexample family: on non-tight states exactly the
    # fresh-atom actions disagree, everything else still commutes
    expected_family = {"getatobj", "sdgetatobj", "udgetatobj"}
    family_failures = 0
    stray = []
    instances = all_basic_actions(TINY) + all_reclaim_actions(TINY)
    for st in enumerate_states(TINY):
        for act, failure in zip(instances, check_commutation(st, instances)):
            if failure is None:
                continue
            if act.name in expected_family and not is_tight(st):
                family_failures += 1
            else:
                stray.append(failure)
    documented = SetState(TINY, {}, {"#0": {}}, {"#0": None})
    [failure] = check_commutation(documented, [Act("getatobj", ("s",))])
    ok = ok and family_failures > 0 and not stray and failure is not None
    with capsys.disabled():
        report(7, "set semantics commutes with the rewrite semantics", t0,
               120.0, ok,
               f"{summary.line()} expected-fail(non-tight)={family_failures}")


def test_criterion_08_determinism_preservation(capsys):
    t0 = time.time()
    checked = failures = 0
    instances = all_basic_actions(TINY) + all_reclaim_actions(TINY)
    for l in enumerate_linkages(TINY):
        if not l.is_deterministic():
            continue
        for act in instances:
            checked += 1
            if not effect_dldr(act, l).is_deterministic():
                failures += 1
    ok = failures == 0
    with capsys.disabled():
        report(8, "every action preserves determinism", t0, 60.0, ok,
               f"checked={checked} failed={failures}")


def test_criterion_09_copy_and_subtraction_identities(capsys):
    t0 = time.time()
    md = Meadow(TINY.modulus)
    copy_checked = sub_checked = failures = 0
    for l in enumerate_linkages(TINY):
        if not l.is_deterministic():
            continue
        st = represent(l)
        contents, values = st.sigma, st.xi
        for s in TINY.spots:
            a = contents[s]
            if a is None:
                continue
            for t in TINY.spots:
                b = contents[t]
                if b is None or values[b] is None:
                    continue
                if a != b:
                    copy_checked += 1
                    lhs = effect(Act("assadd", (s, s, t)),
                                 effect(Act("asszero", (s,)), l))
                    rhs = l.override(DataLinkage(TINY, [valass(a, values[b])]))
                    if lhs != rhs:
                        failures += 1
                for v in TINY.spots:
                    c = contents[v]
                    if c is None or values[c] is None:
                        continue
                    sub_checked += 1
                    got = effect(Act("assneg", (v, v)), effect(
                        Act("assadd", (s, t, v)), effect(
                            Act("assneg", (v, v)), l)))
                    diff = md.add(values[b], md.neg(values[c]))
                    want = l.override(DataLinkage(TINY, [valass(a, diff)]))
                    if got != want:
                        failures += 1
    ok = failures == 0 and copy_checked > 0 and sub_checked > 0
    with capsys.disabled():
        report(9, "copy and subtraction identities", t0, 30.0, ok,
               f"copy={copy_checked} sub={sub_checked} failed={failures}")


def test_criterion_10_gc_cross_model(capsys):
    t0 = time.time()
    summary = suite_gc_cross(TINY)
    ok = summary.failed == 0
    with capsys.disabled():
        report(10, "collectors agree across models; rgc keeps more than fgc",
               t0, 60.0, ok, summary.line())


def test_criterion_11_tsu_axioms(capsys):
    t0 = time.time()
    summary = suite_tsu(cases=500, seed=0)
    ok = summary.failed == 0 and summary.checked >= 3000
    with capsys.disabled():
        report(11, "service-use axioms and blocked absorption", t0, 10.0, ok,
               summary.line())
