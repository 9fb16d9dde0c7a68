import random

import pytest

from dld import Act, DataLinkage
from dld.actions import all_basic_actions
from dld.checks import enumerate_linkages
from dld.semantics import effect, evaluate, perform, yield_
from dld.universe import small_universe


def A(name, *args):
    return Act(name, args)


def test_getatobj_allocates_least_free_atom(demo_universe, L):
    empty = DataLinkage.empty(demo_universe)
    assert effect(A("getatobj", "r"), empty) == L("r:#0")
    # freshness skips atoms occurring anywhere in the state
    state = L("r:#0, #1.up:#2")
    assert effect(A("getatobj", "t"), state) == L("r:#0, #1.up:#2, t:#3")


def test_getatobj_exhaustion(tiny_universe):
    u = tiny_universe
    from dld.parsing import parse_linkage
    full = parse_linkage("s:#0, t:#1", u)
    assert effect(A("getatobj", "s"), full) == full
    assert yield_(A("getatobj", "s"), full) is False


def test_setspot(L):
    # non-deterministic operand: unchanged state
    state = L("s:#0, s:#1, t:#2")
    assert effect(A("setspot", "s", "t"), state) == state
    assert yield_(A("setspot", "s", "t"), state) is False
    # copy and clear
    assert effect(A("setspot", "s", "t"), L("t:#2")) == L("t:#2, s:#2")
    assert effect(A("setspot", "s", "t"), L("s:#1")) == L("0")
    assert yield_(A("setspot", "s", "t"), L("s:#1")) is True


def test_getfield_partial_clears_destination(L):
    state = L("t:#0, #0.f:?, s:#2")
    assert effect(A("getfield", "s", "t", "f"), state) == L("t:#0, #0.f:?")
    assert yield_(A("getfield", "s", "t", "f"), state) is True
    fetch = L("t:#0, #0.f:#1")
    assert effect(A("getfield", "s", "t", "f"), fetch) == L("t:#0, #0.f:#1, s:#1")


def test_setfield_undefined_source_unsets(L):
    state = L("s:#0, #0.f:#1")
    assert effect(A("setfield", "s", "f", "t"), state) == L("s:#0, #0.f:?")
    assert yield_(A("setfield", "s", "f", "t"), state) is True
    # defined source retargets
    state = L("s:#0, #0.f:#1, t:#2")
    assert effect(A("setfield", "s", "f", "t"), state) == L("s:#0, #0.f:#2, t:#2")
    # partial fills in
    state = L("s:#0, #0.f:?, t:#2")
    assert effect(A("setfield", "s", "f", "t"), state) == L("s:#0, #0.f:#2, t:#2")


def test_addfield_and_rmvfield(L):
    state, reply = perform(A("addfield", "s", "f"), L("0"))
    assert state == L("0") and reply is False
    state, reply = perform(A("addfield", "s", "f"), L("s:#0"))
    assert state == L("s:#0, #0.f:?") and reply is True
    state, reply = perform(A("addfield", "s", "f"), L("s:#0, #0.f:#1"))
    assert state == L("s:#0, #0.f:#1") and reply is False
    state, reply = perform(A("rmvfield", "s", "f"), L("s:#0, #0.f:#1"))
    assert state == L("s:#0") and reply is True
    state, reply = perform(A("rmvfield", "s", "f"), L("s:#0, #0.f:?"))
    assert state == L("s:#0") and reply is True


def test_value_actions(demo_universe, L):
    state = L("s:#0, t:#1, #1=7, u:#2, #2=8")
    got = effect(A("assadd", "s", "t", "u"), state)
    assert got == L("s:#0, #0=4, t:#1, #1=7, u:#2, #2=8")
    state, reply = perform(A("asszero", "s"), L("s:#0"))
    assert state == L("s:#0, #0=0") and reply is True
    assert effect(A("assinv", "s", "t"), L("s:#0, t:#1, #1=0")) == \
        L("s:#0, #0=0, t:#1, #1=0")


def test_yield_examples(L):
    assert yield_(A("undeftst", "s"), L("0")) is True
    assert yield_(A("undeftst", "s"), L("s:#0, s:#1")) is False
    assert yield_(A("equaltst", "s", "t"), L("s:#0, t:#0")) is True
    assert yield_(A("equaltst", "s", "t"), L("s:#0, t:#1")) is False
    assert yield_(A("equaltst", "s", "t"), L("0")) is True
    assert yield_(A("eqvaltst", "s", "t"), L("s:#0, #0=2, t:#1, #1=2")) is True
    assert yield_(A("eqvaltst", "s", "t"), L("s:#0, t:#1")) is False
    assert yield_(A("undefvtst", "s"), L("s:#0")) is True
    assert yield_(A("undefvtst", "s"), L("s:#0, #0=3")) is False
    assert yield_(A("undefvtst", "s"), L("0")) is False


def test_same_spot_operands_match_setwise(L):
    assert yield_(A("equaltst", "s", "s"), L("s:#0")) is True
    assert yield_(A("equaltst", "s", "s"), L("s:#0, s:#1")) is False
    assert yield_(A("eqvaltst", "s", "s"), L("s:#0, #0=3")) is True
    assert yield_(A("eqvaltst", "s", "s"), L("s:#0")) is False


def test_value_shields_are_named_by_operand_position(L):
    act = A("assadd", "r", "s", "t")
    _, reply, efire, yfire = evaluate(act, L("r:#0, r:#1, s:#2, t:#3"))
    assert reply is False
    assert efire.row == "eff.assadd.p1.s-spot-nondet"
    assert yfire.row == "yld.assadd.p1.s-spot-nondet"
    # the second operand; the first is shielded by no row
    act = A("assadd", "t", "s", "s")
    _, _, efire, _ = evaluate(act, L("t:#0, s:#1, #1=2, #1=3"))
    assert efire.row == "eff.assadd.p1.t-val-nondet"
    act = A("assneg", "t", "s")
    _, _, efire, _ = evaluate(act, L("t:#0, s:#1, s:#2"))
    assert efire.row == "eff.assneg.p1.t-spot-nondet"
    _, _, efire, _ = evaluate(A("assmul", "s", "t", "u"), L("u:#0, u:#1"))
    assert efire.row == "eff.assmul.p1.u-spot-nondet"


def test_step_records_fired_rows(L):
    state, reply, eff, yld = evaluate(
        A("clrspot", "t"), L("r:#0, t:#1, #0.up:#1, #1.dn:#0"))
    assert state == L("r:#0, #0.up:#1, #1.dn:#0")
    assert reply is True
    assert eff.row == "eff.clrspot.p2.clear" and eff.priority == 2
    assert yld.row == "yld.clrspot.p2.true"
    assert eff.bindings == {"s": "t", "a": "#1"}
    assert yld.bindings == eff.bindings and yld.bindings is not eff.bindings


def test_nondet_shield_is_identity_and_false(tiny_universe):
    u = tiny_universe
    rng = random.Random(3)
    states = [l for l in enumerate_linkages(u) if not l.is_deterministic()]
    for l in rng.sample(states, 400):
        for act in all_basic_actions(u):
            state, reply, efire, yfire = evaluate(act, l)
            if efire.priority == 1 and not efire.row.endswith(".id"):
                assert state == l
                assert reply is False


def test_frame_property(tiny_universe):
    u = tiny_universe
    for l in enumerate_linkages(u):
        before = l.atobj()
        fresh = u.choose_fresh(before)
        allowed = before | ({fresh} if fresh else set())
        for act in all_basic_actions(u):
            after = effect(act, l).atobj()
            assert after <= allowed
            if not after <= before:
                assert act.name == "getatobj"


# (effect row, yield row) pairs each basic action fires on the 2/1/2/2
# universe: every deterministic state and a fixed sample of the others
FIRED_ROWS = {
    "getatobj": {("p1.spot-nondet", "p1.spot-nondet"),
                 ("p2.alloc", "p2.alloc"), ("p2.exhausted", "p2.exhausted")},
    "setspot": {("p1.s-nondet", "p1.s-nondet"), ("p1.t-nondet", "p1.t-nondet"),
                ("p2.copy", "p2.true"), ("p3.clear", "p2.true"),
                ("p4.id", "p2.true")},
    "clrspot": {("p1.s-nondet", "p1.s-nondet"), ("p2.clear", "p2.true"),
                ("p3.id", "p2.true")},
    "equaltst": {("p1.id", "p1.s-nondet"), ("p1.id", "p1.t-nondet"),
                 ("p1.id", "p2.equal"), ("p1.id", "p3.s-defined"),
                 ("p1.id", "p3.t-defined"), ("p1.id", "p4.both-undefined")},
    "undeftst": {("p1.id", "p1.defined"), ("p1.id", "p2.undefined")},
    "addfield": {("p1.s-nondet", "p1.s-nondet"),
                 ("p2.has-flink", "p2.has-flink"),
                 ("p2.has-pflink", "p2.has-pflink"), ("p3.add", "p3.ok"),
                 ("p4.id", "p4.undefined")},
    "rmvfield": {("p1.s-nondet", "p1.s-nondet"),
                 ("p1.flink-nondet", "p1.flink-nondet"),
                 ("p1.flink-pflink", "p1.flink-pflink"),
                 ("p2.rmv-flink", "p2.flink"), ("p2.rmv-pflink", "p2.pflink"),
                 ("p3.id", "p3.default")},
    "hasfield": {("p1.id", "p1.s-nondet"), ("p1.id", "p1.flink-nondet"),
                 ("p1.id", "p1.flink-pflink"), ("p1.id", "p2.flink"),
                 ("p1.id", "p2.pflink"), ("p1.id", "p3.default")},
    "setfield": {("p1.s-nondet", "p1.s-nondet"), ("p1.t-nondet", "p1.t-nondet"),
                 ("p1.flink-nondet", "p1.flink-nondet"),
                 ("p1.flink-pflink", "p1.flink-pflink"),
                 ("p2.retarget", "p2.flink"), ("p2.fill", "p2.pflink"),
                 ("p3.unset", "p2.flink"), ("p4.id", "p2.pflink"),
                 ("p4.id", "p3.default")},
    "clrfield": {("p1.s-nondet", "p1.s-nondet"),
                 ("p1.flink-nondet", "p1.flink-nondet"),
                 ("p1.flink-pflink", "p1.flink-pflink"),
                 ("p2.clear", "p2.flink"), ("p3.id", "p2.pflink"),
                 ("p3.id", "p3.default")},
    "getfield": {("p1.s-nondet", "p1.s-nondet"), ("p1.t-nondet", "p1.t-nondet"),
                 ("p1.flink-nondet", "p1.flink-nondet"),
                 ("p1.flink-pflink", "p1.flink-pflink"),
                 ("p2.fetch", "p2.flink"), ("p2.undefine", "p2.pflink"),
                 ("p3.id", "p2.pflink"), ("p3.id", "p3.default")},
    "asszero": {("p1.s-nondet", "p1.s-nondet"),
                ("p1.val-nondet", "p1.val-nondet"), ("p2.zero", "p2.ok"),
                ("p3.id", "p3.default")},
    "assone": {("p1.s-nondet", "p1.s-nondet"),
               ("p1.val-nondet", "p1.val-nondet"), ("p2.one", "p2.ok"),
               ("p3.id", "p3.default")},
    "undefvtst": {("p1.id", "p1.s-nondet"), ("p1.id", "p2.has-value"),
                  ("p1.id", "p3.no-value"), ("p1.id", "p4.undefined")},
}
_SPOT_SHIELDS = {(f"p1.{x}-{kind}-nondet",) * 2
                 for x in "st" for kind in ("spot", "val")}
for _name in ("add", "mul", "neg", "inv"):
    FIRED_ROWS[f"ass{_name}"] = _SPOT_SHIELDS | {(f"p2.{_name}", "p2.ok"),
                                                ("p3.id", "p3.default")}
for _name in ("add", "mul"):
    # the third operand's shields, e.g. assadd(t,t,s) with s's content
    # holding two values
    FIRED_ROWS[f"ass{_name}"] |= {("p1.u-spot-nondet",) * 2,
                                  ("p1.u-val-nondet",) * 2}
FIRED_ROWS["eqvaltst"] = {("p1.id", y) for _, y in _SPOT_SHIELDS} | {
    ("p1.id", "p2.equal"), ("p1.id", "p3.default")}


def test_fired_row_table_is_pinned(tiny_universe):
    u = tiny_universe
    states = list(enumerate_linkages(u))
    nondet = [l for l in states if not l.is_deterministic()]
    sample = ([l for l in states if l.is_deterministic()]
              + random.Random(0).sample(nondet, 1500))
    fired = {}
    for l in sample:
        for act in all_basic_actions(u):
            _, _, efire, yfire = evaluate(act, l)
            assert efire.row.startswith(f"eff.{act.name}.")
            assert yfire.row.startswith(f"yld.{act.name}.")
            for fire in (efire, yfire):
                assert fire.priority == int(fire.row.split(".")[2][1])
            fired.setdefault(act.name, set()).add(
                (efire.row.split(".", 2)[2], yfire.row.split(".", 2)[2]))
    assert fired == FIRED_ROWS
