import copy

import pytest

from dld import Act
from dld.actions import all_actions
from dld.errors import DldError
from dld.oracles import cyclic_atoms, reach_inductive
from dld.refine import enumerate_states, retrieve
from dld.set_model import (SetState, clear_field_refs, clear_spot_refs,
                           effect_set_reclaim, incycle, is_tight, perform_set,
                           perform_set_reclaim, reach_atoms, reach_from,
                           sd_set, tighten, ud_set, yield_set_reclaim)
from dld.universe import small_universe

U = small_universe(2, 2, 4, 3)


def S(sigma=None, zeta=None, xi=None):
    zeta = zeta or {}
    if xi is None:
        xi = {a: None for a in zeta}
    return SetState(U, sigma or {}, zeta, xi).check_invariants()


def A(name, *args):
    return Act(name, args)


def test_effect_set_examples():
    st = S({"s": None, "t": "#1"}, {"#1": {}})
    out, _ = perform_set(A("setspot", "s", "t"), st)
    assert out.sigma["s"] == "#1"

    st = S({"s": None})
    out, reply = perform_set(A("addfield", "s", "f"), st)
    assert out == st
    assert reply is False

    st = S({"s": "#0"}, {"#0": {}})
    out, reply = perform_set(A("asszero", "s"), st)
    assert out.xi["#0"] == 0
    assert reply is True


def test_getatobj_set_allocates_outside_dom_zeta():
    st = S({}, {"#0": {}})
    out, _ = perform_set(A("getatobj", "s"), st)
    assert out.sigma["s"] == "#1"
    assert set(out.zeta) == {"#0", "#1"}
    assert out.xi["#1"] is None


def test_effect_set_preserves_invariants_exhaustively():
    u = small_universe(2, 1, 2, 2)
    for st in enumerate_states(u):
        for act in all_actions(u):
            effect_set_reclaim(act, st).check_invariants()


def test_eqvaltst_needs_defined_values():
    st = S({"s": "#0", "t": "#1"}, {"#0": {}, "#1": {}})
    assert perform_set(A("eqvaltst", "s", "t"), st)[1] is False
    st2 = st.replace(xi={"#0": 2, "#1": 2})
    assert perform_set(A("eqvaltst", "s", "t"), st2)[1] is True


def test_reach():
    zeta = {"#0": {"f": "#1"}, "#1": {}, "#2": {"f": "#3"}, "#3": {"g": "#2"}}
    st = S({"s": "#0"}, zeta)
    assert reach_atoms(st) == {"#0", "#1"}
    assert reach_from("#2", zeta) == {"#2", "#3"}
    assert reach_atoms(S({})) == frozenset()
    for a in zeta:
        assert reach_from(a, zeta) == reach_inductive(a, zeta)


def test_incycle():
    zeta = {"#0": {"f": "#1"}, "#1": {}, "#2": {"f": "#3"}, "#3": {"g": "#2"}}
    assert incycle(zeta) == {"#2", "#3"}
    assert incycle({"#0": {}, "#1": {"f": "#0"}}) == frozenset()
    assert incycle({"#0": {"f": "#0"}}) == {"#0"}
    assert incycle(zeta) == cyclic_atoms(zeta)


def test_clear_refs_pointwise():
    assert clear_spot_refs("#0", {"r": "#0", "s": "#1"}) == {"r": None, "s": "#1"}
    assert clear_field_refs("#0", {"#1": {"f": "#0"}}) == {"#1": {"f": None}}
    sigma = {"s": "#1"}
    assert clear_spot_refs("#3", sigma) == sigma


def test_sd_and_ud():
    st = S({"s": "#0"}, {"#0": {}, "#1": {}})
    assert sd_set("#5", st) == st          # not in use
    assert sd_set("#0", st) == st          # reachable
    out = sd_set("#1", st)
    assert set(out.zeta) == {"#0"}
    out = ud_set("#0", st)
    assert out.sigma["s"] is None and set(out.zeta) == {"#1"}


def test_sd_deletes_dangling_entries_from_unreachable_owners():
    # #2 -> #1, both unreachable; disposing #1 must not leave a dangling entry
    st = S({}, {"#1": {}, "#2": {"f": "#1"}})
    out = sd_set("#1", st)
    assert set(out.zeta) == {"#2"}
    assert out.zeta["#2"] == {}
    out.check_invariants()


def test_rgc_closure_vs_literal():
    # a chain hanging off an unreachable cycle strands an entry under the
    # literal kept set; the closure reading keeps the chain
    zeta = {"#0": {"f": "#1"}, "#1": {"g": "#0", "h": "#2"}, "#2": {}}
    st = S({}, zeta, {"#0": None, "#1": None, "#2": 1})
    closed = effect_set_reclaim(A("rgc"), st)
    closed.check_invariants()
    assert set(closed.zeta) == {"#0", "#1", "#2"}
    assert closed.xi["#2"] == 1
    kept = reach_atoms(st) | incycle(st.zeta)
    literal = st.replace(zeta={a: fm for a, fm in st.zeta.items() if a in kept},
                         xi={a: v for a, v in st.xi.items() if a in kept})
    assert set(literal.zeta) == {"#0", "#1"}
    with pytest.raises(DldError):
        literal.check_invariants()


def test_reclaim_yields():
    st = S({})
    assert yield_set_reclaim(A("rgc"), st) is True
    assert yield_set_reclaim(A("fgc"), st) is True
    assert yield_set_reclaim(A("sdsetspot", "s", "t"), st) is True


def test_tighten():
    st = S({"s": None}, {"#0": {}})
    out = tighten(st)
    assert out.zeta == {} and out.xi == {}
    assert not is_tight(st)
    assert is_tight(out)
    assert tighten(out) == out
    assert retrieve(out) == retrieve(st)

    visible = S({"s": "#0"}, {"#0": {}, "#1": {}})
    assert not is_tight(visible)
    assert set(tighten(visible).zeta) == {"#0"}


def test_describe_renders_three_blocks():
    st = S({"s": "#0"}, {"#0": {"f": None}}, {"#0": 2})
    text = st.describe()
    assert "sigma" in text and "zeta" in text and "xi" in text

    # the same maps, their entries inserted in other orders
    st = S({"s": "#0", "t": "#1"},
           {"#0": {"f": "#1", "g": None}, "#1": {}}, {"#0": 2, "#1": None})
    again = S({"t": "#1", "s": "#0"},
              {"#1": {}, "#0": {"g": None, "f": "#1"}}, {"#1": None, "#0": 2})
    assert again == st and hash(again) == hash(st)
    assert again.describe() == st.describe()
    assert again != st.replace(xi={"#0": 1, "#1": None})


def test_actions_leave_their_input_state_unchanged():
    """Successors share the maps they do not change, so no action may
    change its input's maps, non-tight states included."""
    u = small_universe(2, 1, 2, 2)
    actions = all_actions(u)
    for st in enumerate_states(u):
        before = copy.deepcopy((st.sigma, st.zeta, st.xi))
        for act in actions:
            perform_set_reclaim(act, st)
            assert (st.sigma, st.zeta, st.xi) == before, act
    st = S({"s": "#0"}, {"#0": {}})
    out, _ = perform_set(A("clrspot", "s"), st)
    assert out.zeta is st.zeta and out.xi is st.xi
