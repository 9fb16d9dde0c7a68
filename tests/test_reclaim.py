import random

import pytest

from dld import Act
from dld.checks import enumerate_deterministic, enumerate_linkages
from dld.oracles import (rgc_one_at_a_time, safe_dispose_closed_form,
                         spot_reachable)
from dld.reclaim import clear_refs, effect_dldr, fgc, rgc, safe_dispose, yield_dldr
from dld.semantics import NONDET, evaluate, field_content, spot_content
from dld.universe import small_universe


def A(name, *args):
    return Act(name, args)


def test_fgc_examples(L):
    assert fgc(L("r:#0, #0.up:#1, #2.up:#3, #3.dn:#2")) == L("r:#0, #0.up:#1")
    assert fgc(L("0")) == L("0")
    assert fgc(L("#0.f:#1")) == L("0")
    assert yield_dldr(A("fgc"), L("#0.f:#1")) is True


def test_rgc_examples(L):
    cycle = L("r:#0, #0.up:#1, #2.up:#3, #3.dn:#2")
    assert rgc(cycle) == cycle
    assert rgc(L("#0.f:#1")) == L("0")
    assert rgc(L("0")) == L("0")
    assert yield_dldr(A("rgc"), L("0")) is True


def test_safe_dispose_examples(L):
    keep = L("r:#0, s:#2, #0.up:#1, t:#2, #2.up:#3")
    assert safe_dispose("#0", keep) == keep
    state = L("r:#0")
    assert safe_dispose("#5", state) == state
    assert safe_dispose("#1", L("r:#0, #1.f:#0, #1=3")) == L("r:#0")


def test_clear_refs_examples(L):
    assert clear_refs("#0", L("s:#0, #1.f:#0, #1=3")) == L("#1.f:?, #1=3")
    assert clear_refs("#0", L("0")) == L("0")
    assert clear_refs("#0", L("#0.f:#1")) == L("#0.f:#1")


def test_disposal_worked_example(L):
    state = L("r:#0, s:#0, #0.up:#1, t:#2, #2.up:#3")
    sd = effect_dldr(A("sdsetspot", "s", "t"), state)
    assert sd == L("r:#0, s:#2, #0.up:#1, t:#2, #2.up:#3")
    ud = effect_dldr(A("udsetspot", "s", "t"), state)
    assert ud == L("s:#2, t:#2, #2.up:#3")
    assert yield_dldr(A("sdsetspot", "s", "t"), state) is True
    assert yield_dldr(A("udsetspot", "s", "t"), state) is True


def test_sd_variants_dispose_displaced_spot_content(L):
    # the displaced atom goes when the action made it unreachable
    state = L("s:#1, #1=5")
    out = effect_dldr(A("sdclrspot", "s"), state)
    assert out == L("0")
    # but survives when something still reaches it
    state = L("r:#1, s:#1, #1=5")
    out = effect_dldr(A("sdclrspot", "s"), state)
    assert out == L("r:#1, #1=5")


def test_sdsetfield_disposes_old_field_content(L):
    state = L("s:#0, #0.f:#1, #1=3, t:#2")
    out = effect_dldr(A("sdsetfield", "s", "f", "t"), state)
    assert out == L("s:#0, #0.f:#2, t:#2")


def test_sdgetfield_disposes_old_spot_content(L):
    # s moves from #2 to #1; #2 becomes unreachable and is reclaimed
    state = L("s:#2, t:#0, #0.f:#1, #2=7")
    out = effect_dldr(A("sdgetfield", "s", "t", "f"), state)
    assert out == L("s:#1, t:#0, #0.f:#1")


def test_ud_clears_other_references(L):
    # r and the field link still reference #1; unsafe disposal clears them
    state = L("s:#1, r:#1, #0.f:#1, t:#0, #1=3")
    out = effect_dldr(A("udclrspot", "s"), state)
    assert out == L("#0.f:?, t:#0")


def test_ud_composition_law(tiny_universe):
    """A disposal variant replies as its basic action.  When that action
    fires a priority-1 row the state stays; otherwise the atom it
    displaced is disposed of, after unsafe disposal clears every other
    reference to it."""
    u = tiny_universe
    from dld.actions import all_reclaim_actions
    states = list(enumerate_linkages(u))
    nondet = [l for l in states if not l.is_deterministic()]
    sample = list(enumerate_deterministic(u)) + random.Random(7).sample(nondet, 600)
    shielded = 0
    for l in sample:
        for act in all_reclaim_actions(u):
            if act.name in ("fgc", "rgc"):
                continue
            under = act.underlying
            expected, reply, efire, _ = evaluate(under, l)
            assert yield_dldr(act, l) is reply
            if efire.priority == 1:
                shielded += 1
                assert effect_dldr(act, l) == l
                continue
            d = spot_content(l, act.args[0])
            if d is not None and under.name in ("setfield", "clrfield"):
                d = field_content(l, d, act.args[1])
            assert d is not NONDET
            if d is not None:
                if act.name.startswith("ud"):
                    expected = clear_refs(d, expected)
                expected = safe_dispose(d, expected)
            assert effect_dldr(act, l) == expected
    assert shielded > 0


def test_fgc_invariants(tiny_universe):
    u = tiny_universe
    for l in enumerate_linkages(u):
        collected = fgc(l)
        assert collected.links <= l.links
        assert fgc(collected) == collected
        assert collected.atobj() == spot_reachable(l)


def test_rgc_invariants(tiny_universe):
    u = tiny_universe
    rng = random.Random(5)
    for l in enumerate_linkages(u):
        restricted = rgc(l)
        full = fgc(l)
        assert full.links <= restricted.links
        assert fgc(restricted) == full
        assert rgc(restricted) == restricted
        assert restricted == rgc_one_at_a_time(l, rng)


def test_safe_dispose_matches_closed_form(tiny_universe):
    u = tiny_universe
    for l in enumerate_linkages(u):
        for d in u.atoms:
            assert safe_dispose(d, l) == safe_dispose_closed_form(d, l)


def test_worklist_order_invariance(tiny_universe):
    u = tiny_universe
    rng = random.Random(13)
    states = list(enumerate_linkages(u))
    for l in rng.sample(states, 500):
        base_fgc = fgc(l)
        base_rgc = rgc(l)
        base_sd = {d: safe_dispose(d, l) for d in u.atoms}
        for _ in range(3):
            order = list(l.iter_links())
            rng.shuffle(order)
            shuffled = l.with_links(order)
            assert fgc(shuffled, rng=rng) == base_fgc
            assert rgc(shuffled, rng=rng) == base_rgc
            for d in u.atoms:
                assert safe_dispose(d, shuffled, rng=rng) == base_sd[d]
