import random
import time

import pytest

from dld import Act
from dld.checks import enumerate_linkages
from dld.linkage import DataLinkage, flink, slink, valass
from dld.oracles import (fgc_one_at_a_time, rgc_one_at_a_time,
                         safe_dispose_staged)
from dld.reclaim import (clear_refs, effect_dldr, fgc, perform_dldr, rgc,
                         safe_dispose)
from dld.semantics import Scan, evaluate
from dld.universe import Universe, small_universe


def A(name, *args):
    return Act(name, args)


def test_fgc_examples(L):
    assert fgc(L("r:#0, #0.up:#1, #2.up:#3, #3.dn:#2")) == L("r:#0, #0.up:#1")
    assert fgc(L("0")) == L("0")
    assert fgc(L("#0.f:#1")) == L("0")
    assert perform_dldr(A("fgc"), L("#0.f:#1"))[1] is True


def test_rgc_examples(L):
    cycle = L("r:#0, #0.up:#1, #2.up:#3, #3.dn:#2")
    assert rgc(cycle) == cycle
    assert rgc(L("#0.f:#1")) == L("0")
    assert rgc(L("0")) == L("0")
    assert perform_dldr(A("rgc"), L("0"))[1] is True


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
    sd, reply = perform_dldr(A("sdsetspot", "s", "t"), state)
    assert sd == L("r:#0, s:#2, #0.up:#1, t:#2, #2.up:#3")
    assert reply is True
    ud, reply = perform_dldr(A("udsetspot", "s", "t"), state)
    assert ud == L("s:#2, t:#2, #2.up:#3")
    assert reply is True


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
    det = [l for l in states if l.is_deterministic()]
    sample = det + random.Random(7).sample(nondet, 600)
    shielded = 0
    for l in sample:
        for act in all_reclaim_actions(u):
            if act.name in ("fgc", "rgc"):
                continue
            under = act.underlying
            expected, reply, efire, _ = evaluate(under, l)
            state, got = perform_dldr(act, l)
            assert got is reply
            if efire.priority == 1:
                shielded += 1
                assert state == l
                continue
            # the displaced atom, unique once no shield fired
            scan = Scan(l)
            displaced = scan.spot.get(act.args[0], [])
            assert len(displaced) <= 1
            if displaced and under.name in ("setfield", "clrfield"):
                position = (displaced[0], act.args[1])
                displaced = scan.fl.get(position, [])
                assert len(displaced) <= 1
                assert not (displaced and position in scan.pf)
            if displaced:
                d = displaced[0]
                if act.name.startswith("ud"):
                    expected = clear_refs(d, expected)
                expected = safe_dispose(d, expected)
            assert state == expected
    assert shielded > 0


def test_fgc_invariants(tiny_universe):
    u = tiny_universe
    rng = random.Random(3)
    for l in enumerate_linkages(u):
        collected = fgc(l)
        assert collected.links <= l.links
        assert fgc(collected) == collected
        assert collected == fgc_one_at_a_time(l, rng)


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


def test_safe_dispose_matches_staged_rules(tiny_universe):
    u = tiny_universe
    rng = random.Random(17)
    for l in enumerate_linkages(u):
        for d in u.atoms:
            assert safe_dispose(d, l) == safe_dispose_staged(d, l, rng)


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
            shuffled = DataLinkage(l.universe, order)
            assert fgc(shuffled) == base_fgc
            assert rgc(shuffled) == base_rgc
            assert fgc_one_at_a_time(shuffled, rng) == base_fgc
            assert rgc_one_at_a_time(shuffled, rng) == base_rgc
            for d in u.atoms:
                assert safe_dispose(d, shuffled) == base_sd[d]
                assert safe_dispose_staged(d, shuffled, rng) == base_sd[d]


def _chain(n: int, spotted: bool) -> DataLinkage:
    """n field links #0 -> #1 -> ... -> #n, each atom with a value, and
    a spot on #0 when `spotted`."""
    u = Universe(spots=("s",), fields=("nx",),
                 atoms=tuple(f"#{i}" for i in range(n + 1)), modulus=2)
    links = [flink(f"#{i}", "nx", f"#{i + 1}") for i in range(n)]
    links += [valass(a, 1) for a in u.atoms]
    if spotted:
        links.append(slink("s", "#0"))
    return DataLinkage(u, links)


@pytest.mark.parametrize("spotted", [True, False])
def test_collectors_are_linear(spotted):
    """Each collector handles a 10,000-link chain well within a second;
    moving one link or one round at a time would be quadratic here."""
    l = _chain(10_000, spotted)
    d = "#5000"
    out = {}
    for name, collect in (("fgc", fgc), ("rgc", rgc),
                          ("sd", lambda x: safe_dispose(d, x))):
        start = time.perf_counter()
        out[name] = collect(l)
        assert time.perf_counter() - start < 1.0, name
    if spotted:
        assert out["fgc"] == out["rgc"] == out["sd"] == l
    else:
        assert out["fgc"] == out["rgc"] == DataLinkage.empty(l.universe)
        # d's value and its field links in and out go
        assert out["sd"].links == l.links - {
            valass(d, 1), flink("#4999", "nx", d), flink(d, "nx", "#5001")}
