import hashlib
import random
import re

import pytest

import dld.refine
from dld import Act, DataLinkage
from dld.actions import all_actions
from dld.checks import _state_counts, enumerate_linkages, suite_thm3
from dld.errors import NonDeterministicState
from dld.parsing import parse_linkage
from dld.reclaim import perform_dldr, perform_each
from dld.refine import (check_commutation, enumerate_states, represent,
                        retrieve)
from dld.semantics import Scan, evaluate
from dld.set_model import (SetState, effect_set_reclaim, is_tight,
                           perform_set_each, perform_set_reclaim,
                           yield_set_reclaim)
from dld.universe import small_universe


def test_retrieve_examples(demo_universe, L):
    u = demo_universe
    assert retrieve(SetState.empty(u)) == L("0")
    st = SetState(u, {"r": "#0"},
                  {"#0": {"up": "#1"}, "#1": {"dn": "#0"}},
                  {"#0": None, "#1": None})
    assert retrieve(st) == L("r:#0, #0.up:#1, #1.dn:#0")
    st = SetState(u, {"s": "#0"}, {"#0": {"f": None}}, {"#0": 3})
    assert retrieve(st) == L("s:#0, #0.f:?, #0=3")


def test_represent_examples(demo_universe, L):
    u = demo_universe
    st = represent(L("0"))
    assert st.zeta == {} and st.xi == {} and set(st.sigma.values()) == {None}
    st = represent(L("r:#0, #0.up:#1, #1.dn:#0"))
    assert retrieve(st) == L("r:#0, #0.up:#1, #1.dn:#0")
    with pytest.raises(NonDeterministicState):
        represent(L("s:#0, s:#1"))


def test_represent_roundtrip_and_tight(tiny_universe):
    for l in enumerate_linkages(tiny_universe):
        if not l.is_deterministic():
            continue
        st = represent(l)
        assert retrieve(st) == l
        assert is_tight(st)
        st.check_invariants()


def test_tight_states_are_the_deterministic_linkages(tiny_universe):
    # the verify benchmark counts its thm3 cases as deterministic states
    # times action instances, which holds because of this
    tight = [retrieve(st)
             for st in enumerate_states(tiny_universe, tight_only=True)]
    deterministic = {l for l in enumerate_linkages(tiny_universe)
                     if l.is_deterministic()}
    assert len(tight) == len(set(tight)) == len(deterministic) == 1296
    assert set(tight) == deterministic


def test_retrieve_is_deterministic_on_all_states(tiny_universe):
    for st in enumerate_states(tiny_universe):
        assert retrieve(st).is_deterministic()


def test_commutation_examples(demo_universe, tiny_universe, L):
    st = represent(L("r:#0, #0.up:#1, #2.up:#3, #3.dn:#2"))
    assert check_commutation(st, [Act("fgc"), Act("setspot", ("s", "t"))]) \
        == [None, None]

    # documented counterexample: an in-use atom invisible to retrieve
    # makes the two freshness conditions disagree
    u = tiny_universe
    st = SetState(u, {}, {"#0": {}}, {"#0": None})
    [failure] = check_commutation(st, [Act("getatobj", ("s",))])
    assert failure is not None
    assert not is_tight(st)
    line = re.fullmatch(r"getatobj\(s\) 0 rewrite=(.*)/T set=(.*)/T "
                        r"tight=(true|false)", failure)
    assert parse_linkage(line[1], u) == parse_linkage("s:#0", u)
    assert parse_linkage(line[2], u) == parse_linkage("s:#1", u)
    assert line[3] == "false"


@pytest.mark.parametrize("variants_first", [False, True],
                         ids=["basic-first", "variants-first"])
def test_each_action_list_equals_one_action_calls(tiny_universe,
                                                  variants_first):
    """Evaluating a list of actions on one state shares the scan and the
    basic actions' outcomes, and gives what one call per action gives:
    on every map triple, and on non-deterministic linkages, where
    priority-1 shields keep the disposal variants from disposing."""
    u = tiny_universe
    actions = all_actions(u)
    if variants_first:
        actions.reverse()
    states = list(enumerate_states(u))
    assert len(states) == 1369
    nondet = random.Random(5).sample(
        [l for l in enumerate_linkages(u) if not l.is_deterministic()], 400)
    for st in states:
        assert perform_set_each(actions, st) == \
            [perform_set_reclaim(a, st) for a in actions]
    for l in [retrieve(st) for st in states] + nondet:
        assert perform_each(actions, l) == [perform_dldr(a, l) for a in actions]
    assert any(evaluate(a.underlying, l)[2].priority == 1
               for l in nondet for a in actions if a.name[:2] in ("sd", "ud"))


def test_thm3_scans_and_retrieves_each_state_once(monkeypatch):
    counts = {"scan": 0, "retrieve": 0}
    scan, retrieve_state = Scan.__init__, dld.refine.retrieve

    def counted_scan(self, l):
        counts["scan"] += 1
        scan(self, l)

    def counted_retrieve(st):
        counts["retrieve"] += 1
        return retrieve_state(st)

    monkeypatch.setattr(Scan, "__init__", counted_scan)
    monkeypatch.setattr(dld.refine, "retrieve", counted_retrieve)
    summary = suite_thm3(small_universe(2, 1, 2, 2))
    assert summary.line() == "checked=132192 passed=132192 failed=0"
    assert counts["scan"] <= 1296
    assert counts["retrieve"] == 1296


def test_enumerate_states_no_duplicates():
    u = small_universe(1, 1, 1, 2)
    states = list(enumerate_states(u))
    assert len(states) == len(set(states))
    # hand count: the empty state, plus (sigma, field-map, value)
    # combinations for the single in-use atom: 2 * 3 * 3
    assert len(states) == 1 + 18


def test_enumerate_states_tight_hand_count():
    # one spot, one atom, p=2: an in-use atom is visible when the spot
    # holds it, it owns a field, or it carries a value; only the bare
    # in-use atom is invisible
    u = small_universe(1, 1, 1, 2)
    tight = list(enumerate_states(u, tight_only=True))
    assert len(tight) == 18
    # ignoring field usage, the retrieved linkages are exactly these six
    texts = sorted(retrieve(st).canonical_text() for st in tight
                   if not st.zeta or not st.zeta.get("#0"))
    assert texts == ["#0=0", "#0=1", "0", "s:#0", "s:#0, #0=0", "s:#0, #0=1"]


def test_enumerate_states_monotone_in_bounds(tiny_universe):
    u = tiny_universe
    states = list(enumerate_states(u))
    counts = [sum(1 for st in states if len(st.zeta) <= k)
              for k in range(len(u.atoms) + 1)]
    assert counts == sorted(counts)
    total = len(states)
    assert counts[-1] == total
    for st in states:
        st.check_invariants()
    tight = sum(1 for _ in enumerate_states(u, tight_only=True))
    assert tight < total


@pytest.mark.parametrize("bounds", [(1, 1, 1, 2), (2, 1, 2, 2),
                                    (1, 1, 2, 3), (2, 2, 1, 2)])
def test_state_counts_match_the_enumerations(bounds):
    """The counts the exhaustive suites check against their cap."""
    u = small_universe(*bounds)
    assert _state_counts(u) == (sum(1 for _ in enumerate_linkages(u)),
                                sum(1 for _ in enumerate_states(u)))


# sha256 of the lines "<action> <state> -> <next state> <reply>" below
FRESH_ATOM_NONTIGHT_DIGEST = (
    "3bda700730820d36f89c98360c7b3622e5fa6bd44eb14ec7d4055aef704ff685")


def test_fresh_atom_actions_on_nontight_states_are_pinned(tiny_universe):
    # thm3 only expects the fresh-atom family to fail on non-tight
    # states; this pins what the set side actually does there
    u = tiny_universe
    lines = []
    nontight = [st for st in enumerate_states(u) if not is_tight(st)]
    for st in nontight:
        for name in ("getatobj", "sdgetatobj", "udgetatobj"):
            for s in u.spots:
                act = Act(name, (s,))
                nxt = effect_set_reclaim(act, st)
                lines.append(f"{act} {st.describe()} -> {nxt.describe()} "
                             f"{yield_set_reclaim(act, st)}")
    assert len(nontight) == 73 and len(lines) == 438
    assert lines[0] == ("getatobj(s) sigma s->_, t->_ / zeta #0:{} / xi #0=_"
                        " -> sigma s->#1, t->_ / zeta #0:{}; #1:{}"
                        " / xi #0=_, #1=_ True")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FRESH_ATOM_NONTIGHT_DIGEST
