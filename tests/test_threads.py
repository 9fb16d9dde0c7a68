import random

import pytest

from dld import Act, DataLinkage
from dld.checks import random_service, random_thread, thread_equal
from dld.errors import BudgetExhausted, DldError, NonDeterministicState, UnknownFocus
from dld.parsing import parse_linkage
from dld.scripts import parse_spec
from dld.threads import (BLOCKED, DEADLOCK, STOP, TAU, Call, DldService, Post,
                         Ref, ThreadSpec, dlds, prefix, run, step_thread, use)


def A(name, *args):
    return Act(name, args)


def test_use_terminals_pass_through():
    h = random_service(random.Random(0), ["m"])
    assert use(STOP, "dld", h) is STOP
    assert use(DEADLOCK, "dld", h) is DEADLOCK


def test_use_processes_own_focus(demo_universe, L):
    h = dlds(DataLinkage.empty(demo_universe))
    t = Post(Call("dld", A("getatobj", "r")), STOP, DEADLOCK)
    out = use(t, "dld", h)
    # positive reply: a tau prefix of the transformed then branch
    assert isinstance(out, Post) and out.action is TAU and out.then is STOP


def test_use_blocked_becomes_deadlock(demo_universe):
    h = dlds(DataLinkage.empty(demo_universe))
    t = Post(Call("dld", "no-such-method"), STOP, STOP)
    assert use(t, "dld", h) is DEADLOCK


def test_use_other_focus_untouched(demo_universe):
    h = dlds(DataLinkage.empty(demo_universe))
    t = Post(Call("aux", "m"), STOP, DEADLOCK)
    out = use(t, "dld", h)
    assert out.action == Call("aux", "m")
    assert out.then is STOP and out.orelse is DEADLOCK


def test_use_budget_exhaustion():
    spec = ThreadSpec({"X": prefix(TAU, Ref("X"))}, "X")
    h = random_service(random.Random(0), ["m"])
    with pytest.raises(BudgetExhausted):
        use(Ref("X"), "dld", h, budget=50, spec=spec)


def test_dld_service_basic(demo_universe, L):
    svc = dlds(DataLinkage.empty(demo_universe))
    act = A("getatobj", "r")
    assert svc.reply(act) is True
    svc2 = svc.derive(act)
    assert svc2.render() == "r:#0"
    # unknown methods block forever
    svc3 = svc2.derive("nonsense")
    assert svc3.render() == "undef"
    assert svc3.reply(act) == BLOCKED
    assert svc3.derive(act).reply(A("undeftst", "r")) == BLOCKED


def test_dld_service_variants(demo_universe, L):
    state = L("r:#0")
    assert dlds(state, "plain").reply(A("fgc")) == BLOCKED
    assert dlds(state, "dldr").reply(A("fgc")) is True
    with pytest.raises(NonDeterministicState):
        dlds(L("s:#0, s:#1"))


def test_dld_service_checks_the_state_it_is_built_with(L):
    with pytest.raises(DldError):
        DldService("r:#0")
    with pytest.raises(NonDeterministicState):
        DldService(L("s:#0, s:#1"), "dldr")
    reply, succ = DldService(L("r:#0")).process(A("clrspot", "r"))
    assert reply is True and succ.render() == "0"


def test_afgc_collects_before_allocating(tiny_universe):
    u = tiny_universe
    # both atoms occur, but #1 is garbage: plain fails, afgc succeeds
    state = parse_linkage("s:#0, #1.f:#1", u)
    act = A("getatobj", "t")
    assert dlds(state, "dldr").reply(act) is False
    svc = dlds(state, "afgc")
    assert svc.reply(act) is True
    assert svc.derive(act).render() == "s:#0, t:#1"


def test_afgc_matches_manual_composition(tiny_universe):
    from dld.reclaim import effect_dldr, fgc
    from dld.semantics import effect, yield_
    u = tiny_universe
    rng = random.Random(4)
    from dld.checks import enumerate_linkages
    states = [l for l in enumerate_linkages(u) if l.is_deterministic()]
    for l in rng.sample(states, 100):
        svc = dlds(l, "afgc")
        act = A("getatobj", "s")
        collected = fgc(l)
        assert svc.reply(act) == yield_(act, collected)
        assert svc.derive(act).state == effect(act, collected)


def test_afgc_collects_once_per_getatobj(tiny_universe, monkeypatch):
    import dld.threads
    calls = []
    collect = dld.threads.fgc

    def counted(l):
        calls.append(l)
        return collect(l)

    monkeypatch.setattr(dld.threads, "fgc", counted)
    u = tiny_universe
    state = parse_linkage("s:#0, #1.f:#1", u)
    spec = parse_spec("main = getatobj(t) ; clrspot(t) ; getatobj(t) ; S", u)
    trace = run(spec, {"dld": dlds(state, "afgc")})
    assert [step.reply for step in trace.steps] == ["T", "T", "T"]
    assert len(calls) == 2
    calls.clear()
    assert use(spec.entry(), "dld", dlds(state, "afgc")) is not DEADLOCK
    assert len(calls) == 2


def test_run_unknown_focus_raises(demo_universe):
    spec = parse_spec("main = aux.m ; S", demo_universe)
    with pytest.raises(UnknownFocus):
        run(spec, {"dld": dlds(DataLinkage.empty(demo_universe))}, 10)


def test_run_tau_loop_budget(demo_universe):
    spec = parse_spec("main = X\nX = tau . X", demo_universe)
    trace = run(spec, {"dld": dlds(DataLinkage.empty(demo_universe))}, 25)
    assert trace.terminal == "BudgetExhausted"
    assert len(trace.steps) == 25
    assert all(s.action == "tau" for s in trace.steps)


def test_run_immediate_deadlock(demo_universe):
    spec = parse_spec("main = D", demo_universe)
    trace = run(spec, {"dld": dlds(DataLinkage.empty(demo_universe))}, 10)
    assert trace.terminal == "Deadlock" and not trace.steps


def test_run_branches_on_reply(demo_universe, L):
    script = "main = undeftst(r) ? getatobj(r) ; S : D"
    spec = parse_spec(script, demo_universe)
    trace = run(spec, {"dld": dlds(DataLinkage.empty(demo_universe))}, 10)
    assert trace.terminal == "Stop"
    assert [s.action for s in trace.steps] == ["undeftst(r)", "getatobj(r)"]
    trace = run(spec, {"dld": dlds(L("r:#0"))}, 10)
    assert trace.terminal == "Deadlock"


def test_run_keeps_services_untouched_without_actions(demo_universe):
    spec = parse_spec("main = tau . tau . S", demo_universe)
    svc = dlds(DataLinkage.empty(demo_universe))
    trace = run(spec, {"dld": svc}, 10)
    assert trace.terminal == "Stop"
    assert all(s.state == "0" for s in trace.steps)


def test_step_thread(demo_universe):
    services = {"dld": dlds(DataLinkage.empty(demo_universe))}
    t, step, terminal = step_thread(prefix(TAU, STOP), None, services)
    assert step.action == "tau" and terminal is None and t is STOP
    t, step, terminal = step_thread(STOP, None, services)
    assert terminal == "Stop"
    spec = ThreadSpec({"X": STOP}, "X")
    t, step, terminal = step_thread(Ref("X"), spec, services)
    assert terminal == "Stop"


def test_trace_render_is_stable(demo_universe):
    script = "main = getatobj(r) ; getatobj(t) ; S"
    spec = parse_spec(script, demo_universe)
    out1 = run(spec, {"dld": dlds(DataLinkage.empty(demo_universe))}, 10).render()
    out2 = run(spec, {"dld": dlds(DataLinkage.empty(demo_universe))}, 10).render()
    assert out1 == out2
    assert out1.splitlines()[0] == "init 0"
    assert out1.splitlines()[-1] == "stop"


def test_spec_guardedness():
    with pytest.raises(DldError):
        ThreadSpec({"X": Ref("X")}, "X")


def test_script_parse_errors(demo_universe):
    from dld.errors import ParseError
    with pytest.raises(ParseError):
        parse_spec("", demo_universe)
    with pytest.raises(ParseError):
        parse_spec("X = S", demo_universe)  # no main
    with pytest.raises(ParseError):
        parse_spec("main = undeftst(r) ?", demo_universe)


def test_bare_trailing_action_terminates(demo_universe):
    spec = parse_spec("main = getatobj(r)", demo_universe)
    trace = run(spec, {"dld": dlds(DataLinkage.empty(demo_universe))}, 10)
    assert trace.terminal == "Stop"
    assert [s.action for s in trace.steps] == ["getatobj(r)"]


def test_tsu_axioms_randomized():
    from dld.checks import suite_tsu
    summary = suite_tsu(cases=120, seed=9)
    assert summary.failed == 0
    assert summary.checked >= 120 * 6


def test_blocked_absorption_randomized():
    rng = random.Random(21)
    methods = ["a", "b", "c"]
    for _ in range(200):
        svc = random_service(rng, methods)
        blocked = False
        for _ in range(30):
            m = rng.choice(methods)
            r = svc.reply(m)
            if blocked:
                assert r == BLOCKED
            if r == BLOCKED:
                blocked = True
            svc = svc.derive(m)
