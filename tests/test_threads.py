import random
import sys

import pytest

from dld import Act, DataLinkage
from dld.actions import all_actions, all_reclaim_actions
from dld.checks import enumerate_linkages, random_service
from dld.errors import BudgetExhausted, DldError, NonDeterministicState, UnknownFocus
from dld.linkage import flink, pflink, slink, valass
from dld.parsing import parse_linkage
from dld.scripts import parse_spec
from dld.semantics import Scan
from dld.threads import (BLOCKED, DEADLOCK, STOP, TAU, Call, DldMachine,
                         DldService, Post, Ref, Service, ThreadSpec, prefix,
                         run, step_thread, use)
from dld.universe import Universe, small_universe


def A(name, *args):
    return Act(name, args)


def test_use_terminals_pass_through():
    h = random_service(random.Random(0), ["m"])
    assert use(STOP, "dld", h) is STOP
    assert use(DEADLOCK, "dld", h) is DEADLOCK


def test_use_processes_own_focus(demo_universe, L):
    h = DldService(DataLinkage.empty(demo_universe))
    t = Post(Call("dld", A("getatobj", "r")), STOP, DEADLOCK)
    out = use(t, "dld", h)
    # positive reply: a tau prefix of the transformed then branch
    assert isinstance(out, Post) and out.action is TAU and out.then is STOP


def test_use_blocked_becomes_deadlock(demo_universe):
    h = DldService(DataLinkage.empty(demo_universe))
    t = Post(Call("dld", "no-such-method"), STOP, STOP)
    assert use(t, "dld", h) is DEADLOCK


def test_use_other_focus_untouched(demo_universe):
    h = DldService(DataLinkage.empty(demo_universe))
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
    svc = DldService(DataLinkage.empty(demo_universe))
    act = A("getatobj", "r")
    reply, svc2 = svc.process(act)
    assert reply is True
    assert svc2.render() == "r:#0"
    # unknown methods block forever
    _, svc3 = svc2.process("nonsense")
    assert svc3.render() == "undef"
    reply, svc4 = svc3.process(act)
    assert reply == BLOCKED
    assert svc4.process(A("undeftst", "r"))[0] == BLOCKED


def test_dld_service_variants(demo_universe, L):
    state = L("r:#0")
    assert DldService(state, "plain").process(A("fgc"))[0] == BLOCKED
    assert DldService(state, "dldr").process(A("fgc"))[0] is True
    with pytest.raises(NonDeterministicState):
        DldService(L("s:#0, s:#1"))


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
    assert DldService(state, "dldr").process(act)[0] is False
    reply, svc = DldService(state, "afgc").process(act)
    assert reply is True
    assert svc.render() == "s:#0, t:#1"


def test_afgc_matches_manual_composition(tiny_universe):
    from dld.reclaim import fgc
    from dld.semantics import perform
    u = tiny_universe
    rng = random.Random(4)
    states = [l for l in enumerate_linkages(u) if l.is_deterministic()]
    for l in rng.sample(states, 100):
        act = A("getatobj", "s")
        reply, svc = DldService(l, "afgc").process(act)
        assert (svc.state, reply) == perform(act, fgc(l))


def test_afgc_collects_once_per_getatobj(tiny_universe, monkeypatch):
    # run applies fgc's changes to its heap and use takes fgc of the
    # state: both go through fgc_changes
    import dld.reclaim
    calls = []
    collect = dld.reclaim.fgc_changes

    def counted(links):
        calls.append(links)
        return collect(links)

    monkeypatch.setattr(dld.reclaim, "fgc_changes", counted)
    u = tiny_universe
    state = parse_linkage("s:#0, #1.f:#1", u)
    spec = parse_spec("main = getatobj(t) ; clrspot(t) ; getatobj(t) ; S", u)
    steps = list(run(spec, {"dld": DldService(state, "afgc")}))
    assert [reply for _, reply in steps] == ["T", "T", "T"]
    assert len(calls) == 2
    calls.clear()
    assert use(spec.entry(), "dld", DldService(state, "afgc")) is not DEADLOCK
    assert len(calls) == 2


def test_run_unknown_focus_raises(demo_universe):
    spec = parse_spec("main = aux.m ; S", demo_universe)
    with pytest.raises(UnknownFocus):
        list(run(spec, {"dld": DldService(DataLinkage.empty(demo_universe))}, 10))


def test_run_tau_loop_budget(demo_universe):
    spec = parse_spec("main = X\nX = tau . X", demo_universe)
    trace = run(spec, {"dld": DldService(DataLinkage.empty(demo_universe))}, 25)
    steps = list(trace)
    assert trace.terminal == "BudgetExhausted"
    assert len(steps) == 25
    assert all(action == "tau" for action, _ in steps)


def test_run_immediate_deadlock(demo_universe):
    spec = parse_spec("main = D", demo_universe)
    trace = run(spec, {"dld": DldService(DataLinkage.empty(demo_universe))}, 10)
    assert not list(trace) and trace.terminal == "Deadlock"


def test_run_branches_on_reply(demo_universe, L):
    script = "main = undeftst(r) ? getatobj(r) ; S : D"
    spec = parse_spec(script, demo_universe)
    trace = run(spec, {"dld": DldService(DataLinkage.empty(demo_universe))}, 10)
    assert [action for action, _ in trace] == ["undeftst(r)", "getatobj(r)"]
    assert trace.terminal == "Stop"
    trace = run(spec, {"dld": DldService(L("r:#0"))}, 10)
    list(trace)
    assert trace.terminal == "Deadlock"


def test_run_keeps_services_untouched_without_actions(demo_universe):
    spec = parse_spec("main = tau . tau . S", demo_universe)
    svc = DldService(DataLinkage.empty(demo_universe))
    trace = run(spec, {"dld": svc}, 10)
    assert all(trace.render() == "0" for _ in trace)
    assert trace.terminal == "Stop"


def test_run_leaves_the_callers_services_untouched(demo_universe):
    spec = parse_spec("main = getatobj(r) ; getatobj(t) ; S", demo_universe)
    services = {"dld": DldService(DataLinkage.empty(demo_universe))}
    trace = run(spec, services, 10)
    assert [trace.render() for _ in trace] == ["r:#0", "r:#0, t:#1"]
    assert services["dld"].render() == "0"
    assert isinstance(services["dld"], DldService)


def test_step_thread(demo_universe):
    services = {"dld": DldService(DataLinkage.empty(demo_universe))}
    t, step, terminal = step_thread(prefix(TAU, STOP), None, services)
    assert step == ("tau", "T") and terminal is None and t is STOP
    t, step, terminal = step_thread(STOP, None, services)
    assert terminal == "Stop"
    spec = ThreadSpec({"X": STOP}, "X")
    t, step, terminal = step_thread(Ref("X"), spec, services)
    assert terminal == "Stop"


def _trace_text(trace) -> str:
    """The lines `dld run --output trace` prints for a run."""
    lines = [f"init {trace.render()}"]
    lines += [f"{action} {reply} {trace.render()}" for action, reply in trace]
    return "\n".join(lines + [trace.terminal.lower()])


def test_trace_render_is_stable(demo_universe):
    script = "main = getatobj(r) ; getatobj(t) ; S"
    spec = parse_spec(script, demo_universe)
    out1 = _trace_text(run(spec, {"dld": DldService(DataLinkage.empty(demo_universe))}, 10))
    out2 = _trace_text(run(spec, {"dld": DldService(DataLinkage.empty(demo_universe))}, 10))
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
    trace = run(spec, {"dld": DldService(DataLinkage.empty(demo_universe))}, 10)
    assert [action for action, _ in trace] == ["getatobj(r)"]
    assert trace.terminal == "Stop"


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
            r, svc = svc.process(m)
            if blocked:
                assert r == BLOCKED
            if r == BLOCKED:
                blocked = True


# --- use on long threads ------------------------------------------------------

class _LimitWatch(Service):
    """A service that checks, on every call, that the process's recursion
    limit is the one it was built under."""

    def __init__(self, inner, limit):
        self.inner, self.limit = inner, limit

    def process(self, method):
        assert sys.getrecursionlimit() == self.limit
        reply, succ = self.inner.process(method)
        return reply, _LimitWatch(succ, self.limit)


def _same_thread(t1, t2) -> bool:
    """Thread equality by an explicit walk; dataclass == recurses once
    per level, which a long residual thread overflows."""
    work, seen = [(t1, t2)], set()
    while work:
        a, b = work.pop()
        if (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if not (isinstance(a, Post) and isinstance(b, Post)):
            if a is not b:
                return False
        elif a.action != b.action:
            return False
        else:
            work += [(a.then, b.then), (a.orelse, b.orelse)]
    return True


def test_use_runs_long_threads_under_the_default_recursion_limit(demo_universe):
    limit = sys.getrecursionlimit()
    svc = _LimitWatch(DldService(DataLinkage.empty(demo_universe)), limit)
    spec = parse_spec("main = X\nX = getatobj(r) ; clrspot(r) ; X", demo_universe)
    with pytest.raises(BudgetExhausted):
        use(spec.entry(), "dld", svc, budget=100_000, spec=spec)
    assert sys.getrecursionlimit() == limit

    # a finite thread 40,000 actions deep over one other-focus action:
    # each dld action becomes a tau prefix, and the other action passes
    # through, its two branches visited apart
    n = 40_000
    t = want = prefix(Call("aux", "m"), STOP)
    for i in range(n):
        act = A("getatobj", "r") if i % 2 else A("clrspot", "r")
        t = prefix(Call("dld", act), t)
        want = prefix(TAU, want)
    out = use(t, "dld", svc, budget=n + 3)
    assert _same_thread(out, want)
    assert not _same_thread(out, prefix(TAU, want))
    with pytest.raises(BudgetExhausted):
        use(t, "dld", svc, budget=n + 2)
    assert sys.getrecursionlimit() == limit


# --- the run engine against DldService ---------------------------------------

def _check_step(svc, machine, act):
    """One action on the reference service and on the machine: the same
    reply, and the state the service moves to (the one it was in, on a
    Blocked reply).  Returns the service's successor."""
    reply, succ = svc.process(act)
    got, same = machine.process(act)
    blocked = reply == BLOCKED
    assert same is machine
    assert (got, machine.render()) == (reply, (svc if blocked else succ).render()), \
        f"{svc.variant} {act.text()} on {svc.render()}"
    return svc if blocked else succ


def test_machine_matches_the_service_on_every_deterministic_state():
    # every state and action on dldr; plain and afgc on every state for
    # the actions where they differ from dldr (the reclamation actions
    # block on plain, afgc collects before getatobj) and on every eighth
    # state for the rest, which take dldr's code path
    u = small_universe(2, 1, 2, 2)
    acts = all_actions(u)
    assert len(acts) == 102
    differs = {"plain": set(all_reclaim_actions(u)),
               "afgc": {a for a in acts if a.name == "getatobj"}}
    steps = 0
    det = [l for l in enumerate_linkages(u) if l.is_deterministic()]
    for i, l in enumerate(det):
        for variant in DldService.VARIANTS:
            svc = DldService(l, variant)
            for act in acts:
                if variant != "dldr" and i % 8 and act not in differs[variant]:
                    continue
                _check_step(svc, DldMachine(svc), act)
                steps += 1
    assert i + 1 == 1296
    assert steps == 1296 * (102 + 38 + 2) + 162 * (64 + 100)


def _random_deterministic(rng, u) -> DataLinkage:
    links = [slink(s, rng.choice(u.atoms)) for s in u.spots if rng.random() < 0.7]
    for a in u.atoms:
        for f in u.fields:
            pick = rng.random()
            if pick < 0.3:
                links.append(pflink(a, f))
            elif pick < 0.6:
                links.append(flink(a, f, rng.choice(u.atoms)))
        if rng.random() < 0.5:
            links.append(valass(a, rng.randrange(u.modulus)))
    rng.shuffle(links)
    return DataLinkage(u, links)


def _assert_heap_current(heap):
    """The heap's indexes, free-atom choice and kept render order equal
    what a fresh Scan and canonical_text give for its links."""
    l = heap.linkage()
    scan = Scan(l)
    assert (heap.spot, heap.pf, heap.fl, heap.val) == \
        (scan.spot, scan.pf, scan.fl, scan.val)
    assert set(heap.atoms) == scan.atoms and all(heap.atoms.values())
    assert heap.fresh(l.universe) == l.universe.choose_fresh(scan.atoms)
    assert heap.render() == l.canonical_text()


@pytest.mark.parametrize("bounds", [(3, 2, 3, 3), (3, 2, 6, 5)])
def test_machine_matches_the_service_on_random_traces(bounds):
    u = small_universe(*bounds)
    acts = all_actions(u)
    rng = random.Random(sum(bounds))
    for _ in range(150):
        svc = DldService(_random_deterministic(rng, u),
                         rng.choice(DldService.VARIANTS))
        machine = DldMachine(svc)
        for _ in range(100):
            svc = _check_step(svc, machine, rng.choice(acts))
            _assert_heap_current(machine.heap)


@pytest.mark.parametrize("variant", ["afgc", "dldr"])
def test_machine_collects_in_place_on_random_traces(variant):
    # collection and disposal between allocations on a universe with
    # spare atoms, so atoms are freed and taken again many times
    u = small_universe(4, 2, 12, 3)
    acts = all_actions(u)
    churn = ([a for a in acts if not a.is_basic]
             + [a for a in acts if a.name in ("getatobj", "setfield",
                                              "getfield", "clrspot")])
    rng = random.Random(len(variant))
    for _ in range(40):
        svc = DldService(_random_deterministic(rng, u), variant)
        machine = DldMachine(svc)
        for _ in range(150):
            svc = _check_step(svc, machine, rng.choice(churn))
            _assert_heap_current(machine.heap)


def test_machine_keeps_its_state_on_a_blocked_reply(demo_universe, L):
    machine = DldMachine(DldService(L("r:#0, #0.up:?")))
    assert machine.process(A("fgc")) == (BLOCKED, machine)
    assert machine.process("nonsense") == (BLOCKED, machine)
    assert machine.render() == "r:#0, #0.up:?"
    undef = DldMachine(DldService(L("r:#0")).process("nonsense")[1])
    assert undef.process(A("clrspot", "r")) == (BLOCKED, undef)
    assert undef.render() == "undef"


def test_final_output_renders_once_and_scans_once(tmp_path, capsys, monkeypatch):
    from dld.cli import main
    counts = {"render": 0, "scan": 0}
    render, scan = DataLinkage.canonical_text, Scan.__init__

    def counted_render(self):
        counts["render"] += 1
        return render(self)

    def counted_scan(self, l):
        counts["scan"] += 1
        scan(self, l)

    monkeypatch.setattr(DataLinkage, "canonical_text", counted_render)
    monkeypatch.setattr(Scan, "__init__", counted_scan)
    nodes = 500
    (tmp_path / "u.cfg").write_text(
        f"spots=r,t\nfields=up\natoms={nodes}\nmodulus=2\n")
    (tmp_path / "init.txt").write_text("0\n")
    (tmp_path / "list.thread").write_text(
        "main = X\nX = getatobj(r) ? addfield(r,up) ; setfield(r,up,t) ; "
        "setspot(t,r) ; X : S\n")
    assert main(["run", "--config", str(tmp_path / "u.cfg"),
                 "--spec", str(tmp_path / "list.thread"),
                 "--init", str(tmp_path / "init.txt"),
                 "--output", "final", "--max-steps", "5000"]) == 0
    last = f"#{nodes - 1}"
    want = ", ".join([f"r:{last}", f"t:{last}", "#0.up:?"]
                     + [f"#{k}.up:#{k - 1}" for k in range(1, nodes)])
    assert capsys.readouterr().out == want + "\n"
    assert counts["render"] <= 1 and counts["scan"] <= 1


def test_collection_and_disposal_run_in_place(tmp_path, capsys, monkeypatch):
    # a ring of 150 nodes with values, and rounds that hang a temporary
    # node off the cursor and dispose of it four ways: sd, ud, clrspot
    # then rgc, and clrspot alone, left to afgc's next collection
    from dld.cli import main
    nodes, rounds = 150, 6
    u_cfg = (f"spots=h,w,x\nfields=nx,ref\natoms={nodes + 2}\nmodulus=2\n"
             "service=afgc\n")
    ring = [f"#{i}" for i in range(nodes)]
    init = ", ".join(["h:#0", "w:#0"]
                     + [f"{a}.nx:{ring[(i + 1) % nodes]}"
                        for i, a in enumerate(ring)]
                     + [f"{a}={i % 2}" for i, a in enumerate(ring)])
    hang = "getatobj(x) ; addfield(x,ref) ; setfield(x,ref,w) ; "
    step = " ; getfield(w,w,nx) ; "
    body = (hang + "sdclrspot(x)" + step + hang + "udclrspot(x)" + step
            + hang + "clrspot(x) ; rgc" + step + hang + "clrspot(x)" + step)
    spec = "main = R0\n" + "".join(
        f"R{i} = {body}R{i + 1}\n" for i in range(rounds)) + \
        f"R{rounds} = getatobj(x) ; S\n"
    for name, text in (("u.cfg", u_cfg), ("init.txt", init),
                       ("churn.thread", spec)):
        (tmp_path / name).write_text(text + "\n")
    u = Universe(("h", "w", "x"), ("nx", "ref"),
                 tuple(f"#{i}" for i in range(nodes + 2)), 2)
    parsed = parse_spec(spec, u)
    services = {"dld": DldService(parse_linkage(init, u), "afgc")}
    want = [f"init {services['dld'].render()}"]
    t, terminal = parsed.entry(), None
    while terminal is None:
        t, taken, terminal = step_thread(t, parsed, services)
        if taken is not None:
            want.append(f"{taken[0]} {taken[1]} {services['dld'].render()}")
    want.append("stop")
    assert len(services["dld"].state) > 300

    counts = {"render": 0, "scan": 0, "build": 0}
    render, scan, build = (DataLinkage.canonical_text, Scan.__init__,
                           DataLinkage.__init__)

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(DataLinkage, "canonical_text", counted("render", render))
    monkeypatch.setattr(Scan, "__init__", counted("scan", scan))
    monkeypatch.setattr(DataLinkage, "__init__", counted("build", build))
    assert main(["run", "--config", str(tmp_path / "u.cfg"),
                 "--spec", str(tmp_path / "churn.thread"),
                 "--init", str(tmp_path / "init.txt")]) == 0
    assert capsys.readouterr().out.splitlines() == want
    assert counts["render"] == 0
    assert counts["scan"] <= 1 and counts["build"] <= 1
