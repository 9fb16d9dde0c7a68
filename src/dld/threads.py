"""Threads, services and their interaction.

A thread is deadlock, termination, or a postconditional composition:
perform an action, continue left on reply True and right on False.  The
internal action tau always takes the left branch.  A service processes a
method in one call, `process`, which gives its reply (True, False or
Blocked) and the successor service; once a service replies Blocked it
stays blocked forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .actions import BASIC_SIGNATURES, RECLAIM_SIGNATURES, Act
from .errors import BudgetExhausted, DldError, NonDeterministicState, UnknownFocus
from .linkage import DataLinkage
from .reclaim import fgc, perform_dldr, reclaim_in_place
from .reclaim import effect_dldr, yield_dldr  # noqa: F401  (timed by perfbench)
from .semantics import Heap
from .semantics import effect, yield_  # noqa: F401  (timed by perfbench)


class _Terminal:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


STOP = _Terminal("S")
DEADLOCK = _Terminal("D")
TAU = _Terminal("tau")

BLOCKED = "blocked"
DEFAULT_FOCUS = "dld"


@dataclass(frozen=True)
class Call:
    focus: str
    method: object

    def text(self) -> str:
        m = self.method.text() if isinstance(self.method, Act) else str(self.method)
        if self.focus == DEFAULT_FOCUS:
            return m
        return f"{self.focus}.{m}"


@dataclass(frozen=True)
class Post:
    action: object  # TAU or a Call
    then: object
    orelse: object


@dataclass(frozen=True)
class Ref:
    name: str


Thread = object


def prefix(action, body) -> Post:
    """Action prefixing: perform the action, continue as body either way."""
    return Post(action, body, body)


class ThreadSpec:
    """Finite guarded recursive specification with a main entry."""

    def __init__(self, equations: dict, main: str):
        for name, body in equations.items():
            if isinstance(body, Ref):
                raise DldError(f"{name} is not guarded (bare reference)")
        if main not in equations:
            raise DldError(f"no equation for entry {main!r}")
        self.equations = dict(equations)
        self.main = main

    def body(self, name: str) -> Thread:
        if name not in self.equations:
            raise DldError(f"undefined thread name {name!r}")
        return self.equations[name]

    def entry(self) -> Thread:
        return self.equations[self.main]


def _unfold(t: Thread, spec: Optional[ThreadSpec]) -> Thread:
    if isinstance(t, Ref):
        if spec is None:
            raise DldError(f"unresolved reference {t.name!r}")
        return spec.body(t.name)
    return t


# --- services ----------------------------------------------------------------

class Service:
    """State machine interface: process(m) gives (reply, successor), the
    paper's reply to m, in {True, False, BLOCKED}, and the service
    derived by m."""

    def process(self, method) -> tuple:
        raise NotImplementedError

    def render(self) -> str:
        return repr(self)


_UNDEF = object()


def _accepts(variant: str, method) -> bool:
    """Whether a linkage service of this variant processes the method."""
    if not isinstance(method, Act):
        return False
    if method.name in BASIC_SIGNATURES:
        return True
    return variant != "plain" and method.name in RECLAIM_SIGNATURES


class DldService(Service):
    """Service whose states are data linkages.

    variant "plain" accepts the basic actions, "dldr" also the
    reclamation actions, and "afgc" is dldr with every getatobj treated
    as a full collection followed by getatobj.  Any other method request
    moves to the absorbing blocked state.  Every action keeps a state
    deterministic, so the constructor, where a state enters, checks that
    and `process` builds its successors through `_next` without it.
    """

    VARIANTS = ("plain", "dldr", "afgc")

    def __init__(self, state, variant: str = "plain"):
        if variant not in self.VARIANTS:
            raise DldError(f"unknown service variant {variant!r}")
        if state is not _UNDEF:
            if not isinstance(state, DataLinkage):
                raise DldError("service state must be a data linkage")
            if not state.is_deterministic():
                raise NonDeterministicState(state.canonical_text())
        self.state = state
        self.variant = variant

    def _next(self, state) -> "DldService":
        """Successor in `state`, which an action produced and so needs no
        check."""
        succ = object.__new__(DldService)
        succ.state, succ.variant = state, self.variant
        return succ

    def process(self, method):
        if self.state is _UNDEF or not _accepts(self.variant, method):
            return BLOCKED, self._next(_UNDEF)
        pre = self.state
        if self.variant == "afgc" and method.name == "getatobj":
            pre = fgc(pre)
        state, reply = perform_dldr(method, pre)
        return reply, self._next(state)

    def render(self) -> str:
        if self.state is _UNDEF:
            return "undef"
        return self.state.canonical_text()


_FGC = Act("fgc")


class DldMachine:
    """A DldService run in place over a Heap, for `run`.

    `process` gives the reply DldService.process gives, but updates this
    machine and returns it as the successor.  A basic action is one
    guard call and one in-place update.  The reclamation actions, and
    afgc's collection before getatobj, apply the collectors' changes to
    the heap in place, in time linear in the links as the collectors
    are.  A Blocked reply leaves the state as it was, since a run stops
    there and shows the state the call met.
    """

    def __init__(self, service: DldService):
        self.variant = service.variant
        self.heap = None if service.state is _UNDEF else Heap(service.state)

    def process(self, method):
        heap = self.heap
        if heap is None or not _accepts(self.variant, method):
            return BLOCKED, self
        if not method.is_basic:
            return reclaim_in_place(method, heap), self
        if self.variant == "afgc" and method.name == "getatobj":
            reclaim_in_place(_FGC, heap)
        return heap.perform(method), self

    def render(self) -> str:
        return "undef" if self.heap is None else self.heap.render()


# --- the use mechanism --------------------------------------------------------

# work items of `use`: visit a thread, or build a tau prefix or a post
_VISIT, _TAU, _POST = range(3)


def use(t: Thread, focus: str, service: Service, budget: int = 4096,
        spec: Optional[ThreadSpec] = None) -> Thread:
    """Residual thread after the service processes every action of the
    given focus: such actions become tau prefixes of the branch chosen
    by the reply, a Blocked reply becomes deadlock, and everything else
    passes through.  Raises BudgetExhausted when the expansion does not
    finish within the budget.

    The expansion keeps its own stack, so its depth is bounded by the
    budget alone.  A work item visits a thread with a service, or builds
    a residual from the residuals of the visits queued before it: a tau
    prefix from one, a post from two (then branch first)."""
    remaining = budget
    done: list = []
    work: list = [(_VISIT, t, service)]
    while work:
        kind, t, service = work.pop()
        if kind == _TAU:
            inner = done.pop()
            done.append(Post(TAU, inner, inner))
            continue
        if kind == _POST:
            orelse = done.pop()
            done.append(Post(t, done.pop(), orelse))
            continue
        if remaining <= 0:
            raise BudgetExhausted(f"use did not finish within {budget} steps")
        remaining -= 1
        t = _unfold(t, spec)
        if t is STOP or t is DEADLOCK:
            done.append(t)
            continue
        if not isinstance(t, Post):
            raise DldError(f"not a thread: {t!r}")
        if t.action is TAU:
            work += [(_TAU, None, None), (_VISIT, t.then, service)]
            continue
        call = t.action
        if call.focus != focus:
            work += [(_POST, call, None), (_VISIT, t.orelse, service),
                     (_VISIT, t.then, service)]
            continue
        reply, successor = service.process(call.method)
        if reply is BLOCKED or reply == BLOCKED:
            done.append(DEADLOCK)
            continue
        branch = t.then if reply else t.orelse
        work += [(_TAU, None, None), (_VISIT, branch, successor)]
    return done[0]


# --- execution ----------------------------------------------------------------

def _render_services(services: dict) -> str:
    if len(services) == 1:
        return next(iter(services.values())).render()
    return "; ".join(f"{f}={svc.render()}"
                     for f, svc in sorted(services.items()))


def step_thread(t: Thread, spec: Optional[ThreadSpec], services: dict):
    """One small step.  Returns (next thread, (action text, reply letter)
    or None, terminal name or None); services is updated in place, and
    left as it was on a Blocked reply."""
    t = _unfold(t, spec)
    if t is STOP:
        return t, None, "Stop"
    if t is DEADLOCK:
        return t, None, "Deadlock"
    if not isinstance(t, Post):
        raise DldError(f"not a thread: {t!r}")
    if t.action is TAU:
        return t.then, ("tau", "T"), None
    call = t.action
    if call.focus not in services:
        raise UnknownFocus(f"no service for focus {call.focus!r}")
    reply, successor = services[call.focus].process(call.method)
    if reply is BLOCKED or reply == BLOCKED:
        return DEADLOCK, (call.text(), "B"), "Deadlock"
    services[call.focus] = successor
    return (t.then if reply else t.orelse), (call.text(),
                                             "T" if reply else "F"), None


class Run:
    """A run of a spec's entry thread, one step per iteration.

    Iterating yields (action text, reply letter) for each performed
    action, T, F or B; `render()` shows the services' states at that
    point, and `terminal` names how the run ended (Stop, Deadlock or
    BudgetExhausted) once the iteration is over, None before.  The run
    works on its own copy of the services, with each DldService swapped
    for a DldMachine, so nothing is rendered unless asked for and the
    caller's services stay untouched."""

    def __init__(self, spec: ThreadSpec, services: dict, budget: int):
        self.services = {f: DldMachine(svc) if isinstance(svc, DldService)
                         else svc for f, svc in services.items()}
        self.terminal = None
        self._steps = self._go(spec, budget)

    def __iter__(self):
        return self._steps

    def _go(self, spec, budget):
        t = spec.entry()
        remaining = budget
        while self.terminal is None:
            t = _unfold(t, spec)
            if remaining <= 0 and t is not STOP and t is not DEADLOCK:
                self.terminal = "BudgetExhausted"
                return
            t, step, terminal = step_thread(t, spec, self.services)
            if step is not None:
                remaining -= 1
                yield step
            self.terminal = terminal

    def render(self) -> str:
        return _render_services(self.services)


def run(spec: ThreadSpec, services: dict, budget: int = 1000) -> Run:
    """Execute the spec's entry thread to a terminal, step by step as
    the returned Run is iterated."""
    return Run(spec, services, budget)
