"""Threads, services and their interaction.

A thread is deadlock, termination, or a postconditional composition:
perform an action, continue left on reply True and right on False.  The
internal action tau always takes the left branch.  A service processes a
method in one call, `process`, which gives its reply (True, False or
Blocked) and the successor service; once a service replies Blocked it
stays blocked forever.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from .actions import BASIC_SIGNATURES, RECLAIM_SIGNATURES, Act
from .errors import BudgetExhausted, DldError, NonDeterministicState, UnknownFocus
from .linkage import DataLinkage
from .reclaim import fgc, perform_dldr
from .reclaim import effect_dldr, yield_dldr  # noqa: F401  (timed by perfbench)
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
    """State machine interface: process(m) gives (reply, successor) with
    the reply in {True, False, BLOCKED}; reply and derive project it."""

    def process(self, method) -> tuple:
        raise NotImplementedError

    def reply(self, method):
        return self.process(method)[0]

    def derive(self, method) -> "Service":
        return self.process(method)[1]

    def render(self) -> str:
        return repr(self)


_UNDEF = object()


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

    def _accepts(self, method) -> bool:
        if not isinstance(method, Act):
            return False
        if method.name in BASIC_SIGNATURES:
            return True
        return self.variant != "plain" and method.name in RECLAIM_SIGNATURES

    def process(self, method):
        if self.state is _UNDEF or not self._accepts(method):
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


def dlds(initial: DataLinkage, variant: str = "plain") -> DldService:
    """The linkage service in state `initial`, which must be deterministic."""
    return DldService(initial, variant)


# --- the use mechanism --------------------------------------------------------

def use(t: Thread, focus: str, service: Service, budget: int = 4096,
        spec: Optional[ThreadSpec] = None) -> Thread:
    """Residual thread after the service processes every action of the
    given focus: such actions become tau prefixes of the branch chosen
    by the reply, a Blocked reply becomes deadlock, and everything else
    passes through.  Raises BudgetExhausted when the expansion does not
    finish within the budget."""
    remaining = [budget]

    def go(t, service):
        if remaining[0] <= 0:
            raise BudgetExhausted(f"use did not finish within {budget} steps")
        remaining[0] -= 1
        t = _unfold(t, spec)
        if t is STOP or t is DEADLOCK:
            return t
        if not isinstance(t, Post):
            raise DldError(f"not a thread: {t!r}")
        if t.action is TAU:
            inner = go(t.then, service)
            return Post(TAU, inner, inner)
        call = t.action
        if call.focus != focus:
            return Post(call, go(t.then, service), go(t.orelse, service))
        reply, successor = service.process(call.method)
        if reply is BLOCKED or reply == BLOCKED:
            return DEADLOCK
        branch = t.then if reply else t.orelse
        inner = go(branch, successor)
        return Post(TAU, inner, inner)

    # call depth is bounded by the budget; make room for it
    old_limit = sys.getrecursionlimit()
    want = budget + 500
    if want > old_limit:
        sys.setrecursionlimit(want)
    try:
        return go(t, service)
    finally:
        if want > old_limit:
            sys.setrecursionlimit(old_limit)


# --- execution ----------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    action: str
    reply: str
    state: str


@dataclass(frozen=True)
class ExecTrace:
    initial: str
    steps: tuple
    terminal: str

    def render(self) -> str:
        lines = [f"init {self.initial}"]
        for step in self.steps:
            lines.append(f"{step.action} {step.reply} {step.state}")
        lines.append(self.terminal.lower())
        return "\n".join(lines)


def _render_services(services: dict) -> str:
    if len(services) == 1:
        return next(iter(services.values())).render()
    return "; ".join(f"{f}={svc.render()}"
                     for f, svc in sorted(services.items()))


def step_thread(t: Thread, spec: Optional[ThreadSpec], services: dict):
    """One small step.  Returns (next thread, TraceStep or None,
    terminal name or None); services is updated in place."""
    t = _unfold(t, spec)
    if t is STOP:
        return t, None, "Stop"
    if t is DEADLOCK:
        return t, None, "Deadlock"
    if not isinstance(t, Post):
        raise DldError(f"not a thread: {t!r}")
    if t.action is TAU:
        return (t.then, TraceStep("tau", "T", _render_services(services)), None)
    call = t.action
    if call.focus not in services:
        raise UnknownFocus(f"no service for focus {call.focus!r}")
    service = services[call.focus]
    reply, successor = service.process(call.method)
    if reply is BLOCKED or reply == BLOCKED:
        return (DEADLOCK,
                TraceStep(call.text(), "B", _render_services(services)),
                "Deadlock")
    services[call.focus] = successor
    step = TraceStep(call.text(), "T" if reply else "F",
                     _render_services(services))
    return (t.then if reply else t.orelse), step, None


def run(spec: ThreadSpec, services: dict, budget: int = 1000) -> ExecTrace:
    """Execute the spec's entry thread to a terminal, recording each
    performed action with its reply and the service state after it."""
    services = dict(services)
    steps = []
    initial = _render_services(services)
    t = spec.entry()
    remaining = budget
    while True:
        t = _unfold(t, spec)
        if t is STOP:
            return ExecTrace(initial, tuple(steps), "Stop")
        if t is DEADLOCK:
            return ExecTrace(initial, tuple(steps), "Deadlock")
        if remaining <= 0:
            return ExecTrace(initial, tuple(steps), "BudgetExhausted")
        t, step, terminal = step_thread(t, spec, services)
        if step is not None:
            steps.append(step)
            remaining -= 1
        if terminal is not None:
            return ExecTrace(initial, tuple(steps), terminal)
