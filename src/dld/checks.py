"""Verification suites runnable from the CLI and from the test suite.

Each suite returns a Summary whose line() matches
`checked=<n> passed=<n> failed=<n>` exactly; per-case failure details
are collected up to a cap.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field as dc_field

from .actions import Act, all_basic_actions, all_reclaim_actions
from .errors import DldError
from .linkage import (DataLinkage, TCombine, TEmpty, TLit, TOverride, flink,
                      link_at, link_count, normalize, pflink, slink, valass)
from .oracles import fgc_one_at_a_time, normalize_by_axioms, rgc_one_at_a_time
from .reclaim import fgc, perform_each, rgc
from .refine import check_commutation, enumerate_states
from .threads import BLOCKED, DEADLOCK, STOP, TAU, Call, Post, Service, use
from .universe import Universe, small_universe

_DETAIL_CAP = 25


@dataclass
class Summary:
    name: str
    checked: int = 0
    passed: int = 0
    failed: int = 0
    failures: list = dc_field(default_factory=list)

    def ok(self):
        self.checked += 1
        self.passed += 1

    def fail(self, detail: str):
        self.checked += 1
        self.failed += 1
        if len(self.failures) < _DETAIL_CAP:
            self.failures.append(detail)

    def record(self, ok: bool, detail: str = ""):
        if ok:
            self.ok()
        else:
            self.fail(detail)

    def line(self) -> str:
        return f"checked={self.checked} passed={self.passed} failed={self.failed}"


# --- state and term generators ------------------------------------------------

def enumerate_linkages(u: Universe):
    """Every canonical state over the universe (all subsets of links)."""
    links = [link_at(u, i) for i in range(link_count(u))]
    n = len(links)
    for mask in range(1 << n):
        yield DataLinkage(u, [links[i] for i in range(n) if mask >> i & 1])


# the most states an exhaustive suite builds: each takes about a
# millisecond to check at the default universes, so about half an hour
_MAX_STATES = 2_000_000
# where counting states stops, so that a huge universe counts fast
_COUNT_LIMIT = 2 ** 64


def _refuse_unfinishable(suite: str, states: int):
    if states > _MAX_STATES:
        size = f"{states:,}" if states < _COUNT_LIMIT else "more than 2^64"
        raise DldError(f"{suite} would build {size} states over this "
                       f"universe, more than the {_MAX_STATES:,} it can "
                       "finish; choose a smaller universe")


def _state_counts(u: Universe) -> tuple:
    """(linkages, map triples): how many states enumerate_linkages and
    enumerate_states build over u, counted without building them; a
    count that reaches _COUNT_LIMIT stops there."""
    s, f, n, m = len(u.spots), len(u.fields), len(u.atoms), u.modulus
    linkages = 2 ** min(link_count(u), 64)
    # per set of k in-use atoms: each spot undefined or on one of them,
    # each (atom, field) entry absent, partial or on one, each value
    # absent or one of the modulus
    triples, subsets = 0, 1
    for k in range(n + 1):
        triples += subsets * (k + 1) ** s * (k + 2) ** (f * k) * (m + 1) ** k
        if triples >= _COUNT_LIMIT:
            return linkages, _COUNT_LIMIT
        subsets = subsets * (n - k) // (k + 1)
    return linkages, triples


# the most links a random linkage has
_RANDOM_LINKS = 5


def random_linkage(rng: random.Random, u: Universe) -> DataLinkage:
    """Up to _RANDOM_LINKS distinct links of the universe."""
    count = link_count(u)
    k = rng.randint(0, min(_RANDOM_LINKS, count))
    if count <= sys.maxsize:
        picks = rng.sample(range(count), k)
    else:
        # sample takes the length of its range, which must fit a C ssize_t
        picks = []
        while len(picks) < k:
            i = rng.randrange(count)
            if i not in picks:
                picks.append(i)
    return DataLinkage(u, [link_at(u, i) for i in picks])


def random_term(rng: random.Random, u: Universe, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return TEmpty()
        return TLit(random_linkage(rng, u))
    kind = TCombine if rng.random() < 0.5 else TOverride
    return kind(random_term(rng, u, depth - 1), random_term(rng, u, depth - 1))


# --- axiom suite ---------------------------------------------------------------

def _axiom_cases(rng: random.Random, u: Universe):
    """One random closed instantiation of every combination and override
    axiom; yields (name, lhs term, rhs term)."""
    X = random_term(rng, u, 3)
    Y = random_term(rng, u, 3)
    Z = random_term(rng, u, 3)
    s, t = rng.sample(u.spots, 2) if len(u.spots) > 1 else (u.spots[0],) * 2
    a = rng.choice(u.atoms)
    b = rng.choice(u.atoms)
    c = rng.choice(u.atoms)
    d = rng.choice(u.atoms)
    f = rng.choice(u.fields)
    g = rng.choice(u.fields)
    n = rng.randrange(u.modulus)
    m = rng.randrange(u.modulus)

    def lit(link):
        return TLit(DataLinkage(u, [link]))

    yield ("combine-comm", TCombine(X, Y), TCombine(Y, X))
    yield ("combine-assoc", TCombine(X, TCombine(Y, Z)),
           TCombine(TCombine(X, Y), Z))
    yield ("combine-idem", TCombine(X, X), X)
    yield ("combine-unit", TCombine(X, TEmpty()), X)
    yield ("override-left-unit", TOverride(TEmpty(), X), X)
    yield ("override-right-unit", TOverride(X, TEmpty()), X)
    yield ("override-distrib", TOverride(X, TCombine(Y, Z)),
           TCombine(TOverride(X, Y), TOverride(X, Z)))

    def over(u1, u2):
        return (TOverride(TCombine(X, lit(u1)), lit(u2)),
                TOverride(X, lit(u2)))

    yield ("override-spot", *over(slink(s, a), slink(s, b)))
    yield ("override-pf-pf", *over(pflink(a, f), pflink(a, f)))
    yield ("override-fl-pf", *over(flink(a, f, b), pflink(a, f)))
    yield ("override-pf-fl", *over(pflink(a, f), flink(a, f, b)))
    yield ("override-fl-fl", *over(flink(a, f, b), flink(a, f, c)))
    yield ("override-val", *over(valass(a, n), valass(a, m)))

    def commute(name, u1, u2, ok=True):
        if not ok:
            return None
        return (name,
                TOverride(TCombine(X, lit(u1)), lit(u2)),
                TCombine(TOverride(X, lit(u2)), lit(u1)))

    a2, b2 = (rng.sample(u.atoms, 2) if len(u.atoms) > 1
              else (u.atoms[0],) * 2)
    fg_a, fg_b = a, b
    fg_f, fg_g = f, g
    if fg_a == fg_b and fg_f == fg_g:
        if len(u.atoms) > 1:
            fg_a, fg_b = rng.sample(u.atoms, 2)
        elif len(u.fields) > 1:
            fg_f, fg_g = rng.sample(u.fields, 2)

    cases = [
        commute("commute-s-s", slink(s, a), slink(t, b), s != t),
        commute("commute-pf-s", pflink(a, f), slink(s, b)),
        commute("commute-fl-s", flink(a, f, b), slink(s, c)),
        commute("commute-va-s", valass(a, n), slink(s, b)),
        commute("commute-s-pf", slink(s, a), pflink(b, f)),
        commute("commute-pf-pf", pflink(fg_a, fg_f), pflink(fg_b, fg_g),
                fg_a != fg_b or fg_f != fg_g),
        commute("commute-fl-pf", flink(fg_a, fg_f, b), pflink(fg_b, fg_g),
                fg_a != fg_b or fg_f != fg_g),
        commute("commute-va-pf", valass(a, n), pflink(b, f)),
        commute("commute-s-fl", slink(s, a), flink(b, f, c)),
        commute("commute-pf-fl", pflink(fg_a, fg_f), flink(fg_b, fg_g, c),
                fg_a != fg_b or fg_f != fg_g),
        commute("commute-fl-fl", flink(fg_a, fg_f, b), flink(fg_b, fg_g, d),
                fg_a != fg_b or fg_f != fg_g),
        commute("commute-va-fl", valass(a, n), flink(b, f, c)),
        commute("commute-s-va", slink(s, a), valass(b, n)),
        commute("commute-pf-va", pflink(a, f), valass(b, n)),
        commute("commute-fl-va", flink(a, f, b), valass(c, n)),
        commute("commute-va-va", valass(a2, n), valass(b2, m), a2 != b2),
    ]
    for case in cases:
        if case is not None:
            yield case


def suite_axioms(u: Universe | None = None, cases: int = 100,
                 seed: int = 0) -> Summary:
    u = u or default_universe("axioms")
    rng = random.Random(seed)
    summary = Summary("axioms")
    for _ in range(cases):
        for name, lhs, rhs in _axiom_cases(rng, u):
            left = normalize(lhs, u)
            right = normalize(rhs, u)
            if left == right:
                summary.ok()
            else:
                summary.fail(f"{name}: {left.canonical_text()} != "
                             f"{right.canonical_text()}")
    return summary


# --- normalization suite --------------------------------------------------------

# how many of thm1's terms are also normalized by chaining axioms, and
# how deep its random terms nest
_THM1_ORACLE_SAMPLES = 100
_THM1_DEPTH = 6


def suite_thm1(u: Universe | None = None, cases: int = 1000,
               seed: int = 0) -> Summary:
    u = u or default_universe("thm1")
    rng = random.Random(seed)
    summary = Summary("thm1")
    sampled = set(rng.sample(range(cases), min(_THM1_ORACLE_SAMPLES, cases)))
    for i in range(cases):
        term = random_term(rng, u, _THM1_DEPTH)
        nf = normalize(term, u)
        ok = normalize(TCombine(term, term), u) == nf
        ok = ok and normalize(TCombine(TLit(nf), TLit(nf)), u) == nf
        if i in sampled:
            ok = ok and normalize_by_axioms(term, u) == nf
        if ok:
            summary.ok()
        else:
            summary.fail(f"term {i}: {nf.canonical_text()}")
    return summary


# --- uniqueness / totality suite -------------------------------------------------

# shuffled link orders per state for the basic and the reclamation
# actions, and how many random states the reclamation half samples for
# its non-deterministic ones
_THM2_SHUFFLES = 5
_THM2_RECLAIM_SHUFFLES = 2
_THM2_NONDET_SAMPLES = 300


def suite_thm2(u: Universe | None = None, seed: int = 0) -> Summary:
    """Every basic action on every state, re-evaluated under shuffled
    link orders; reclamation actions likewise on every deterministic
    state plus sampled non-deterministic ones."""
    u = u or default_universe("thm2")
    _refuse_unfinishable("thm2", _state_counts(u)[0])
    rng = random.Random(seed)
    summary = Summary("thm2")
    basic = all_basic_actions(u)
    reclaim = all_reclaim_actions(u)
    states = list(enumerate_linkages(u))
    _check_shuffles(summary, rng, states, basic,
                    lambda l: perform_each(basic, l), _THM2_SHUFFLES)
    det = [l for l in states if l.is_deterministic()]
    nondet = [l for l in rng.sample(states, min(_THM2_NONDET_SAMPLES,
                                                len(states)))
              if not l.is_deterministic()]
    _check_shuffles(summary, rng, det + nondet, reclaim,
                    lambda l: perform_each(reclaim, l),
                    _THM2_RECLAIM_SHUFFLES)
    return summary


def _check_shuffles(summary, rng, states, actions, outcomes, shuffles):
    """Record, per state and action, whether the (next state, reply)
    outcome has a bool reply and stays the same when the state's links
    come in shuffled orders; `outcomes(l)` lists one per action."""
    for l in states:
        base = outcomes(l)
        agree = [isinstance(reply, bool) for _, reply in base]
        for _ in range(shuffles):
            order = list(l.iter_links())
            rng.shuffle(order)
            again = outcomes(DataLinkage(l.universe, order))
            agree = [ok and x == y for ok, x, y in zip(agree, again, base)]
        for a, ok in zip(actions, agree):
            if ok:
                summary.ok()
            else:
                summary.fail(f"{a} on {l.canonical_text()}: "
                             "diverged under shuffle")


# --- differential suite -----------------------------------------------------------

def suite_thm3(u: Universe | None = None,
               include_nontight: bool = False) -> Summary:
    u = u or default_universe("thm3")
    _refuse_unfinishable("thm3", _state_counts(u)[1])
    summary = Summary("thm3")
    instances = all_basic_actions(u) + all_reclaim_actions(u)
    for st in enumerate_states(u, tight_only=not include_nontight):
        for failure in check_commutation(st, instances):
            summary.record(failure is None, failure)
    return summary


# --- garbage collection cross-model suite -----------------------------------------

def suite_gc_cross(u: Universe | None = None, seed: int = 0) -> Summary:
    u = u or default_universe("gc-cross")
    _refuse_unfinishable("gc-cross", sum(_state_counts(u)))
    rng = random.Random(seed)
    summary = Summary("gc-cross")
    collectors = (Act("fgc"), Act("rgc"))
    for st in enumerate_states(u, tight_only=True):
        for failure in check_commutation(st, collectors):
            summary.record(failure is None, failure)
    for l in enumerate_linkages(u):
        full = fgc(l)
        restricted = rgc(l)
        if (full.links <= restricted.links
                and fgc(restricted) == full
                and full == fgc_one_at_a_time(l, rng)
                and restricted == rgc_one_at_a_time(l, rng)):
            summary.ok()
        else:
            summary.fail(f"gc inclusion failed on {l.canonical_text()}")
    return summary


# --- thread/service suite -----------------------------------------------------------

class TableService(Service):
    """Finite randomized service: explicit reply and successor tables
    with a designated absorbing blocked state."""

    def __init__(self, table: dict, state):
        self.table = table
        self.state = state

    def process(self, method):
        if self.state == "blocked":
            return BLOCKED, self
        reply, successor = self.table[(method, self.state)]
        return reply, TableService(self.table, successor)


# how many states a random service has besides the blocked one
_SERVICE_STATES = 4


def random_service(rng: random.Random, methods) -> TableService:
    table = {}
    for m in methods:
        for s in range(_SERVICE_STATES):
            roll = rng.random()
            if roll < 0.15:
                table[(m, s)] = (BLOCKED, "blocked")
            else:
                table[(m, s)] = (roll < 0.6, rng.randrange(_SERVICE_STATES))
    return TableService(table, rng.randrange(_SERVICE_STATES))


def random_thread(rng: random.Random, depth: int, foci, methods):
    if depth <= 0 or rng.random() < 0.25:
        return STOP if rng.random() < 0.6 else DEADLOCK
    left = random_thread(rng, depth - 1, foci, methods)
    right = random_thread(rng, depth - 1, foci, methods)
    if rng.random() < 0.15:
        return Post(TAU, left, left)
    return Post(Call(rng.choice(foci), rng.choice(methods)), left, right)


def thread_equal(t1, t2, depth: int = 32) -> bool:
    if depth <= 0:
        return True
    if t1 is STOP or t1 is DEADLOCK or t2 is STOP or t2 is DEADLOCK:
        return t1 is t2
    if not (isinstance(t1, Post) and isinstance(t2, Post)):
        return False
    if t1.action is not TAU or t2.action is not TAU:
        if t1.action is TAU or t2.action is TAU:
            return False
        if t1.action != t2.action:
            return False
    return (thread_equal(t1.then, t2.then, depth - 1)
            and thread_equal(t1.orelse, t2.orelse, depth - 1))


def suite_tsu(cases: int = 500, seed: int = 0) -> Summary:
    rng = random.Random(seed)
    summary = Summary("tsu")
    methods = ["m1", "m2", "m3"]
    foci = ["dld", "aux"]
    for i in range(cases):
        h = random_service(rng, methods)
        x = random_thread(rng, 4, foci, methods)
        y = random_thread(rng, 4, foci, methods)
        m = rng.choice(methods)
        f, g = "dld", "aux"

        ok = use(STOP, f, h) is STOP
        summary.record(ok, f"case {i}: TSU1")
        ok = use(DEADLOCK, f, h) is DEADLOCK
        summary.record(ok, f"case {i}: TSU2")

        lhs = use(Post(TAU, x, y), f, h)
        inner = use(x, f, h)
        summary.record(thread_equal(lhs, Post(TAU, inner, inner)),
                       f"case {i}: TSU3")

        lhs = use(Post(Call(g, m), x, y), f, h)
        rhs = Post(Call(g, m), use(x, f, h), use(y, f, h))
        summary.record(thread_equal(lhs, rhs), f"case {i}: TSU4")

        reply, successor = h.process(m)
        lhs = use(Post(Call(f, m), x, y), f, h)
        if reply is BLOCKED or reply == BLOCKED:
            summary.record(lhs is DEADLOCK, f"case {i}: TSU7")
        else:
            branch = x if reply else y
            inner = use(branch, f, successor)
            axiom = "TSU5" if reply else "TSU6"
            summary.record(thread_equal(lhs, Post(TAU, inner, inner)),
                           f"case {i}: {axiom}")

        # blocked replies are absorbing along any method sequence
        svc = random_service(rng, methods)
        seen_blocked = False
        absorbed = True
        for _ in range(20):
            m2 = rng.choice(methods)
            r, svc = svc.process(m2)
            if seen_blocked and r is not BLOCKED:
                absorbed = False
                break
            if r is BLOCKED:
                seen_blocked = True
        summary.record(absorbed, f"case {i}: blocked absorption")
    return summary


SUITES = {
    "axioms": suite_axioms,
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "thm3": suite_thm3,
    "gc-cross": suite_gc_cross,
    "tsu": suite_tsu,
}

# the bounds (spots, fields, atoms, modulus) of the universe each suite
# checks unless told otherwise; `dld check` passes a suite only the
# keywords its signature names
DEFAULT_BOUNDS = {
    "axioms": (3, 2, 3, 3),
    "thm1": (2, 2, 3, 3),
    "thm2": (2, 1, 2, 2),
    "thm3": (2, 1, 2, 2),
    "gc-cross": (2, 1, 2, 2),
}


def default_universe(suite: str) -> Universe:
    return small_universe(*DEFAULT_BOUNDS[suite])
