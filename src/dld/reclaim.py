"""Garbage reclamation: full GC, reference-count-style GC, disposal.

Each collector is written once, as its changes given a state's links:
(link dropped, link added or None) pairs, as a basic action's guard
gives one.  `fgc`, `rgc`, `safe_dispose` and `clear_refs` apply them to
a DataLinkage, run mode to a `Heap` in place.  Each is linear in the
links; `oracles` keeps the paper's one-link-at-a-time readings, and the
tests and the gc-cross suite check the collectors against them.

`reclaim_in_place` performs a reclamation action on a Heap, and
`perform_each` a list of actions on one DataLinkage, through one
per-action step; `perform_dldr` is its one-action projection.  A safe
(sd) or unsafe (ud) disposal variant evaluates its basic action's guard
once and replies as it.  A priority-1 row leaves the state unchanged,
which shields disposal from non-deterministic operands; otherwise the
displaced atom is disposed of, after ud clears every other reference to
it.
"""

from __future__ import annotations

from .actions import UNDERLYING, Act
from .linkage import FLD, SPOT, DataLinkage, link_atoms, pflink
from .semantics import GUARDS, Scan, _changed, _spot_def
from .semantics import effect, yield_  # noqa: F401  (timed by perfbench)


def _reachable(links) -> set:
    """Atoms reachable from spots via field links."""
    succ: dict = {}
    frontier = []
    for link in links:
        if link[0] == SPOT:
            frontier.append(link[2])
        elif link[0] == FLD:
            succ.setdefault(link[1], []).append(link[3])
    seen = set(frontier)
    while frontier:
        for b in succ.get(frontier.pop(), ()):
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def fgc_changes(links) -> list:
    """fgc keeps the spot links and every other link whose atom `x[1]`
    is reachable from a spot, and drops everything else."""
    seen = _reachable(links)
    return [(x, None) for x in links if x[0] != SPOT and x[1] not in seen]


def rgc_changes(links) -> list:
    """rgc drops the links of atoms with no incoming link, until none is
    left.

    The reference count of an atom is the number of spot links and field
    links to it.  Dropping a dead atom's field links lowers its targets'
    counts, and a target whose count reaches zero dies in turn.  Cycles
    keep each other alive, so this reclaims strictly less than fgc."""
    counts: dict = {}
    succ: dict = {}
    for link in links:
        if link[0] == SPOT:
            counts[link[2]] = counts.get(link[2], 0) + 1
        elif link[0] == FLD:
            counts[link[3]] = counts.get(link[3], 0) + 1
            succ.setdefault(link[1], []).append(link[3])
    dead = {x[1] for x in links if x[0] != SPOT and x[1] not in counts}
    work = list(dead)
    while work:
        for b in succ.get(work.pop(), ()):
            counts[b] -= 1
            if not counts[b]:
                dead.add(b)
                work.append(b)
    return [(x, None) for x in links if x[0] != SPOT and x[1] in dead]


def dispose_changes(d: str, links) -> list:
    """Safe disposal drops every link involving atom d, unless d is
    reachable from a spot via field links (then nothing changes)."""
    if d in _reachable(links):
        return []
    return [(x, None) for x in links if d in link_atoms(x)]


def clear_changes(d: str, links) -> list:
    """Clearing removes spot links to d and turns field links to d into
    partial field links; everything else is untouched."""
    out = []
    for x in links:
        if x[0] == SPOT and x[2] == d:
            out.append((x, None))
        elif x[0] == FLD and x[3] == d:
            out.append((x, pflink(x[1], x[2])))
    return out


def _in_place(heap, changes):
    for drop, add in changes:
        heap.apply(drop, add)
    return heap


def fgc(l: DataLinkage) -> DataLinkage:
    return _changed(l, fgc_changes(l.links))


def rgc(l: DataLinkage) -> DataLinkage:
    return _changed(l, rgc_changes(l.links))


def safe_dispose(d: str, l: DataLinkage) -> DataLinkage:
    return _changed(l, dispose_changes(d, l.links))


def clear_refs(d: str, l: DataLinkage) -> DataLinkage:
    return _changed(l, clear_changes(d, l.links))


# --- dispatch for the extended action set -----------------------------------

_COLLECTORS = frozenset(("fgc", "rgc"))


def _collect(name: str, links) -> list:
    return fgc_changes(links) if name == "fgc" else rgc_changes(links)


def _displaced(basic: Act, scan):
    """The atom a disposal variant disposes of, read off the scan of the
    state before its basic action: the old content of the first spot or,
    for setfield/clrfield, of its field; both unique once no shield
    fired.  None when there is none."""
    d = _spot_def(scan, basic.args[0])
    if d is not None and basic.name in ("setfield", "clrfield"):
        targets = scan.fl.get((d, basic.args[1]))
        d = targets[0] if targets else None
    return d


def _step(act: Act, basic: Act, guarded, scan, moved, change):
    """(state after, reply) of `act`, which is `basic` or one of its
    disposal variants, given `guarded`, the guard result of `basic` on
    `scan`, the index of the state before the action (a Heap is its own).
    `moved()` gives the state that basic's own change leaves, and
    `change(state, changes)` makes further changes.  A variant reads its
    displaced atom off the scan before `moved()` and then disposes of it,
    ud first clearing every other reference to it, unless a priority-1
    row shielded the state: such a row changes nothing."""
    reply, erow = guarded[0], guarded[1]
    d = None if act is basic or erow[1] == "1" else _displaced(basic, scan)
    state = moved()
    if d is not None:
        if act.name.startswith("ud"):
            state = change(state, clear_changes(d, state.links))
        state = change(state, dispose_changes(d, state.links))
    return state, reply


def reclaim_in_place(act: Act, heap) -> bool:
    """The reply of a reclamation action on a Heap, changed in place."""
    if act.name in _COLLECTORS:
        _in_place(heap, _collect(act.name, heap.links))
        return True
    basic = act.underlying
    guarded = GUARDS[basic.name](heap.universe, heap, *basic.args)
    return _step(act, basic, guarded, heap,
                 lambda: _in_place(heap, (guarded[4:],)), _in_place)[1]


def perform_each(actions, l: DataLinkage) -> list:
    """(next state, reply) of each action on l, in order.  One Scan of l
    serves every action, built only when one needs it, and each basic
    action is evaluated at most once: its disposal variants share its
    guard call and its next state, whichever of them comes first in the
    list."""
    scan = None
    shared: dict = {}  # (name, args) -> (guard result, next state)
    out = []
    for act in actions:
        name = act.name
        if name in _COLLECTORS:
            out.append((_changed(l, _collect(name, l.links)), True))
            continue
        basic = act.underlying if name in UNDERLYING else act
        key = basic.name, basic.args
        done = shared.get(key)
        if done is None:
            if scan is None:
                scan = Scan(l)
            guarded = GUARDS[basic.name](l.universe, scan, *basic.args)
            done = shared[key] = guarded, _changed(l, (guarded[4:],))
        guarded, after = done
        out.append(_step(act, basic, guarded, scan, lambda: after, _changed))
    return out


def perform_dldr(act: Act, l: DataLinkage):
    """(next state, reply) of any action, basic or reclamation."""
    return perform_each((act,), l)[0]


def effect_dldr(act: Act, l: DataLinkage) -> DataLinkage:
    return perform_dldr(act, l)[0]


def yield_dldr(act: Act, l: DataLinkage) -> bool:
    return perform_dldr(act, l)[1]
