"""Garbage reclamation: full GC, reference-count-style GC, disposal.

Each collector is written once, as its changes given a state's links:
(link dropped, link added or None) pairs, as a basic action's guard
gives one.  `fgc`, `rgc`, `safe_dispose` and `clear_refs` apply them to
a DataLinkage, run mode to a `Heap` in place.  Each is linear in the
links; `oracles` keeps the paper's one-link-at-a-time readings, and the
tests and the gc-cross suite check the collectors against them.

`reclaim_in_place` performs a reclamation action on a Heap and
`perform_dldr` any action on a DataLinkage, through one sequence of
stages.  A safe (sd) or unsafe (ud) disposal variant evaluates its basic
action's guard once and replies as it.  A priority-1 row leaves the
state unchanged, which shields disposal from non-deterministic operands;
otherwise the displaced atom is disposed of, after ud clears every other
reference to it.
"""

from __future__ import annotations

from .actions import Act
from .linkage import FLD, SPOT, DataLinkage, link_atoms, pflink
from .semantics import GUARDS, Scan, _changed, _spot_def, perform
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

def _reclaim(act: Act, state, scan, change):
    """(state after, reply) of a reclamation action on a DataLinkage or a
    Heap; `change(state, changes)` makes the changes, and `scan` indexes
    the state before the action, for the disposal variants only."""
    if act.name == "fgc":
        return change(state, fgc_changes(state.links)), True
    if act.name == "rgc":
        return change(state, rgc_changes(state.links)), True
    basic = act.underlying
    reply, erow, _, _, drop, add = GUARDS[basic.name](state.universe, scan,
                                                      *basic.args)
    if erow[1] == "1":
        return state, reply
    # the displaced atom: the old content of the first spot or, for
    # setfield/clrfield, of its field; both unique once no shield fired,
    # and read before the state (which may be the scan) changes
    d = _spot_def(scan, basic.args[0])
    if d is not None and basic.name in ("setfield", "clrfield"):
        targets = scan.fl.get((d, basic.args[1]))
        d = targets[0] if targets else None
    state = change(state, [(drop, add)])
    if d is not None:
        if act.name.startswith("ud"):
            state = change(state, clear_changes(d, state.links))
        state = change(state, dispose_changes(d, state.links))
    return state, reply


def reclaim_in_place(act: Act, heap) -> bool:
    """The reply of a reclamation action on a Heap, changed in place."""
    return _reclaim(act, heap, heap, _in_place)[1]


def perform_dldr(act: Act, l: DataLinkage):
    """(next state, reply) of any action, basic or reclamation."""
    if act.is_basic:
        return perform(act, l)
    scan = None if act.name in ("fgc", "rgc") else Scan(l)
    return _reclaim(act, l, scan, _changed)


def effect_dldr(act: Act, l: DataLinkage) -> DataLinkage:
    return perform_dldr(act, l)[0]


def yield_dldr(act: Act, l: DataLinkage) -> bool:
    return perform_dldr(act, l)[1]
