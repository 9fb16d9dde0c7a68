"""Garbage reclamation: full GC, reference-count-style GC, disposal.

Each collector is linear in the links: `fgc` and `safe_dispose` share
one reachability search (`_reachable`), and `rgc` counts references once
and cascades from the atoms that lose their last one.  The paper's rules
move one link at a time; `oracles` keeps those literal readings, and the
tests and the gc-cross suite check the collectors against them.

`perform_dldr` gives (next state, reply) of every action in one call;
`effect_dldr` and `yield_dldr` project it.
A safe (sd) or unsafe (ud) disposal variant evaluates its basic action's
guard once and replies as it.  When that fires a priority-1 row the state
stays unchanged, which shields disposal from non-deterministic operands;
otherwise the displaced atom is disposed of, after ud clears every other
reference to it.
"""

from __future__ import annotations

from .actions import Act
from .linkage import FLD, SPOT, DataLinkage, link_atoms, pflink
from .semantics import Scan, _apply, _spot_def, guard, perform
from .semantics import effect, yield_  # noqa: F401  (timed by perfbench)


def _reachable(l: DataLinkage) -> set:
    """Atoms reachable from spots via field links."""
    succ: dict = {}
    frontier = []
    for link in l.links:
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


def fgc(l: DataLinkage) -> DataLinkage:
    """Keep the spot links and every other link whose atom `x[1]` is
    reachable from a spot; drop everything else."""
    seen = _reachable(l)
    return l.with_links([x for x in l.iter_links()
                         if x[0] == SPOT or x[1] in seen])


def rgc(l: DataLinkage) -> DataLinkage:
    """Drop the links of atoms with no incoming link, until none is left.

    The reference count of an atom is the number of spot links and field
    links to it.  Dropping a dead atom's field links lowers its targets'
    counts, and a target whose count reaches zero dies in turn.  Cycles
    keep each other alive, so this reclaims strictly less than fgc."""
    counts: dict = {}
    succ: dict = {}
    for link in l.links:
        if link[0] == SPOT:
            counts[link[2]] = counts.get(link[2], 0) + 1
        elif link[0] == FLD:
            counts[link[3]] = counts.get(link[3], 0) + 1
            succ.setdefault(link[1], []).append(link[3])
    dead = {x[1] for x in l.links if x[0] != SPOT and x[1] not in counts}
    work = list(dead)
    while work:
        for b in succ.get(work.pop(), ()):
            counts[b] -= 1
            if not counts[b]:
                dead.add(b)
                work.append(b)
    return l.with_links([x for x in l.iter_links()
                         if x[0] == SPOT or x[1] not in dead])


def safe_dispose(d: str, l: DataLinkage) -> DataLinkage:
    """Drop every link involving atom d, unless d is reachable from a
    spot via field links (then nothing changes)."""
    if d in _reachable(l):
        return l
    return l.with_links([x for x in l.iter_links() if d not in link_atoms(x)])


def clear_refs(d: str, l: DataLinkage) -> DataLinkage:
    """Remove spot links to d and turn field links to d into partial
    field links; everything else is untouched."""
    out = []
    for link in l.iter_links():
        tag = link[0]
        if tag == SPOT and link[2] == d:
            continue
        if tag == FLD and link[3] == d:
            out.append(pflink(link[1], link[2]))
            continue
        out.append(link)
    return l.with_links(out)


# --- dispatch for the extended action set -----------------------------------

def perform_dldr(act: Act, l: DataLinkage):
    """(next state, reply) of any action, basic or reclamation."""
    if act.is_basic:
        return perform(act, l)
    if act.name == "fgc":
        return fgc(l), True
    if act.name == "rgc":
        return rgc(l), True
    scan = Scan(l)
    reply, erow, _, _, drop, add = guard(act.underlying, l, scan)
    if erow[1] == "1":
        return l, reply
    state = _apply(l, drop, add)
    # the displaced atom: the old content of the first spot or, for
    # setfield/clrfield, of its field; both unique once no shield fired
    d = _spot_def(scan, act.args[0])
    if d is not None and act.underlying.name in ("setfield", "clrfield"):
        targets = scan.fl.get((d, act.args[1]))
        d = targets[0] if targets else None
    if d is None:
        return state, reply
    if act.name.startswith("ud"):
        state = clear_refs(d, state)
    return safe_dispose(d, state), reply


def effect_dldr(act: Act, l: DataLinkage) -> DataLinkage:
    return perform_dldr(act, l)[0]


def yield_dldr(act: Act, l: DataLinkage) -> bool:
    return perform_dldr(act, l)[1]
