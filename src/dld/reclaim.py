"""Garbage reclamation: full GC, reference-count-style GC, disposal.

The collectors are worklist fixpoints over the link set.  Moves are
monotone (once a link is enabled it stays enabled within its priority
band), so moving every enabled link per round gives the same result as
any fair one-at-a-time strategy; the `rng` parameter switches to a
randomised one-move-at-a-time strategy so tests can confirm that.

`perform_dldr` gives (next state, reply) of every action in one call.
A safe (sd) or unsafe (ud) disposal variant evaluates its basic action's
guard once and replies as it.  When that fires a priority-1 row the state
stays unchanged, which shields disposal from non-deterministic operands;
otherwise the displaced atom is disposed of, after ud clears every other
reference to it.
"""

from __future__ import annotations

from .actions import Act
from .linkage import FLD, SPOT, DataLinkage, pflink
from .semantics import Scan, _apply, _spot_def, guard, perform
from .semantics import effect, yield_  # noqa: F401  (timed by perfbench)


def _anchor(link) -> str:
    """Atom whose reachability justifies keeping a non-spot link."""
    return link[1]


def _targets(kept) -> set:
    """Atoms that spot links or field links in `kept` point to."""
    out = set()
    for link in kept:
        if link[0] == SPOT:
            out.add(link[2])
        elif link[0] == FLD:
            out.add(link[3])
    return out


def fgc(l: DataLinkage, rng=None) -> DataLinkage:
    """Keep the part reachable from spots; drop everything else.

    Worklist: spot links move unconditionally, any other link moves once
    its anchor is the target of an already-moved link.  Moves stay
    enabled as the kept part grows, so extraction order cannot change
    the result; with `rng` one random enabled move is taken at a time
    instead of a whole round."""
    kept: list = []
    remainder = list(l.iter_links())
    targets: set = set()
    while True:
        moves = [x for x in remainder
                 if x[0] == SPOT or _anchor(x) in targets]
        if not moves:
            return l.with_links(kept)
        if rng is not None:
            moves = [rng.choice(moves)]
        for link in moves:
            remainder.remove(link)
            kept.append(link)
            if link[0] == SPOT:
                targets.add(link[2])
            elif link[0] == FLD:
                targets.add(link[3])


def rgc(l: DataLinkage, rng=None) -> DataLinkage:
    """Repeatedly drop links anchored at atoms with no incoming link.

    The reference count of an atom is the number of spot links and field
    links to it; cycles keep each other alive, so this reclaims strictly
    less than fgc."""
    links = list(l.iter_links())
    if rng is not None:
        rng.shuffle(links)
    while True:
        counts: dict = {}
        for link in links:
            if link[0] == SPOT:
                counts[link[2]] = counts.get(link[2], 0) + 1
            elif link[0] == FLD:
                counts[link[3]] = counts.get(link[3], 0) + 1
        kept = [x for x in links
                if x[0] == SPOT or counts.get(_anchor(x), 0) > 0]
        if len(kept) == len(links):
            return l.with_links(kept)
        links = kept


def safe_dispose(d: str, l: DataLinkage, rng=None) -> DataLinkage:
    """Drop every link involving atom d, unless d is reachable from a
    spot via field links (then nothing changes).

    Three strict stages: first the spot-reachable part is kept (the
    collector's worklist), then the links to d when d turned out to be
    retained, then everything d is not involved in; the rest is
    discarded.  The stages do not feed back: a link kept in a later
    stage never extends the reachable part."""
    kept = list(fgc(l, rng).iter_links())
    kept_set = set(kept)
    retained = d in _targets(kept)
    for link in l.iter_links():
        if link in kept_set:
            continue
        tag = link[0]
        if tag == FLD:
            if (retained and link[3] == d) or (link[1] != d and link[3] != d):
                kept.append(link)
        elif link[1] != d:
            # spot links were all kept in stage one; partial links and
            # value associations stay unless they are d's own
            kept.append(link)
    return l.with_links(kept)


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

def perform_dldr(act: Act, l: DataLinkage, rng=None):
    """(next state, reply) of any action, basic or reclamation."""
    if act.is_basic:
        return perform(act, l)
    if act.name == "fgc":
        return fgc(l, rng), True
    if act.name == "rgc":
        return rgc(l, rng), True
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
    return safe_dispose(d, state, rng), reply


def effect_dldr(act: Act, l: DataLinkage, rng=None) -> DataLinkage:
    return perform_dldr(act, l, rng)[0]


def yield_dldr(act: Act, l: DataLinkage) -> bool:
    """The reply alone; a disposal variant replies as its basic action."""
    if act.name in ("fgc", "rgc"):
        return True
    return guard(act if act.is_basic else act.underlying, l)[0]
