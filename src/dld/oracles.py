"""Slow independent oracles the fast paths are validated against.

Each oracle recomputes a result along a different route than the
shipped implementation: literal axiom chaining instead of the key-set
closed form, the collectors' rewrite rules applied one link at a time
(in an order drawn from the given `rng`) instead of one linear search,
and so on.  The test suite and the `check` command compare the two
routes.
"""

from __future__ import annotations

from .linkage import (FLD, SPOT, DataLinkage, TCombine, TEmpty, TLit,
                      TOverride, override_key)
from .universe import Universe


def override_by_axioms(xs: frozenset, ys) -> frozenset:
    """Overriding combination computed the way the equations chain:
    distribute over the right operand down to single links, then peel
    the left operand one link at a time."""
    ys = list(ys)
    if not ys:
        return frozenset(xs)
    out: set = set()
    for y in ys:
        out |= _override_single(list(xs), y)
    return frozenset(out)


def _override_single(xs: list, y) -> set:
    if not xs:
        return {y}
    head, tail = xs[0], xs[1:]
    rest = _override_single(tail, y)
    if override_key(head) == override_key(y):
        return rest
    rest.add(head)
    return rest


def normalize_by_axioms(term, universe: Universe) -> DataLinkage:
    """Fold a term using only literal axiom steps."""
    def go(t) -> frozenset:
        if isinstance(t, TEmpty):
            return frozenset()
        if isinstance(t, TLit):
            return t.linkage.links
        if isinstance(t, TCombine):
            return go(t.left) | go(t.right)
        if isinstance(t, TOverride):
            return override_by_axioms(go(t.left), go(t.right))
        raise TypeError(f"not a linkage term: {t!r}")
    return DataLinkage(universe, sorted(go(term)))


def fgc_one_at_a_time(l: DataLinkage, rng) -> DataLinkage:
    """Full collection by moving a single enabled link at a time into the
    kept part: a spot link always, any other link once a kept spot or
    field link points to its atom (the shipped collector searches once)."""
    kept: list = []
    remainder = list(l.iter_links())
    targets: set = set()
    while True:
        moves = [x for x in remainder if x[0] == SPOT or x[1] in targets]
        if not moves:
            return DataLinkage(l.universe, kept)
        link = rng.choice(moves)
        remainder.remove(link)
        kept.append(link)
        if link[0] == SPOT:
            targets.add(link[2])
        elif link[0] == FLD:
            targets.add(link[3])


def safe_dispose_staged(d: str, l: DataLinkage, rng) -> DataLinkage:
    """Safe disposal in three strict stages: first the spot-reachable
    part is kept, one move at a time; then the links to d when d turned
    out to be retained; then everything d is not involved in.  The rest
    is discarded.  A link kept in a later stage never extends the
    reachable part."""
    kept = list(fgc_one_at_a_time(l, rng).iter_links())
    kept_set = set(kept)
    retained = any((x[0] == SPOT and x[2] == d) or (x[0] == FLD and x[3] == d)
                   for x in kept)
    for link in l.iter_links():
        if link in kept_set:
            continue
        if link[0] == FLD:
            if (retained and link[3] == d) or (link[1] != d and link[3] != d):
                kept.append(link)
        elif link[1] != d:
            # spot links were all kept in stage one; partial links and
            # value associations stay unless they are d's own
            kept.append(link)
    return DataLinkage(l.universe, kept)


def rgc_one_at_a_time(l: DataLinkage, rng) -> DataLinkage:
    """Reference-count collection by deleting a single zero-count-anchored
    link at a time (the shipped collector counts once and cascades)."""
    links = list(l.iter_links())
    while True:
        counts: dict = {}
        for link in links:
            if link[0] == SPOT:
                counts[link[2]] = counts.get(link[2], 0) + 1
            elif link[0] == FLD:
                counts[link[3]] = counts.get(link[3], 0) + 1
        dead = [x for x in links
                if x[0] != SPOT and counts.get(x[1], 0) == 0]
        if not dead:
            return DataLinkage(l.universe, links)
        victim = rng.choice(dead)
        links.remove(victim)


def cyclic_atoms(zeta: dict) -> frozenset:
    """Atoms on a field-link cycle, via strongly connected components:
    an atom is cyclic when its component has two or more members or it
    carries a self edge."""
    succ = {a: {b for b in fm.values() if b is not None}
            for a, fm in zeta.items()}
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    counter = [0]
    out: set = set()

    def strongconnect(v):
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in succ.get(v, ()):
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            if len(component) > 1:
                out.update(component)
            elif v in succ.get(v, ()):
                out.add(v)

    for a in succ:
        if a not in index:
            strongconnect(a)
    return frozenset(out)


def reach_inductive(a: str, zeta: dict) -> frozenset:
    """Field-successor closure computed by iterating the two defining
    rules until nothing is added."""
    out = {a}
    changed = True
    while changed:
        changed = False
        for x in list(out):
            for b in zeta.get(x, {}).values():
                if b is not None and b not in out:
                    out.add(b)
                    changed = True
    return frozenset(out)
