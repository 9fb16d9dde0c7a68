"""Effect and yield of the basic actions on canonical states.

One rewrite system gives both the next state and the reply of an action,
so each action has one guard function: it tests the action's rows in
strictly descending priority and takes the first that matches, which is
sound because a row is enabled exactly when no higher-priority row
matches the same state.  It returns (reply, effect row, yield row,
bindings, link dropped, link added); either link may be None, and a
row's priority is the digit of its `pN.` label.  Priority-1 rows shield
against locally non-deterministic operands: they leave the state
unchanged and reply False.  Pattern positions match set-wise, so
distinct positions may bind the same link (equaltst(s,s) on a defined
spot matches its single spot link twice).

`perform` gives (next state, reply) from one scan and one guard call;
`effect` and `yield_` project it, and `evaluate` also reports the fired
rows as RuleFires for observability.  A `Heap` is a Scan that
run mode updates in place, one guard call and one (drop, add) per step.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .actions import Act
from .linkage import (FLD, PFLD, SPOT, DataLinkage, flink, link_atoms,
                      link_index, pflink, render_link, slink, valass)
from .meadow import Meadow


class Scan:
    """One-pass index of a state: spot targets, field entries, values."""

    __slots__ = ("spot", "pf", "fl", "val", "atoms")

    def __init__(self, l: DataLinkage):
        spot: dict = {}
        pf: set = set()
        fl: dict = {}
        val: dict = {}
        atoms: set = set()
        for link in l.iter_links():
            tag = link[0]
            if tag == SPOT:
                spot.setdefault(link[1], []).append(link[2])
                atoms.add(link[2])
            elif tag == PFLD:
                pf.add((link[1], link[2]))
                atoms.add(link[1])
            elif tag == FLD:
                fl.setdefault((link[1], link[2]), []).append(link[3])
                atoms.add(link[1])
                atoms.add(link[3])
            else:
                val.setdefault(link[1], []).append(link[2])
                atoms.add(link[1])
        self.spot, self.pf, self.fl, self.val, self.atoms = (
            spot, pf, fl, val, atoms)

    def fresh(self, u):
        """The atom getatobj takes: the universe's choice function."""
        return u.choose_fresh(self.atoms)


@dataclass(frozen=True)
class RuleFire:
    action: Act
    row: str
    priority: int
    bindings: dict = field(default_factory=dict, compare=False)


def _changed(l: DataLinkage, changes) -> DataLinkage:
    """l with each change's first link dropped and its second added
    (None: no link); l itself when no change names a link."""
    links = None
    for drop, add in changes:
        if drop is None and add is None:
            continue
        if links is None:
            links = dict.fromkeys(l.iter_links())
        links.pop(drop, None)
        if add is not None:
            links[add] = None
    return l if links is None else DataLinkage(l.universe, links)


def _keep(reply, row, bindings):
    """A row that leaves the state unchanged; one name for effect and yield."""
    return reply, row, row, bindings, None, None


def _shield(row, bindings):
    return _keep(False, row, bindings)


# --- guard helpers -----------------------------------------------------------

def _spot_nondet(scan, s):
    return len(scan.spot.get(s, ())) >= 2


def _spot_def(scan, s):
    ts = scan.spot.get(s)
    if ts and len(ts) == 1:
        return ts[0]
    return None


def _vals(scan, a):
    return scan.val.get(a, ())


def _spot_value_nondet(scan, s):
    """The spot's content carries two distinct value associations."""
    for a in scan.spot.get(s, ()):
        if len(_vals(scan, a)) >= 2:
            return a
    return None


def _field_state(scan, a, f):
    """(flink targets, partial present) at position (a, f); a may be None."""
    return scan.fl.get((a, f), ()), (a, f) in scan.pf


def _field_shield(a, f, targets, has_pf):
    """Priority-1 rows on a non-deterministic field position."""
    if len(targets) >= 2:
        b, c = sorted(targets)[:2]
        return _shield("p1.flink-nondet", {"a": a, "f": f, "b": b, "c": c})
    if targets and has_pf:
        return _shield("p1.flink-pflink", {"a": a, "f": f, "b": targets[0]})
    return None


def _value_shields(scan, spots):
    """Priority-1 rows of the value actions, named by operand position."""
    for pos, s in zip("stu", spots):
        if _spot_nondet(scan, s):
            return _shield(f"p1.{pos}-spot-nondet", {"s": s})
        a = _spot_value_nondet(scan, s)
        if a is not None:
            n, m = sorted(_vals(scan, a))[:2]
            return _shield(f"p1.{pos}-val-nondet",
                           {"s": s, "a": a, "n": n, "m": m})
    return None


def _test(inner):
    """A test action: the guard's reply and yield row; the state stays."""
    def test(u, scan, *args):
        reply, _, yrow, bindings, _, _ = inner(u, scan, *args)
        return reply, "p1.id", yrow, bindings, None, None
    return test


def _old_spot(s, a):
    """The spot link a change of s drops: s:a, or None when s is undefined."""
    return None if a is None else slink(s, a)


# --- one guard per action ----------------------------------------------------

def _getatobj(u, scan, s):
    if _spot_nondet(scan, s):
        return _shield("p1.spot-nondet", {"s": s})
    fresh = scan.fresh(u)
    if fresh is None:
        return _keep(False, "p2.exhausted", {"s": s})
    return (True, "p2.alloc", "p2.alloc", {"s": s, "a": fresh},
            _old_spot(s, _spot_def(scan, s)), slink(s, fresh))


def _setspot(u, scan, s, t):
    if _spot_nondet(scan, s):
        return _shield("p1.s-nondet", {"s": s})
    if _spot_nondet(scan, t):
        return _shield("p1.t-nondet", {"t": t})
    a = _spot_def(scan, t)
    b = _spot_def(scan, s)
    if a is not None:
        return (True, "p2.copy", "p2.true", {"s": s, "t": t, "a": a},
                _old_spot(s, b), slink(s, a))
    if b is not None:
        return True, "p3.clear", "p2.true", {"s": s, "a": b}, slink(s, b), None
    return True, "p4.id", "p2.true", {}, None, None


def _clrspot(u, scan, s):
    if _spot_nondet(scan, s):
        return _shield("p1.s-nondet", {"s": s})
    a = _spot_def(scan, s)
    if a is not None:
        return True, "p2.clear", "p2.true", {"s": s, "a": a}, slink(s, a), None
    return True, "p3.id", "p2.true", {}, None, None


def _equaltst(u, scan, s, t):
    if _spot_nondet(scan, s):
        return _shield("p1.s-nondet", {"s": s})
    if _spot_nondet(scan, t):
        return _shield("p1.t-nondet", {"t": t})
    a = _spot_def(scan, s)
    b = _spot_def(scan, t)
    if a is not None and a == b:
        return _keep(True, "p2.equal", {"a": a})
    if a is not None:
        return _keep(False, "p3.s-defined", {"a": a})
    if b is not None:
        return _keep(False, "p3.t-defined", {"a": b})
    return _keep(True, "p4.both-undefined", {})


def _undeftst(u, scan, s):
    if scan.spot.get(s):
        return _keep(False, "p1.defined", {"s": s})
    return _keep(True, "p2.undefined", {"s": s})


def _addfield(u, scan, s, f):
    if _spot_nondet(scan, s):
        return _shield("p1.s-nondet", {"s": s})
    a = _spot_def(scan, s)
    if a is None:
        return False, "p4.id", "p4.undefined", {}, None, None
    targets, has_pf = _field_state(scan, a, f)
    if targets:
        return _keep(False, "p2.has-flink", {"a": a, "f": f, "b": min(targets)})
    if has_pf:
        return _keep(False, "p2.has-pflink", {"a": a, "f": f})
    return True, "p3.add", "p3.ok", {"a": a, "f": f}, None, pflink(a, f)


def _field_at(scan, s, f, pos="s"):
    """Shield rows on field f of the content of s, the operand at
    position pos; else None, the content and the field's state."""
    if _spot_nondet(scan, s):
        return _shield(f"p1.{pos}-nondet", {pos: s}), None, (), False
    a = _spot_def(scan, s)
    targets, has_pf = _field_state(scan, a, f)
    return _field_shield(a, f, targets, has_pf), a, targets, has_pf


def _rmvfield(u, scan, s, f):
    shield, a, targets, has_pf = _field_at(scan, s, f)
    if shield is not None:
        return shield
    if targets:
        b = targets[0]
        return (True, "p2.rmv-flink", "p2.flink", {"a": a, "f": f, "b": b},
                flink(a, f, b), None)
    if has_pf:
        return (True, "p2.rmv-pflink", "p2.pflink", {"a": a, "f": f},
                pflink(a, f), None)
    return False, "p3.id", "p3.default", {}, None, None


def _setfield(u, scan, s, f, t):
    shield, a, targets, has_pf = _field_at(scan, s, f)
    if shield is not None:
        return shield
    if _spot_nondet(scan, t):
        return _shield("p1.t-nondet", {"t": t})
    c = _spot_def(scan, t)
    if targets:
        b = targets[0]
        if c is not None:
            return (True, "p2.retarget", "p2.flink",
                    {"a": a, "f": f, "b": b, "c": c},
                    flink(a, f, b), flink(a, f, c))
        return (True, "p3.unset", "p2.flink", {"a": a, "f": f, "b": b},
                flink(a, f, b), pflink(a, f))
    if has_pf:
        if c is not None:
            return (True, "p2.fill", "p2.pflink", {"a": a, "f": f, "b": c},
                    pflink(a, f), flink(a, f, c))
        return True, "p4.id", "p2.pflink", {}, None, None
    return False, "p4.id", "p3.default", {}, None, None


def _clrfield(u, scan, s, f):
    shield, a, targets, has_pf = _field_at(scan, s, f)
    if shield is not None:
        return shield
    if targets:
        b = targets[0]
        return (True, "p2.clear", "p2.flink", {"a": a, "f": f, "b": b},
                flink(a, f, b), pflink(a, f))
    if has_pf:
        return True, "p3.id", "p2.pflink", {}, None, None
    return False, "p3.id", "p3.default", {}, None, None


def _getfield(u, scan, s, t, f):
    if _spot_nondet(scan, s):
        return _shield("p1.s-nondet", {"s": s})
    shield, a, targets, has_pf = _field_at(scan, t, f, "t")
    if shield is not None:
        return shield
    c = _spot_def(scan, s)
    if targets:
        b = targets[0]
        return (True, "p2.fetch", "p2.flink", {"s": s, "a": a, "f": f, "b": b},
                _old_spot(s, c), slink(s, b))
    if has_pf:
        if c is not None:
            return (True, "p2.undefine", "p2.pflink",
                    {"s": s, "a": a, "f": f, "c": c}, slink(s, c), None)
        return True, "p3.id", "p2.pflink", {}, None, None
    return False, "p3.id", "p3.default", {}, None, None


def _assign(a, vals, n):
    """Drop a's value (at most one: the shields saw to that), add n."""
    return (valass(a, vals[0]) if vals else None), valass(a, n)


def _assconst(which, const_of):
    def guard(u, scan, s):
        if _spot_nondet(scan, s):
            return _shield("p1.s-nondet", {"s": s})
        a2 = _spot_value_nondet(scan, s)
        if a2 is not None:
            n, m = sorted(_vals(scan, a2))[:2]
            return _shield("p1.val-nondet", {"a": a2, "n": n, "m": m})
        a = _spot_def(scan, s)
        if a is None:
            return False, "p3.id", "p3.default", {}, None, None
        n = const_of(Meadow(u.modulus))
        return (True, f"p2.{which}", "p2.ok", {"a": a, "n": n},
                *_assign(a, _vals(scan, a), n))
    return guard


def _arith(which):
    """assadd/assmul (two operands), assneg/assinv (one): the meadow
    operation on the operands' values goes to s's content."""
    op = getattr(Meadow, which)

    def guard(u, scan, s, *operands):
        shield = _value_shields(scan, (s,) + operands)
        if shield is not None:
            return shield
        a = _spot_def(scan, s)
        values = [_vals(scan, _spot_def(scan, t)) for t in operands]
        if a is not None and all(values):
            ins = [v[0] for v in values]
            n = op(Meadow(u.modulus), *ins)
            return (True, f"p2.{which}", "p2.ok",
                    {"a": a, **dict(zip("nm", ins)), "result": n},
                    *_assign(a, _vals(scan, a), n))
        return False, "p3.id", "p3.default", {}, None, None
    return guard


def _eqvaltst(u, scan, s, t):
    shield = _value_shields(scan, (s, t))
    if shield is not None:
        return shield
    va = _vals(scan, _spot_def(scan, s))
    vb = _vals(scan, _spot_def(scan, t))
    if va and vb and va[0] == vb[0]:
        return _keep(True, "p2.equal", {"n": va[0]})
    return _keep(False, "p3.default", {})


def _undefvtst(u, scan, s):
    if _spot_nondet(scan, s):
        return _shield("p1.s-nondet", {"s": s})
    a = _spot_def(scan, s)
    if a is None:
        return _keep(False, "p4.undefined", {})
    if _vals(scan, a):
        return _keep(False, "p2.has-value", {"a": a})
    return _keep(True, "p3.no-value", {"a": a})


GUARDS = {
    "getatobj": _getatobj,
    "setspot": _setspot,
    "clrspot": _clrspot,
    "equaltst": _test(_equaltst),
    "undeftst": _test(_undeftst),
    "addfield": _addfield,
    "rmvfield": _rmvfield,
    "hasfield": _test(_rmvfield),
    "setfield": _setfield,
    "clrfield": _clrfield,
    "getfield": _getfield,
    "asszero": _assconst("zero", lambda md: md.zero()),
    "assone": _assconst("one", lambda md: md.one()),
    "assadd": _arith("add"),
    "assmul": _arith("mul"),
    "assneg": _arith("neg"),
    "assinv": _arith("inv"),
    "eqvaltst": _test(_eqvaltst),
    "undefvtst": _test(_undefvtst),
}


# --- public surface ----------------------------------------------------------

def guard(act: Act, l: DataLinkage, scan: Scan | None = None) -> tuple:
    """(reply, effect row, yield row, bindings, link dropped, link added)
    of the first row of the basic action that matches the state."""
    if scan is None:
        scan = Scan(l)
    return GUARDS[act.name](l.universe, scan, *act.args)


def perform(act: Act, l: DataLinkage, scan: Scan | None = None):
    """(next state, reply) of a basic action."""
    reply, _, _, _, drop, add = guard(act, l, scan)
    return _changed(l, ((drop, add),)), reply


def effect(act: Act, l: DataLinkage) -> DataLinkage:
    return perform(act, l)[0]


def yield_(act: Act, l: DataLinkage) -> bool:
    return guard(act, l)[0]


def evaluate(act: Act, l: DataLinkage):
    """(next state, reply, effect RuleFire, yield RuleFire) in one pass."""
    reply, erow, yrow, bindings, drop, add = guard(act, l)
    return (_changed(l, ((drop, add),)), reply,
            RuleFire(act, f"eff.{act.name}.{erow}", int(erow[1]), bindings),
            RuleFire(act, f"yld.{act.name}.{yrow}", int(yrow[1]), {**bindings}))


# --- a state updated in place --------------------------------------------------

class Heap(Scan):
    """A Scan kept up to date in place, for long runs of one state.

    Besides the Scan's indexes it holds the links as an ordered set, a
    per-atom occurrence count that serves as `atoms`, and a min-heap of
    the indexes of atoms that may be free, for `fresh`.  `apply` drops
    and adds one link each.  From the first `render` on it also keeps
    the links' `link_index` numbers and texts in canonical order,
    updated by bisection, so a render is one join.  The indexes equal
    those of `Scan(self.linkage())` after every update; run mode holds
    only deterministic states, where every index list has one entry.
    """

    __slots__ = ("universe", "links", "_free", "_keys", "_texts")

    def __init__(self, l: DataLinkage):
        Scan.__init__(self, l)
        u = self.universe = l.universe
        self.links = dict.fromkeys(l.iter_links())
        counts: dict = {}
        for link in self.links:
            for a in link_atoms(link):
                counts[a] = counts.get(a, 0) + 1
        self.atoms = counts
        self._free = [i for i, a in enumerate(u.atoms) if a not in counts]
        self._keys = self._texts = None

    def fresh(self, u):
        """`u.choose_fresh(self.atoms)` in O(log atoms) amortised time;
        atoms taken since they were pushed are popped here."""
        free, atoms, used = self._free, u.atoms, self.atoms
        while free and atoms[free[0]] in used:
            heappop(free)
        return atoms[free[0]] if free else None

    def perform(self, act: Act) -> bool:
        """The reply of a basic action, whose effect is applied in place."""
        reply, _, _, _, drop, add = GUARDS[act.name](self.universe, self,
                                                     *act.args)
        self.apply(drop, add)
        return reply

    def apply(self, drop, add):
        """Drop one link and add one (None: no link), as `_changed` does."""
        links, keys = self.links, self._keys
        if drop is not None and drop in links:
            del links[drop]
            self._index(drop, -1)
            if keys is not None:
                i = bisect_left(keys, link_index(self.universe, drop))
                del keys[i], self._texts[i]
        if add is not None and add not in links:
            links[add] = None
            self._index(add, 1)
            if keys is not None:
                key = link_index(self.universe, add)
                i = bisect_left(keys, key)
                keys.insert(i, key)
                self._texts.insert(i, render_link(add))

    def _index(self, link, delta):
        tag = link[0]
        if tag == SPOT:
            _update(self.spot, link[1], link[2], delta)
        elif tag == PFLD:
            if delta > 0:
                self.pf.add((link[1], link[2]))
            else:
                self.pf.discard((link[1], link[2]))
        elif tag == FLD:
            _update(self.fl, (link[1], link[2]), link[3], delta)
        else:
            _update(self.val, link[1], link[2], delta)
        counts = self.atoms
        for a in link_atoms(link):
            n = counts.get(a, 0) + delta
            if n:
                counts[a] = n
            else:
                del counts[a]
                heappush(self._free, self.universe.atom_index[a])

    def linkage(self) -> DataLinkage:
        return DataLinkage(self.universe, self.links)

    def render(self) -> str:
        """Byte for byte `self.linkage().canonical_text()`."""
        if self._keys is None:
            u = self.universe
            order = sorted((link_index(u, x), render_link(x))
                           for x in self.links)
            self._keys = [key for key, _ in order]
            self._texts = [text for _, text in order]
        return ", ".join(self._texts) or "0"


def _update(index: dict, key, item, delta):
    """Append item to, or remove it from, the list index[key]; an empty
    list goes, as a Scan keeps none."""
    if delta > 0:
        index.setdefault(key, []).append(item)
        return
    items = index[key]
    items.remove(item)
    if not items:
        del index[key]
