"""Set-based semantics: states as map triples (sigma, zeta, xi).

sigma maps every spot to an atom or None; zeta maps each in-use atom to
its field map (field -> atom or None); xi maps each in-use atom to its
value or None.  None is an explicit absent marker inside map codomains,
distinct from "not in the domain": dom(zeta) is the set of atoms in
use, whether or not anything links to them.
"""

from __future__ import annotations

from .actions import UNDERLYING, Act
from .errors import DldError
from .meadow import Meadow
from .universe import Universe


class SetState:
    """Map-triple state over a universe.

    A state owns the maps it is given: nothing changes a state's maps
    after construction, so a successor may share every map it does not
    change.  sigma is made total over the universe's spots, because
    callers pass partial spot maps; zeta, xi and the field maps are kept
    as given."""

    __slots__ = ("universe", "sigma", "zeta", "xi")

    def __init__(self, universe: Universe, sigma: dict, zeta: dict, xi: dict):
        self.universe = universe
        self.sigma = (sigma if sigma.keys() == universe.spot_index.keys()
                      else {s: sigma.get(s) for s in universe.spots})
        self.zeta = zeta
        self.xi = xi

    @classmethod
    def empty(cls, universe: Universe) -> "SetState":
        return cls(universe, {}, {}, {})

    def check_invariants(self):
        if set(self.zeta) != set(self.xi):
            raise DldError("dom(zeta) != dom(xi)")
        for s, a in self.sigma.items():
            if a is not None and a not in self.zeta:
                raise DldError(f"spot {s} points outside dom(zeta)")
        for a, fm in self.zeta.items():
            for f, b in fm.items():
                if b is not None and b not in self.zeta:
                    raise DldError(f"field {a}.{f} points outside dom(zeta)")
        return self

    def replace(self, sigma=None, zeta=None, xi=None) -> "SetState":
        return SetState(self.universe,
                        self.sigma if sigma is None else sigma,
                        self.zeta if zeta is None else zeta,
                        self.xi if xi is None else xi)

    def describe(self) -> str:
        """Debug rendering as three labelled blocks."""
        def show(v):
            return "_" if v is None else v

        spots = ", ".join(f"{s}->{show(self.sigma[s])}"
                          for s in self.universe.spots)
        zeta = "; ".join(
            f"{a}:{{" + ", ".join(f"{f}->{show(v)}"
                                  for f, v in sorted(fm.items())) + "}"
            for a, fm in sorted(self.zeta.items()))
        xi = ", ".join(f"{a}={show(v)}" for a, v in sorted(self.xi.items()))
        return f"sigma {spots} / zeta {zeta} / xi {xi}"

    def __eq__(self, other):
        return (isinstance(other, SetState) and self.sigma == other.sigma
                and self.zeta == other.zeta and self.xi == other.xi
                and self.universe == other.universe)

    def __hash__(self):
        return hash((frozenset(self.sigma.items()),
                     frozenset((a, frozenset(fm.items()))
                               for a, fm in self.zeta.items()),
                     frozenset(self.xi.items())))

    def __repr__(self):
        return f"SetState({self.describe()})"


def _def_spot(st: SetState, s: str) -> bool:
    return st.sigma[s] is not None


def _def_value(st: SetState, s: str) -> bool:
    a = st.sigma[s]
    return a is not None and st.xi[a] is not None


def _set_spot(st: SetState, s: str, value) -> SetState:
    return st.replace(sigma={**st.sigma, s: value})


def _set_field(st: SetState, a: str, f: str, value) -> SetState:
    return st.replace(zeta={**st.zeta, a: {**st.zeta[a], f: value}})


def _drop_field(st: SetState, a: str, f: str) -> SetState:
    fm = dict(st.zeta[a])
    del fm[f]
    return st.replace(zeta={**st.zeta, a: fm})


def _set_value(st: SetState, a: str, value) -> SetState:
    return st.replace(xi={**st.xi, a: value})


# --- the basic actions -------------------------------------------------------

_FIELD_ACTIONS = ("addfield", "rmvfield", "hasfield", "setfield", "clrfield")
# the value each assignment gives the first spot's atom, from the values
# of the atoms in the other spots
_ARITHMETIC = {"asszero": Meadow.zero, "assone": Meadow.one,
               "assadd": Meadow.add, "assmul": Meadow.mul,
               "assneg": Meadow.neg, "assinv": Meadow.inv}


def perform_set(act: Act, st: SetState) -> tuple:
    """(next state, reply) of a basic action.  Each action's condition is
    tested once; when it fails the state stays and the reply is False."""
    name, args = act.name, act.args
    if name == "getatobj":
        fresh = st.universe.choose_fresh(st.zeta)
        if fresh is None:
            return st, False
        return st.replace(sigma={**st.sigma, args[0]: fresh},
                          zeta={**st.zeta, fresh: {}},
                          xi={**st.xi, fresh: None}), True
    if name == "setspot":
        return _set_spot(st, args[0], st.sigma[args[1]]), True
    if name == "clrspot":
        return _set_spot(st, args[0], None), True
    if name == "equaltst":
        return st, st.sigma[args[0]] == st.sigma[args[1]]
    if name == "undeftst":
        return st, st.sigma[args[0]] is None
    if name in _FIELD_ACTIONS:
        a, f = st.sigma[args[0]], args[1]
        # addfield needs the field absent, the others need it present
        if a is None or (f in st.zeta[a]) == (name == "addfield"):
            return st, False
        if name == "rmvfield":
            return _drop_field(st, a, f), True
        if name == "setfield":
            return _set_field(st, a, f, st.sigma[args[2]]), True
        if name == "hasfield":
            return st, True
        return _set_field(st, a, f, None), True
    if name == "getfield":
        s, t, f = args
        a = st.sigma[t]
        if a is None or f not in st.zeta[a]:
            return st, False
        return _set_spot(st, s, st.zeta[a][f]), True
    if name == "eqvaltst":
        # amended with the definedness conjunct: the table condition is
        # literally true when both values are absent, but the rewrite
        # semantics replies False there
        s, t = args
        if not (_def_spot(st, s) and _def_spot(st, t)):
            return st, False
        vs = st.xi[st.sigma[s]]
        return st, vs is not None and vs == st.xi[st.sigma[t]]
    if name == "undefvtst":
        return st, _def_spot(st, args[0]) and not _def_value(st, args[0])
    if name in _ARITHMETIC:
        s, *operands = args
        if not (_def_spot(st, s) and all(_def_value(st, t) for t in operands)):
            return st, False
        value = _ARITHMETIC[name](Meadow(st.universe.modulus),
                                  *(st.xi[st.sigma[t]] for t in operands))
        return _set_value(st, st.sigma[s], value), True
    raise DldError(f"not a basic action: {name}")


# --- reachability and reclamation -------------------------------------------

def reach_from(a: str, zeta: dict) -> frozenset:
    """Field-successor closure of a, including a itself."""
    seen = {a}
    frontier = [a]
    while frontier:
        x = frontier.pop()
        for b in zeta.get(x, {}).values():
            if b is not None and b not in seen:
                seen.add(b)
                frontier.append(b)
    return frozenset(seen)


def reach_atoms(st: SetState) -> frozenset:
    out: set = set()
    for a in st.sigma.values():
        if a is not None and a not in out:
            out |= reach_from(a, st.zeta)
    return frozenset(out)


def incycle(zeta: dict) -> frozenset:
    out = set()
    for a, fm in zeta.items():
        for b in fm.values():
            if b is not None and a in reach_from(b, zeta):
                out.add(a)
                break
    return frozenset(out)


def clear_spot_refs(a: str, sigma: dict) -> dict:
    return {s: (None if v == a else v) for s, v in sigma.items()}


def clear_field_refs(a: str, zeta: dict) -> dict:
    return {x: {f: (None if v == a else v) for f, v in fm.items()}
            for x, fm in zeta.items()}


def sd_set(a, st: SetState) -> SetState:
    """Drop a from the in-use domain when it is unreachable; any field
    entries still targeting a (necessarily owned by unreachable atoms)
    are deleted so the state stays within its invariants."""
    if a is None or a not in st.zeta or a in reach_atoms(st):
        return st
    zeta = {x: {f: v for f, v in fm.items() if v != a}
            for x, fm in st.zeta.items() if x != a}
    xi = {x: v for x, v in st.xi.items() if x != a}
    return st.replace(zeta=zeta, xi=xi)


def ud_set(a, st: SetState) -> SetState:
    if a is None:
        return st
    return sd_set(a, st.replace(sigma=clear_spot_refs(a, st.sigma),
                                zeta=clear_field_refs(a, st.zeta)))


def _restrict(st: SetState, kept) -> SetState:
    zeta = {a: fm for a, fm in st.zeta.items() if a in kept}
    xi = {a: v for a, v in st.xi.items() if a in kept}
    return st.replace(zeta=zeta, xi=xi)


def _rgc_kept(st: SetState) -> frozenset:
    out = set(reach_atoms(st))
    for a in incycle(st.zeta):
        if a not in out:
            out |= reach_from(a, st.zeta)
    return frozenset(out)


def perform_set_each(actions, st: SetState) -> list:
    """(next state, reply) of each action on map triples, in order.  rgc
    keeps what spots reach and what field cycles reach, closed under
    field successors, matching the rewrite collector.  A disposal
    variant replies as its basic action and then disposes of the atom
    that action displaced: the old content of the first spot or, for
    setfield/clrfield, of its field.  Each basic action is performed at
    most once: a variant and its basic action share one `perform_set`
    result, whichever of them comes first in the list."""
    shared: dict = {}  # (name, args) -> perform_set's (next state, reply)
    out = []
    for act in actions:
        name = act.name
        if name == "fgc" or name == "rgc":
            kept = reach_atoms(st) if name == "fgc" else _rgc_kept(st)
            out.append((_restrict(st, kept), True))
            continue
        basic = act.underlying if name in UNDERLYING else act
        key = basic.name, basic.args
        done = shared.get(key)
        if done is None:
            done = shared[key] = perform_set(basic, st)
        if act is not basic:
            after, reply = done
            d = st.sigma[act.args[0]]
            if basic.name in ("setfield", "clrfield"):
                # a True reply means the field was there; a False one
                # changed nothing
                d = st.zeta[d][act.args[1]] if reply else None
            dispose = ud_set if name.startswith("ud") else sd_set
            done = dispose(d, after), reply
        out.append(done)
    return out


def perform_set_reclaim(act: Act, st: SetState) -> tuple:
    """(next state, reply) of any action on map triples."""
    return perform_set_each((act,), st)[0]


def effect_set_reclaim(act: Act, st: SetState) -> SetState:
    return perform_set_reclaim(act, st)[0]


def yield_set_reclaim(act: Act, st: SetState) -> bool:
    return perform_set_reclaim(act, st)[1]


# --- tightness ---------------------------------------------------------------

def _visible_atoms(st: SetState) -> set:
    out = set()
    for a in st.sigma.values():
        if a is not None:
            out.add(a)
    for a, fm in st.zeta.items():
        if fm:
            out.add(a)
        for b in fm.values():
            if b is not None:
                out.add(b)
    for a, v in st.xi.items():
        if v is not None:
            out.add(a)
    return out


def tighten(st: SetState) -> SetState:
    """Drop in-use atoms that no retrieved link would mention: nothing
    points at them, they own no fields and carry no value."""
    return _restrict(st, _visible_atoms(st))


def is_tight(st: SetState) -> bool:
    return _visible_atoms(st) == set(st.zeta)
