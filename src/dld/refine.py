"""Round trip between the two state representations, and the
differential checker that runs every action through both semantics and
compares the outcomes through retrieve.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import NonDeterministicState
from .linkage import FLD, PFLD, SPOT, DataLinkage, flink, pflink, slink, valass
from .reclaim import perform_each
from .reclaim import effect_dldr, yield_dldr  # noqa: F401  (timed by perfbench)
from .set_model import SetState, is_tight, perform_set_each
from .set_model import effect_set_reclaim, yield_set_reclaim  # noqa: F401  (timed by perfbench)
from .universe import Universe


def retrieve(st: SetState) -> DataLinkage:
    """The deterministic linkage a map triple stands for: spot links for
    defined spots, partial/full field links per the field maps, value
    associations for defined values."""
    return DataLinkage(st.universe, _retrieved_links(st))


def _retrieved_links(st: SetState) -> list:
    """retrieve(st)'s links, each once."""
    links = []
    for s in st.universe.spots:
        a = st.sigma[s]
        if a is not None:
            links.append(slink(s, a))
    for a, fm in st.zeta.items():
        for f, b in fm.items():
            links.append(pflink(a, f) if b is None else flink(a, f, b))
    for a, v in st.xi.items():
        if v is not None:
            links.append(valass(a, v))
    return links


def represent(l: DataLinkage) -> SetState:
    """The minimal (tight) map triple with retrieve(represent(l)) = l;
    rejects non-deterministic linkages."""
    if not l.is_deterministic():
        raise NonDeterministicState(l.canonical_text())
    sigma: dict = {}
    zeta: dict = {a: {} for a in l.atobj()}
    xi: dict = {a: None for a in zeta}
    for link in l.iter_links():
        tag = link[0]
        if tag == SPOT:
            sigma[link[1]] = link[2]
        elif tag == PFLD:
            zeta[link[1]][link[2]] = None
        elif tag == FLD:
            zeta[link[1]][link[2]] = link[3]
        else:
            xi[link[1]] = link[2]
    return SetState(l.universe, sigma, zeta, xi).check_invariants()


def check_commutation(st: SetState, actions) -> list:
    """Does each action commute with retrieve on st?  One entry per
    action, in order: None when both the resulting state (as a canonical
    linkage) and the reply agree, else the failure line
    `<action> <retrieved st> rewrite=<state>/<T|F> set=<state>/<T|F>
    tight=<true|false>`.  Each side evaluates every action on one state;
    st is retrieved once, and a set successor's links are compared as a
    set, made a linkage only for a failure line."""
    l = retrieve(st)
    entries = []
    for act, (rewrite_state, rewrite_reply), (set_next, set_reply) in zip(
            actions, perform_each(actions, l), perform_set_each(actions, st)):
        # a state the action left as it was retrieves to l
        set_links = (l.links if set_next is st
                     else frozenset(_retrieved_links(set_next)))
        if rewrite_reply == set_reply and rewrite_state.links == set_links:
            entries.append(None)
            continue
        set_state = DataLinkage(l.universe, set_links)
        entries.append(f"{act} {l.canonical_text()}"
                       f" rewrite={rewrite_state.canonical_text()}"
                       f"/{'T' if rewrite_reply else 'F'}"
                       f" set={set_state.canonical_text()}"
                       f"/{'T' if set_reply else 'F'}"
                       f" tight={str(is_tight(st)).lower()}")
    return entries


def enumerate_states(universe: Universe, tight_only: bool = False):
    """Every map-triple state over the universe, each exactly once; with
    tight_only, states where some in-use atom would be invisible in the
    retrieved linkage are skipped."""
    atoms = universe.atoms
    values = tuple(range(universe.modulus)) + (None,)
    for k in range(len(atoms) + 1):
        for used in combinations(atoms, k):
            spot_choices = (None,) + used
            field_maps = [dict(fm) for fm in _field_maps(universe.fields, used)]
            for sigma_vals in product(spot_choices, repeat=len(universe.spots)):
                sigma = dict(zip(universe.spots, sigma_vals))
                for zeta_maps in product(field_maps, repeat=k):
                    zeta = dict(zip(used, zeta_maps))
                    for xi_vals in product(values, repeat=k):
                        st = SetState(universe, sigma, zeta,
                                      dict(zip(used, xi_vals)))
                        if tight_only and not is_tight(st):
                            continue
                        yield st


def _field_maps(fields, used):
    """All field maps over a subset of the declared fields, entries
    pointing at an in-use atom or undefined."""
    targets = (None,) + tuple(used)
    for r in range(len(fields) + 1):
        for chosen in combinations(fields, r):
            for values in product(targets, repeat=r):
                yield tuple(zip(chosen, values))
