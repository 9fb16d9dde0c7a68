"""Round trip between the two state representations, and the
differential checker that runs every action through both semantics and
compares the outcomes through retrieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .actions import Act
from .errors import NonDeterministicState
from .linkage import FLD, PFLD, SPOT, DataLinkage, flink, pflink, slink, valass
from .reclaim import perform_dldr
from .reclaim import effect_dldr, yield_dldr  # noqa: F401  (timed by perfbench)
from .set_model import SetState, is_tight, perform_set_reclaim
from .set_model import effect_set_reclaim, yield_set_reclaim  # noqa: F401  (timed by perfbench)
from .universe import Universe


def retrieve(st: SetState) -> DataLinkage:
    """The deterministic linkage a map triple stands for: spot links for
    defined spots, partial/full field links per the field maps, value
    associations for defined values."""
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
    return DataLinkage(st.universe, links)


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


@dataclass(frozen=True)
class CommutationVerdict:
    action: Act
    state: SetState
    passed: bool
    tight: bool
    rewrite_state: DataLinkage | None = None
    set_state: DataLinkage | None = None
    rewrite_reply: bool | None = None
    set_reply: bool | None = None

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        base = f"{status} {self.action} {retrieve(self.state).canonical_text()}"
        if self.passed:
            return base
        return (f"{base} rewrite={self.rewrite_state.canonical_text()}"
                f"/{'T' if self.rewrite_reply else 'F'}"
                f" set={self.set_state.canonical_text()}"
                f"/{'T' if self.set_reply else 'F'}"
                f" tight={str(self.tight).lower()}")


def check_commutation(act: Act, st: SetState) -> CommutationVerdict:
    """Does the action commute with retrieve?  Both the resulting state
    (as a canonical linkage) and the reply must agree."""
    l = retrieve(st)
    rewrite_state, rewrite_reply = perform_dldr(act, l)
    set_next, set_reply = perform_set_reclaim(act, st)
    set_state = retrieve(set_next)
    passed = rewrite_state == set_state and rewrite_reply == set_reply
    return CommutationVerdict(
        action=act, state=st, passed=passed, tight=is_tight(st),
        rewrite_state=rewrite_state, set_state=set_state,
        rewrite_reply=rewrite_reply, set_reply=set_reply)


def enumerate_states(universe: Universe, max_atoms: int | None = None,
                     tight_only: bool = False):
    """Every map-triple state within bounds, each exactly once.

    max_atoms bounds the number of in-use atoms (default: all of them);
    with tight_only, states where some in-use atom would be invisible in
    the retrieved linkage are skipped.
    """
    atoms = universe.atoms
    limit = len(atoms) if max_atoms is None else min(max_atoms, len(atoms))
    values = tuple(range(universe.modulus)) + (None,)
    for k in range(limit + 1):
        for used in combinations(atoms, k):
            spot_choices = (None,) + used
            field_maps = list(_field_maps(universe.fields, used))
            for sigma_vals in product(spot_choices, repeat=len(universe.spots)):
                sigma = dict(zip(universe.spots, sigma_vals))
                for zeta_maps in product(field_maps, repeat=k):
                    zeta = {a: dict(fm) for a, fm in zip(used, zeta_maps)}
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
