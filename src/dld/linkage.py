"""Data linkages: canonical duplicate-free sets of atomic links.

An atomic link is one of four shapes, encoded as a plain tuple whose
first element is a numeric tag (the tag order is also the canonical
rendering order):

    (SPOT,  s, a)      link via spot s to atom a          "s:a"
    (PFLD,  a, f)      partial link from atom a, field f  "a.f:?"
    (FLD,   a, f, b)   link from atom a via field f to b  "a.f:b"
    (VAL,   a, n)      value n associated with atom a     "a=n"

A universe's links are numbered arithmetically in canonical order, by
tag and then by names in declaration order: `link_index` numbers a link
and `link_at` decodes a number, so no table of links is built.

A state is a DataLinkage: a set of such links over a fixed universe.
Combination is union; overriding combination replaces same-keyed links.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import DldError
from .universe import Universe

SPOT, PFLD, FLD, VAL = 0, 1, 2, 3

Link = tuple


def slink(s: str, a: str) -> Link:
    return (SPOT, s, a)


def pflink(a: str, f: str) -> Link:
    return (PFLD, a, f)


def flink(a: str, f: str, b: str) -> Link:
    return (FLD, a, f, b)


def valass(a: str, n: int) -> Link:
    return (VAL, a, n)


def override_key(link: Link) -> tuple:
    """The position a link occupies for overriding purposes.

    Spot links key on their spot; partial and full field links on their
    (atom, field) pair; value associations on their atom.
    """
    tag = link[0]
    if tag == SPOT:
        return (SPOT, link[1])
    if tag == PFLD or tag == FLD:
        return (PFLD, link[1], link[2])
    return (VAL, link[1])


def link_atoms(link: Link) -> tuple:
    """Atoms occurring in one link."""
    tag = link[0]
    if tag == SPOT:
        return (link[2],)
    if tag == FLD:
        return (link[1], link[3])
    return (link[1],)


def render_link(link: Link) -> str:
    tag = link[0]
    if tag == SPOT:
        return f"{link[1]}:{link[2]}"
    if tag == PFLD:
        return f"{link[1]}.{link[2]}:?"
    if tag == FLD:
        return f"{link[1]}.{link[2]}:{link[3]}"
    return f"{link[1]}={link[2]}"


def link_count(u: Universe) -> int:
    """How many atomic links the universe admits."""
    n = len(u.atoms)
    return n * (len(u.spots) + len(u.fields) * (1 + n) + u.modulus)


def link_index(u: Universe, link: Link) -> int:
    """A link's canonical position among the universe's links: its tag,
    then its names in declaration order.  A value link's value must be
    reduced mod the modulus, as every builder of value links leaves it."""
    tag, n = link[0], len(u.atoms)
    if tag == SPOT:
        return u.spot_index[link[1]] * n + u.atom_index[link[2]]
    base, a = len(u.spots) * n, u.atom_index[link[1]]
    if tag == VAL:
        return base + n * len(u.fields) * (1 + n) + a * u.modulus + link[2]
    pos = a * len(u.fields) + u.field_index[link[2]]
    if tag == PFLD:
        return base + pos
    return base + n * len(u.fields) + pos * n + u.atom_index[link[3]]


def link_at(u: Universe, i: int) -> Link:
    """The link at canonical position i: `link_index`'s inverse."""
    if not 0 <= i < link_count(u):
        raise IndexError(f"no link at {i}")
    atoms, fields, n = u.atoms, u.fields, len(u.atoms)
    nf = n * len(fields)
    if i < len(u.spots) * n:
        return slink(u.spots[i // n], atoms[i % n])
    i -= len(u.spots) * n
    if i >= nf * (1 + n):
        a, v = divmod(i - nf * (1 + n), u.modulus)
        return valass(atoms[a], v)
    if i < nf:
        a, f = divmod(i, len(fields))
        return pflink(atoms[a], fields[f])
    pos, b = divmod(i - nf, n)
    a, f = divmod(pos, len(fields))
    return flink(atoms[a], fields[f], atoms[b])


class DataLinkage:
    """Immutable set of atomic links over a universe.

    Keeps the construction order of its links so that tests can probe
    order-independence of the semantics; equality and rendering only
    look at the set.
    """

    __slots__ = ("universe", "links", "_order")

    def __init__(self, universe: Universe, links=()):
        ordered = dict.fromkeys(links)
        self.universe = universe
        self.links = frozenset(ordered)
        self._order = tuple(ordered)

    @classmethod
    def empty(cls, universe: Universe) -> "DataLinkage":
        return cls(universe, ())

    def iter_links(self):
        return self._order

    def canonical(self) -> tuple:
        return tuple(sorted(self.links, key=partial(link_index, self.universe)))

    def canonical_text(self) -> str:
        if not self.links:
            return "0"
        return ", ".join(render_link(x) for x in self.canonical())

    def atobj(self) -> frozenset:
        out = set()
        for link in self._order:
            out.update(link_atoms(link))
        return frozenset(out)

    def is_deterministic(self) -> bool:
        keys = {override_key(x) for x in self.links}
        return len(keys) == len(self.links)

    def combine(self, other: "DataLinkage") -> "DataLinkage":
        self._check_same(other)
        return DataLinkage(self.universe, self._order + other._order)

    def override(self, other: "DataLinkage") -> "DataLinkage":
        """Overriding combination, the closed form of the axioms.

        Distributing over the right operand bottoms out at single links,
        so a left link is dropped only when every right link claims its
        key: with one distinct right key, links on that key go; with two
        or more distinct right keys, every left link survives some
        branch and the result is a plain union.
        """
        self._check_same(other)
        if not other.links:
            return self
        keys = {override_key(y) for y in other.links}
        if len(keys) == 1:
            kept = [x for x in self._order if override_key(x) not in keys]
        else:
            kept = list(self._order)
        return DataLinkage(self.universe, tuple(kept) + other._order)

    def _check_same(self, other: "DataLinkage"):
        if self.universe is not other.universe and self.universe != other.universe:
            raise DldError("linkages belong to different universes")

    def __contains__(self, link: Link) -> bool:
        return link in self.links

    def __len__(self) -> int:
        return len(self.links)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, DataLinkage)
                and self.links == other.links
                and (self.universe is other.universe
                     or self.universe == other.universe))

    def __hash__(self) -> int:
        return hash(self.links)

    def __repr__(self) -> str:
        return f"DataLinkage({self.canonical_text()!r})"


# --- terms over linkages ---------------------------------------------------

@dataclass(frozen=True)
class TEmpty:
    pass


@dataclass(frozen=True)
class TLit:
    linkage: DataLinkage


@dataclass(frozen=True)
class TCombine:
    left: object
    right: object


@dataclass(frozen=True)
class TOverride:
    left: object
    right: object


LinkageTerm = object


def normalize(term: LinkageTerm, universe: Universe) -> DataLinkage:
    """Fold a closed term down to its basic (override-free) form.

    The walk keeps its own stack, so a term of any depth folds: each
    operator is visited once to queue its operands, left first, and once
    more to fold their values.  A combination's value is a list of links
    that the fold owns and extends, so a chain of n `+` costs O(n) and
    builds one DataLinkage; override takes DataLinkage operands."""
    values: list = []  # DataLinkages and owned link lists

    def linkage(v) -> DataLinkage:
        return DataLinkage(universe, v) if isinstance(v, list) else v

    def owned(v) -> list:
        if isinstance(v, list):
            return v
        if v.universe is not universe and v.universe != universe:
            raise DldError("linkages belong to different universes")
        return list(v.iter_links())

    stack = [(term, False)]
    while stack:
        t, operands_done = stack.pop()
        if isinstance(t, TEmpty):
            values.append(DataLinkage.empty(universe))
        elif isinstance(t, TLit):
            values.append(t.linkage)
        elif not isinstance(t, (TCombine, TOverride)):
            raise DldError(f"not a linkage term: {t!r}")
        elif operands_done:
            right = values.pop()
            left = values.pop()
            if isinstance(t, TCombine):
                left = owned(left)
                left.extend(owned(right))
                values.append(left)
            else:
                values.append(linkage(left).override(linkage(right)))
        else:
            stack += [(t, True), (t.right, False), (t.left, False)]
    return linkage(values[0])
