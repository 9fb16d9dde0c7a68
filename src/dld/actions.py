"""Action names, signatures and enumeration.

The 19 basic actions mutate and inspect spots, fields and values; the
14 reclamation actions add garbage collection and disposal variants.
Parameters are spot or field names, by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .universe import Universe

BASIC_SIGNATURES = {
    "getatobj": ("spot",),
    "setspot": ("spot", "spot"),
    "clrspot": ("spot",),
    "equaltst": ("spot", "spot"),
    "undeftst": ("spot",),
    "addfield": ("spot", "field"),
    "rmvfield": ("spot", "field"),
    "hasfield": ("spot", "field"),
    "setfield": ("spot", "field", "spot"),
    "clrfield": ("spot", "field"),
    "getfield": ("spot", "spot", "field"),
    "asszero": ("spot",),
    "assone": ("spot",),
    "assadd": ("spot", "spot", "spot"),
    "assmul": ("spot", "spot", "spot"),
    "assneg": ("spot", "spot"),
    "assinv": ("spot", "spot"),
    "eqvaltst": ("spot", "spot"),
    "undefvtst": ("spot",),
}

RECLAIM_SIGNATURES = {
    "fgc": (),
    "rgc": (),
    "sdgetatobj": ("spot",),
    "sdsetspot": ("spot", "spot"),
    "sdclrspot": ("spot",),
    "sdsetfield": ("spot", "field", "spot"),
    "sdclrfield": ("spot", "field"),
    "sdgetfield": ("spot", "spot", "field"),
    "udgetatobj": ("spot",),
    "udsetspot": ("spot", "spot"),
    "udclrspot": ("spot",),
    "udsetfield": ("spot", "field", "spot"),
    "udclrfield": ("spot", "field"),
    "udgetfield": ("spot", "spot", "field"),
}

SIGNATURES = {**BASIC_SIGNATURES, **RECLAIM_SIGNATURES}

# the basic action each safe (sd) or unsafe (ud) disposal variant performs
# before it disposes of the atom that action displaced
UNDERLYING = {name: name[2:] for name in RECLAIM_SIGNATURES
              if name.startswith(("sd", "ud"))}


@dataclass(frozen=True)
class Act:
    name: str
    args: tuple[str, ...] = ()

    def __post_init__(self):
        if self.name not in SIGNATURES:
            raise ValueError(f"unknown action {self.name!r}")
        if len(self.args) != len(SIGNATURES[self.name]):
            raise ValueError(f"wrong arity for {self.name}: {self.args!r}")

    @property
    def is_basic(self) -> bool:
        return self.name in BASIC_SIGNATURES

    @cached_property
    def underlying(self) -> "Act":
        """The basic action of a disposal variant, on the same arguments;
        made once per Act."""
        return Act(UNDERLYING[self.name], self.args)

    def text(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(self.args)})"

    def __str__(self) -> str:
        return self.text()


def _instances(signatures: dict, universe: Universe):
    pools = {"spot": universe.spots, "field": universe.fields}
    for name, sig in signatures.items():
        for args in product(*(pools[kind] for kind in sig)):
            yield Act(name, args)


def all_basic_actions(universe: Universe) -> list[Act]:
    return list(_instances(BASIC_SIGNATURES, universe))


def all_reclaim_actions(universe: Universe) -> list[Act]:
    return list(_instances(RECLAIM_SIGNATURES, universe))


def all_actions(universe: Universe) -> list[Act]:
    return all_basic_actions(universe) + all_reclaim_actions(universe)
