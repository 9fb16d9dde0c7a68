"""Universe of names a computation runs over.

A universe fixes the spot names, field names, atom identifiers and the
value modulus once; every state, action and parser checks names against
it.  Declaration order is the total order used for canonical rendering
and for the fresh-atom choice function (least unused atom).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DldError


# Miller-Rabin with the first 13 primes as bases is exact below _PRIME_BOUND
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n, below _PRIME_BOUND, is prime."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Universe:
    spots: tuple[str, ...]
    fields: tuple[str, ...]
    atoms: tuple[str, ...]
    modulus: int
    spot_index: dict = field(init=False, repr=False, compare=False)
    field_index: dict = field(init=False, repr=False, compare=False)
    atom_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for kind, names in (("spot", self.spots), ("field", self.fields),
                            ("atom", self.atoms)):
            if not names:
                raise DldError(f"universe needs at least one {kind}")
            if len(set(names)) != len(names):
                raise DldError(f"duplicate {kind} name in universe")
        if self.modulus >= _PRIME_BOUND:
            raise DldError(f"modulus must be below {_PRIME_BOUND:,}, the bound "
                           f"up to which primality is tested, got {self.modulus}")
        if not _is_prime(self.modulus):
            raise DldError(f"modulus must be prime, got {self.modulus}")
        object.__setattr__(self, "spot_index",
                           {n: i for i, n in enumerate(self.spots)})
        object.__setattr__(self, "field_index",
                           {n: i for i, n in enumerate(self.fields)})
        object.__setattr__(self, "atom_index",
                           {n: i for i, n in enumerate(self.atoms)})

    def choose_fresh(self, used) -> str | None:
        """Least atom (in declaration order) not in `used`, or None."""
        for a in self.atoms:
            if a not in used:
                return a
        return None

    def check_spot(self, name: str) -> str:
        if name not in self.spot_index:
            raise _undeclared("spot", name)
        return name

    def check_field(self, name: str) -> str:
        if name not in self.field_index:
            raise _undeclared("field", name)
        return name

    def check_atom(self, name: str) -> str:
        if name not in self.atom_index:
            raise _undeclared("atom", name)
        return name


def _undeclared(kind, name):
    from .errors import UndeclaredName

    return UndeclaredName(f"undeclared {kind} {name!r}")


_SPOT_POOL = ("s", "t", "u", "v", "w", "x", "y", "z")
_FIELD_POOL = ("f", "g", "h", "k", "l", "m", "n", "o")


def generated_names(kind: str, count: int) -> tuple:
    """The first count generated names of a kind: spots s,t,u,...;
    fields f,g,h,...; atoms #0,#1,...."""
    if kind == "atoms":
        return tuple(f"#{i}" for i in range(count))
    pool = _SPOT_POOL if kind == "spots" else _FIELD_POOL
    if count > len(pool):
        raise DldError(f"too many generated {kind}; list names instead")
    return pool[:count]


def small_universe(n_spots: int, n_fields: int, n_atoms: int,
                   modulus: int = 2) -> Universe:
    """Generated universe for exhaustive suites."""
    return Universe(
        spots=generated_names("spots", n_spots),
        fields=generated_names("fields", n_fields),
        atoms=generated_names("atoms", n_atoms),
        modulus=modulus,
    )
