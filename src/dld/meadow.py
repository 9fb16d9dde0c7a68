"""Finite meadow arithmetic: GF(p) with a zero-totalized inverse.

Values are plain ints in [0, p).  The only departure from field
arithmetic is inv(0) = 0, which makes the inverse total.  Kept as a
class so other finite meadows can be slotted in later.
"""

from __future__ import annotations


class Meadow:
    def __init__(self, modulus: int):
        self.modulus = modulus

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.modulus

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.modulus

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.modulus

    def neg(self, x: int) -> int:
        return (-x) % self.modulus

    def inv(self, x: int) -> int:
        if x % self.modulus == 0:
            return 0
        # p prime, so Fermat gives the inverse of nonzero residues
        return pow(x, self.modulus - 2, self.modulus)
