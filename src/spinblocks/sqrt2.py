"""Exact arithmetic in Z[sqrt(2)].

Elements are pairs (a, b) representing a + b*sqrt(2) with arbitrary-precision
integers.  The only division is exact halving, which raises when the quotient
leaves Z[sqrt(2)]; nothing here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sqrt2Scalar:
    a: int = 0
    b: int = 0

    def __post_init__(self):
        if not isinstance(self.a, int) or not isinstance(self.b, int):
            raise TypeError("components of a + b*sqrt(2) must be integers")

    @classmethod
    def of(cls, x: "Sqrt2Scalar | int") -> "Sqrt2Scalar":
        if isinstance(x, Sqrt2Scalar):
            return x
        return cls(x, 0)

    @classmethod
    def sqrt2_power(cls, e: int) -> "Sqrt2Scalar":
        """sqrt(2)**e for e >= 0; raises for negative e (not in the ring)."""
        if e < 0:
            raise ValueError(f"sqrt(2)**{e} is not in Z[sqrt(2)]")
        if e % 2 == 0:
            return cls(1 << (e // 2), 0)
        return cls(0, 1 << (e // 2))

    def __add__(self, other):
        other = Sqrt2Scalar.of(other)
        return Sqrt2Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Sqrt2Scalar.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Sqrt2Scalar(-self.a, -self.b)

    def __mul__(self, other):
        other = Sqrt2Scalar.of(other)
        return Sqrt2Scalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = Sqrt2Scalar(other, 0)
        if not isinstance(other, Sqrt2Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "Sqrt2Scalar":
        return Sqrt2Scalar(self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a - 2 * self.b * self.b

    def is_nonneg_integer(self) -> bool:
        return self.b == 0 and self.a >= 0

    def halve(self) -> "Sqrt2Scalar":
        """Exact division by 2; raises when either component is odd."""
        if self.a % 2 or self.b % 2:
            raise ValueError(f"{self} is not divisible by 2 in Z[sqrt(2)]")
        return Sqrt2Scalar(self.a // 2, self.b // 2)

    def __repr__(self):
        return f"Sqrt2Scalar({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}√2"
        return f"{self.a}{self.b:+}√2"


ONE = Sqrt2Scalar(1, 0)
SQRT2 = Sqrt2Scalar(0, 1)
