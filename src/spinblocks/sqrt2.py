"""Exact arithmetic in Z[sqrt(2)].

Elements are pairs (a, b) representing a + b*sqrt(2) with arbitrary-precision
integers.  There is no division, and nothing here ever touches floating point.
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
        if isinstance(x, int):
            return _unchecked(x, 0)
        return cls(x, 0)  # raises TypeError

    @classmethod
    def sqrt2_power(cls, e: int) -> "Sqrt2Scalar":
        """sqrt(2)**e for e >= 0.  Every caller passes an exponent the library
        computed, so a negative one (not in the ring) is an internal fault."""
        if e < 0:
            raise AssertionError(f"sqrt(2)**{e} is not in Z[sqrt(2)]")
        if e % 2 == 0:
            return _unchecked(1 << (e // 2), 0)
        return _unchecked(0, 1 << (e // 2))

    def __add__(self, other):
        other = Sqrt2Scalar.of(other)
        return _unchecked(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Sqrt2Scalar.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _unchecked(-self.a, -self.b)

    def __mul__(self, other):
        other = Sqrt2Scalar.of(other)
        return _unchecked(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = _unchecked(other, 0)
        if not isinstance(other, Sqrt2Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def is_nonneg_integer(self) -> bool:
        return self.b == 0 and self.a >= 0

    def __repr__(self):
        return f"Sqrt2Scalar({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}√2"
        return f"{self.a}{self.b:+}√2"


def _unchecked(a: int, b: int) -> Sqrt2Scalar:
    """a + b*sqrt(2) from components already known to be ints, as the
    results of integer arithmetic are; skips the constructor's type check."""
    x = object.__new__(Sqrt2Scalar)
    state = x.__dict__
    state["a"], state["b"] = a, b
    return x


ONE = Sqrt2Scalar(1, 0)
SQRT2 = Sqrt2Scalar(0, 1)
