"""Exact arithmetic in Z[sqrt(2)].

Elements are pairs (a, b) representing a + b*sqrt(2) with arbitrary-precision
integers.  There is no division, and nothing here ever touches floating point.
"""

from __future__ import annotations


class Sqrt2Scalar:
    """a + b*sqrt(2), immutable.  Every instance, each ring result included,
    is built by __init__, which checks that both components are ints."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        if not isinstance(a, int) or not isinstance(b, int):
            raise TypeError("components of a + b*sqrt(2) must be integers")
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Sqrt2Scalar, (self.a, self.b)

    @classmethod
    def of(cls, x: "Sqrt2Scalar | int") -> "Sqrt2Scalar":
        return x if isinstance(x, Sqrt2Scalar) else cls(x)

    @classmethod
    def sqrt2_power(cls, e: int) -> "Sqrt2Scalar":
        """sqrt(2)**e for e >= 0, as times_sqrt2_power states it."""
        return Sqrt2Scalar(*times_sqrt2_power(1, 0, e))

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
            return self.b == 0 and self.a == other
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


def times_sqrt2_power(a: int, b: int, e: int) -> tuple[int, int]:
    """(a + b*sqrt(2)) * sqrt(2)**e for e >= 0, a pair swapped to (2b, a) if e
    is odd and shifted by e // 2.  Every caller passes an exponent the library
    computed, so a negative one (not in the ring) is an internal fault."""
    if e < 0:
        raise AssertionError(f"sqrt(2)**{e} is not in Z[sqrt(2)]")
    k = e >> 1
    return (b << k + 1, a << k) if e & 1 else (a << k, b << k)


# the slot descriptors' setters, which __init__ calls past __setattr__
_set_a, _set_b = Sqrt2Scalar.a.__set__, Sqrt2Scalar.b.__set__
