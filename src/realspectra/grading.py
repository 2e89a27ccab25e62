"""Arithmetic of RO(C2) degrees, diagonals, rectangular degree windows, and
the 2-adic valuation.

The grading group RO(C2) is free abelian of rank 2 on the trivial
representation 1 and the sign representation sigma.  A degree
alpha = t + s*sigma is stored as the integer pair (t, s).  Three derived
quantities occur constantly:

    rho   = 1 + sigma        (the regular representation)
    delta = 1 - sigma
    alpha = d + k*rho        (the diagonal decomposition: d = t - s, k = s)

Everything in this module is a pure value type; operations never mutate.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence


_new = tuple.__new__


class _DegreeFields(NamedTuple):
    triv: int
    sgn: int


class Degree(_DegreeFields):
    """An element t + s*sigma of RO(C2).

    A tuple of its fields (triv, sgn): hashing, equality, ordering and
    field access run in C, and an instance equals the plain pair (triv,
    sgn), so a dict or set must not mix degrees with plain pairs.
    `Degree(t, s)` goes through namedtuple's Python-level `__new__`; +, -,
    unary - and * build their results in C with `tuple.__new__`.  They are
    the group operations, not tuple concatenation and repetition: + and -
    read the other operand's `triv` and `sgn`, so a plain pair raises
    AttributeError, and * takes an int factor only, so a bool, a float or
    a degree raises TypeError.

    >>> Degree(1, 1) + Degree(0, 1)
    Degree(triv=1, sgn=2)
    >>> -Degree(2, -2)
    Degree(triv=-2, sgn=2)
    >>> 3 * Degree(1, 1)
    Degree(triv=3, sgn=3)
    >>> Degree(1, 1) * 1.5
    Traceback (most recent call last):
    TypeError: a degree multiplies by an int, not 1.5
    """

    __slots__ = ()

    def __add__(self, other: "Degree") -> "Degree":
        return _new(Degree, (self.triv + other.triv, self.sgn + other.sgn))

    def __sub__(self, other: "Degree") -> "Degree":
        return _new(Degree, (self.triv - other.triv, self.sgn - other.sgn))

    def __neg__(self) -> "Degree":
        return _new(Degree, (-self.triv, -self.sgn))

    def __mul__(self, k: int) -> "Degree":
        if type(k) is not int:
            raise TypeError(f"a degree multiplies by an int, not {k!r}")
        return _new(Degree, (self.triv * k, self.sgn * k))

    __rmul__ = __mul__

    def to_json(self) -> list[int]:
        """Serialize as the two-element array [triv, sgn]."""
        return [self.triv, self.sgn]

    @staticmethod
    def from_json(pair: Sequence[int]) -> "Degree":
        """The inverse of to_json; TypeError unless both coordinates are
        JSON integers."""
        if len(pair) != 2:
            raise ValueError(f"degree must be a [triv, sgn] pair, got {pair!r}")
        return Degree(json_int(pair[0]), json_int(pair[1]))

    def __str__(self) -> str:
        """Human form like '3+2s', '-s', '0' (s denotes sigma).

        >>> str(Degree(4, -1)), str(Degree(0, 1)), str(Degree(0, 0))
        ('4-s', 's', '0')
        """
        t, s = self.triv, self.sgn
        if s == 0:
            return str(t)
        if s == 1:
            sig = "s"
        elif s == -1:
            sig = "-s"
        else:
            sig = f"{s:+d}s".lstrip("+") if t == 0 else f"{s:+d}s"
        if t == 0:
            return sig
        return f"{t}{sig}" if sig.startswith(("+", "-")) else f"{t}+{sig}"


ZERO = Degree(0, 0)
ONE = Degree(1, 0)
SIGMA = Degree(0, 1)
RHO = Degree(1, 1)
DELTA = Degree(1, -1)


def json_int(value) -> int:
    """value if it is a JSON integer; TypeError for a bool, float, string
    or anything else, which int() would truncate or coerce."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def v2(m: int) -> int:
    """The 2-adic valuation of a nonzero integer.

    >>> v2(12), v2(-8), v2(7)
    (2, 3, 0)
    """
    return (m & -m).bit_length() - 1


def total_vbar_degree(n: int) -> Degree:
    """Sum |vbar_1| + ... + |vbar_n| = D_n * rho, D_n = 2^(n+1) - n - 2.

    D_n is the Gorenstein shift slope of the height-n truncation.

    >>> total_vbar_degree(2)
    Degree(triv=4, sgn=4)
    """
    return (2 ** (n + 1) - n - 2) * RHO


def record(cls: type) -> type:
    """Give a tuple-backed record type the equality of a dataclass: an
    instance equals only an instance of the same type with equal fields,
    never a plain tuple or a record of another type; it hashes as the
    tuple of its fields.  `_make`, and so `_replace`, builds through the
    constructor and its checks."""
    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    cls.__eq__, cls.__hash__ = __eq__, tuple.__hash__
    cls.__ne__ = lambda self, other: not __eq__(self, other)
    cls._make = classmethod(lambda kind, fields: kind(*fields))
    return cls


@record
class Window(tuple):
    """A nonempty axis-aligned box of degrees in (triv, sgn) coordinates.

    A tuple of its bounds (triv_min, triv_max, sgn_min, sgn_max), but
    iteration, len and `in` are over its degrees: len is the area.
    """

    __slots__ = ()

    def __new__(cls, triv_min: int, triv_max: int, sgn_min: int,
                sgn_max: int) -> "Window":
        self = tuple.__new__(cls, (triv_min, triv_max, sgn_min, sgn_max))
        if triv_min > triv_max or sgn_min > sgn_max:
            raise ValueError(f"empty window {self}")
        return self

    triv_min = property(itemgetter(0))
    triv_max = property(itemgetter(1))
    sgn_min = property(itemgetter(2))
    sgn_max = property(itemgetter(3))

    def __getnewargs__(self) -> tuple[int, int, int, int]:
        return self[:]   # the bounds: copy and pickle must not iterate

    def __repr__(self) -> str:
        return ("Window(triv_min=%r, triv_max=%r, sgn_min=%r, sgn_max=%r)"
                % self)

    @staticmethod
    def square(r: int) -> "Window":
        """The box [-r, r] x [-r, r]."""
        return Window(-r, r, -r, r)

    def __str__(self) -> str:
        return f"{self.triv_min}:{self.triv_max},{self.sgn_min}:{self.sgn_max}"

    def __contains__(self, degree: Degree) -> bool:
        return (self.triv_min <= degree.triv <= self.triv_max
                and self.sgn_min <= degree.sgn <= self.sgn_max)

    def __iter__(self) -> Iterator[Degree]:
        for t in range(self.triv_min, self.triv_max + 1):
            for s in range(self.sgn_min, self.sgn_max + 1):
                yield Degree(t, s)

    def __len__(self) -> int:
        return ((self.triv_max - self.triv_min + 1)
                * (self.sgn_max - self.sgn_min + 1))
