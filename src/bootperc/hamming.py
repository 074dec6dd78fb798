"""The geometry of the Hamming graph K_n^d, with no graph.

A Hamming graph on alphabet size n and dimension d encodes the point
(x_1, ..., x_d) as x_1*n^(d-1) + ... + x_d, i.e. x_1 is the most
significant coordinate, as in the Cartesian product of d copies of K_n
with the first factor major.  :class:`HammingSpace` holds that geometry
for every layer: the codec, the strides n^(d-1-i) and the bound on n^d.
The complete graph K_n is the Hamming graph of [0,n)^1.
"""

from __future__ import annotations

from functools import cached_property

from bootperc.errors import PreconditionError


def _read_only(self, name: str, *_) -> None:
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


class HammingSpace:
    """The points of [0,n)^d and the geometry of K_n^d; read-only and hashable.

    The codec, the strides and the bound on n^d that every layer reads;
    read the strides once n^d is bounded.  n = 1 is one vertex.
    """

    n: int
    d: int

    def __init__(self, n: int, d: int) -> None:
        if not (isinstance(n, int) and isinstance(d, int)):
            raise PreconditionError(f"HammingSpace needs int n and d, not {n!r} and {d!r}")
        if n < 1 or d < 1:
            raise PreconditionError("HammingSpace needs n >= 1 and d >= 1")
        vars(self).update(n=n, d=d)

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"HammingSpace(n={self.n}, d={self.d})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d)

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    @property
    def size(self) -> int:
        return self.n**self.d

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """n^(d-1-i) per coordinate i, most significant first; K_1's (1,) for n = 1."""
        if self.n == 1:
            return (1,)
        return tuple(self.n ** (self.d - 1 - i) for i in range(self.d))

    def capped_size(self, cap: int) -> int:
        """n^d if at most ``cap``, else the first of n, n^2, ... past it, however large d is."""
        size = 1
        if self.n > 1:
            for _ in range(self.d):
                size *= self.n
                if size > cap:
                    break
        return size

    def encode(self, point: tuple[int, ...]) -> int:
        if len(point) != self.d:
            raise PreconditionError(f"point has {len(point)} coordinates, expected {self.d}")
        index = 0
        for x in point:
            if not 0 <= x < self.n:
                raise PreconditionError(f"coordinate {x} out of range [0,{self.n})")
            index = index * self.n + x
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise PreconditionError(f"index {index} out of range [0,{self.size})")
        coords = [0] * self.d
        for i in range(self.d - 1, -1, -1):
            index, coords[i] = divmod(index, self.n)
        return tuple(coords)
