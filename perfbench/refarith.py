"""Reference finite-field arithmetic for the benchmark's input generators.

The generators fix expected answers from facts of their own (discrete logs of
``g^k`` literals, square classes, sums of units), so they must not call the
library under test.  This module re-derives, independently of ``mwslice``, the
two conventions that give ``g^k`` literals their meaning:

* the modulus of F_{p^d}: the first monic irreducible of degree d when the
  non-leading coefficients (c_{d-1}, ..., c_0) are listed in lexicographic
  order;
* the generator g: the element of multiplicative order q - 1 with the
  smallest encoding sum(c_i p^i).

Elements are represented by that integer encoding; 0 is the zero element.
"""

from __future__ import annotations

import itertools


def factor_prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    d, m = 0, q
    while m % p == 0:
        m //= p
        d += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, d


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _polymod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a by the monic m over Z/p (coefficients low degree first)."""
    a = [c % p for c in a]
    d = len(m) - 1
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top]
        if c:
            for i in range(d + 1):
                a[top - d + i] = (a[top - d + i] - c * m[i]) % p
    return a[:d]


def _is_irreducible(m: list[int], p: int) -> bool:
    """No monic factor of degree 1..deg/2 divides m."""
    d = len(m) - 1
    for e in range(1, d // 2 + 1):
        for low in itertools.product(range(p), repeat=e):
            if not any(_polymod(m, list(low) + [1], p)):
                return False
    return True


def lexicographic_modulus(p: int, d: int) -> list[int]:
    if d == 1:
        return [0, 1]
    for high in itertools.product(range(p), repeat=d):
        m = list(reversed(high)) + [1]
        if _is_irreducible(m, p):
            return m
    raise ValueError(f"no irreducible of degree {d} over F_{p}")


class RefField:
    """F_q with exponent and logarithm tables to the canonical generator."""

    def __init__(self, q: int) -> None:
        self.q = q
        self.p, self.d = factor_prime_power(q)
        self.modulus = lexicographic_modulus(self.p, self.d)
        self.g = self._find_generator()
        self.exp = [1]
        for _ in range(q - 2):
            self.exp.append(self.mul(self.exp[-1], self.g))
        self.log = {e: k for k, e in enumerate(self.exp)}

    def digits(self, e: int) -> list[int]:
        return [(e // self.p**i) % self.p for i in range(self.d)]

    def encode(self, digits: list[int]) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(digits))

    def mul(self, a: int, b: int) -> int:
        x, y = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.d - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
        return self.encode(_polymod(prod, self.modulus, self.p))

    def pow(self, a: int, n: int) -> int:
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def add(self, a: int, b: int) -> int:
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        return self.encode([-x for x in self.digits(a)])

    def _find_generator(self) -> int:
        n = self.q - 1
        cofactors = [n // r for r in prime_factors(n)]
        for e in range(1, self.q):
            if all(self.pow(e, c) != 1 for c in cofactors):
                return e
        raise ValueError(f"F_{self.q} has no generator")

    def is_square(self, e: int) -> bool:
        """Square class of a unit: even discrete logarithm."""
        return self.log[e] % 2 == 0

    def one_minus_sum(self, ks: list[int]) -> int:
        """Encoding of 1 - sum(g^k for k in ks), possibly 0."""
        acc = 1
        for k in ks:
            acc = self.add(acc, self.neg(self.exp[k]))
        return acc
