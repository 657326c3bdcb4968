"""Small finite fields F_q and their additive characters.

Elements of F_q (q = p^m) are plain ints in range(q), read as coefficient
vectors base p: the int sum(c_e * p^e) stands for the polynomial
sum(c_e * t^e) in F_p[t]/(f).  The modulus f is the monic irreducible of
degree m whose non-leading coefficient vector has the smallest integer
encoding; it is reported by ``modulus_coeffs`` for reproducibility.

Additive characters of (F_q, +) are indexed by field elements c through
the trace pairing: psi_c(x) has exponent Tr(c*x) in Z/p, relative to the
fixed primitive character of (F_p, +) sending 1 to exp(2*pi*i/p).  Each
field tabulates these exponents once, as psi[c][x]; the row psi[c] is
zero only for c = 0, as the trace form is nondegenerate.  This makes the
character group literally an F_q-line and reduces all product identities
to F_p-linear statements in the c's.

Fields are capped at q <= Q_BOUND = 16: every check in this library is
an exhaustive O(q^2) loop and the interesting cases are q = 2 and 3.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Element = int  # encoded field element, 0 <= value < q

Q_BOUND = 16  # the largest field size accepted


def _factor_prime_power(q: int) -> Tuple[int, int]:
    # the least divisor p >= 2 of q is prime; q is a power of p or of no prime
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    m, n = 0, q
    while p and n % p == 0:
        n //= p
        m += 1
    if p is None or n != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, m


def _to_coeffs(x: int, p: int, m: int) -> List[int]:
    out = []
    for _ in range(m):
        out.append(x % p)
        x //= p
    return out


def _from_coeffs(coeffs: Sequence[int], p: int) -> int:
    x = 0
    for c in reversed(coeffs):
        x = x * p + (c % p)
    return x


class FiniteField:
    """F_q with table-based exact arithmetic, q a prime power <= Q_BOUND.

    Addition, negation, multiplication and the additive characters are
    looked up in tables filled once at construction.
    """

    def __init__(self, q: int):
        if q > Q_BOUND:
            raise ValueError(f"q = {q} exceeds the configured bound {Q_BOUND}")
        self.q = q
        self.p, self.m = _factor_prime_power(q)
        self.modulus_coeffs = self._find_modulus()
        self._mul_table = [
            [self._poly_mul(a, b) for b in range(q)] for a in range(q)
        ]
        digits = [_to_coeffs(x, self.p, self.m) for x in range(q)]
        self._add_table = [
            [_from_coeffs([x + y for x, y in zip(da, db)], self.p) for db in digits]
            for da in digits
        ]
        self._neg_table = [_from_coeffs([-c for c in d], self.p) for d in digits]
        trace = [self._sum_of_conjugates(a) for a in range(q)]
        # psi[c][x] = Tr(c*x), in range(p)
        self.psi = tuple(tuple(trace[cx] for cx in row) for row in self._mul_table)

    # ------------------------------------------------------------------
    # construction internals

    def _find_modulus(self) -> Tuple[int, ...]:
        """Non-leading coefficients (c_0..c_{m-1}) of the chosen modulus."""
        p, m = self.p, self.m
        for enc in range(p ** m):
            low = _to_coeffs(enc, p, m)
            if self._poly_irreducible(low):
                return tuple(low)
        raise AssertionError("no irreducible polynomial found")

    def _poly_irreducible(self, low: Sequence[int]) -> bool:
        """Is t^m + sum(low[e] t^e) irreducible over F_p?  Trial division."""
        p, m = self.p, self.m
        f = list(low) + [1]
        for d in range(1, m // 2 + 1):
            for enc in range(p ** d):
                g = _to_coeffs(enc, p, d) + [1]
                if _poly_mod(f, g, p) == []:
                    return False
        return True

    def _poly_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        ca = _to_coeffs(a, p, m)
        cb = _to_coeffs(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        f = list(self.modulus_coeffs) + [1]
        rem = _poly_mod(prod, f, p)
        return _from_coeffs(rem, p)

    def _sum_of_conjugates(self, a: int) -> int:
        total = 0
        x = a
        for _ in range(self.m):
            total = self.add(total, x)
            x = self.frobenius(x)
        assert total < self.p, "trace must land in the prime field"
        return total

    # ------------------------------------------------------------------
    # arithmetic

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def add(self, a: Element, b: Element) -> Element:
        return self._add_table[a][b]

    def neg(self, a: Element) -> Element:
        return self._neg_table[a]

    def mul(self, a: Element, b: Element) -> Element:
        return self._mul_table[a][b]

    def inv(self, a: Element) -> Element:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        for b in self.units():
            if self.mul(a, b) == 1:
                return b
        raise AssertionError("unit without inverse")

    def pow(self, a: Element, n: int) -> Element:
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = 1
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def frobenius(self, a: Element) -> Element:
        return self.pow(a, self.p)

    def coeffs(self, a: Element) -> Tuple[int, ...]:
        return tuple(_to_coeffs(a, self.p, self.m))

    def from_coeffs(self, coeffs: Sequence[int]) -> Element:
        """The element with these coefficients mod p, the inverse of `coeffs`."""
        return _from_coeffs(coeffs, self.p)

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"


def _poly_mod(a: Sequence[int], f: Sequence[int], p: int) -> List[int]:
    """Remainder of a modulo monic f over F_p, trailing zeros stripped."""
    r = [c % p for c in a]
    while len(r) >= len(f):
        lead = r[-1]
        if lead:
            shift = len(r) - len(f)
            for i, c in enumerate(f):
                r[shift + i] = (r[shift + i] - lead * c) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r
