"""Exact coefficient fields.

Three kinds of field feed the Lie-algebra machinery:

* the rationals, optionally carrying the p-adic valuation (an exact
  sub-model of Q_p: ranks, determinants and valuations computed here
  agree with their values over the completion);
* finite fields GF(q) for prime powers q;
* rational functions GF(q)(t) with the t-adic valuation (the exact
  sub-model of the Laurent series field GF(q)((t))).

No floating point anywhere: elements are Fractions, coefficient tuples
mod p, or polynomial quotients in normal form (gcd 1, monic
denominator; see RatFunc for when the gcd is skipped).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product


# Miller-Rabin to the 13 primes up to 41 as bases is exact below _PSI_13, the
# least strong pseudoprime to all of them (Sorenson, Webster, Math. Comp. 86, 2017)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division by _SMALL_PRIMES, then Miller-Rabin to them as bases;
    an n >= _PSI_13 with no prime factor up to 41 raises ValueError."""
    if n < 43 or any(n % p == 0 for p in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    if n >= _PSI_13:
        raise ValueError(f"primality is decided only below {_PSI_13} or with a prime "
                         f"factor up to 41, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << k, n) == n - 1 for k in range(s))
               for a in _SMALL_PRIMES)


def _iroot(q: int, n: int) -> int:
    """The floor of q**(1/n) for q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // n)
    while (y := ((n - 1) * x + q // x ** (n - 1)) // n) < x:
        x = y
    return x


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p**n with p prime, or raise ValueError.  Only the largest
    n with an exact n-th root can give a prime p."""
    if q >= 2:
        n = next(n for n in range(q.bit_length(), 0, -1) if _iroot(q, n) ** n == q)
        p = _iroot(q, n)
        if is_prime(p):
            return p, n
    raise ValueError(f"not a prime power: {q}")


class RationalField:
    """The field Q; with p given, carries the p-adic valuation."""

    char = 0

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.zero = Fraction(0)
        self.one = Fraction(1)

    @property
    def residue_cardinality(self) -> int:
        if self.p is None:
            raise ValueError("plain Q carries no valuation")
        return self.p

    def element(self, x) -> Fraction:
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"cannot parse coefficient {x!r} over {self!r}") from None

    def valuation(self, x) -> int:
        """p-adic valuation; undefined (raises) on 0."""
        p = self.residue_cardinality
        if not x:
            raise ZeroDivisionError("valuation of 0 is undefined")
        v = 0
        n, d = x.numerator, x.denominator
        while n % p == 0:
            n //= p
            v += 1
        while d % p == 0:
            d //= p
            v -= 1
        return v

    def uniformizer(self) -> Fraction:
        return Fraction(self.residue_cardinality)

    def __eq__(self, other):
        return isinstance(other, RationalField) and other.p == self.p

    def __hash__(self):
        return hash(("Q", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"Q(v_{self.p})"


QQ = RationalField()  # the rationals without a valuation


class FFElement:
    """Element of GF(p^n), stored as a coefficient tuple over F_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("elements of different finite fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.char
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.char
        return FFElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.char
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return self.field._mul(self, other)

    def __truediv__(self, other):
        self._check(other)
        return self.field._mul(self, other.inverse())

    def inverse(self) -> "FFElement":
        if not self:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        # a**(q-2) = a**-1; fine at our field sizes
        result = self.field.one
        base = self
        e = self.field.order - 2
        while e:
            if e & 1:
                result = self.field._mul(result, base)
            base = self.field._mul(base, base)
            e >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, FFElement) and other.field == self.field and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        if self.field.degree == 1:
            return f"{self.coeffs[0]}"
        return f"FF{self.field.order}{self.coeffs}"


def _integer(x, field) -> int:
    """x as an int if it is an int or an integral Fraction; ValueError naming
    x and the field otherwise.  A field of characteristic p holds no 1/2 or 2.5."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"cannot embed {x!r} in {field!r}: not an integer")


class FiniteField:
    """GF(q) for a prime power q, as F_p[x] mod an irreducible polynomial."""

    def __init__(self, q: int):
        p, n = factor_prime_power(q)
        self.order = q
        self.char = p
        self.degree = n
        self.modulus = self._find_modulus(p, n)  # monic, coeff list of length n+1
        self.zero = FFElement(self, (0,) * n)
        self.one = FFElement(self, (1,) + (0,) * (n - 1))

    @staticmethod
    def _find_modulus(p: int, n: int) -> tuple[int, ...]:
        if n == 1:
            return (0, 1)  # x, unused
        # first monic irreducible f, constant term fastest; Rabin: gcd(x^(p^d) - x, f) = 1, d <= n/2
        fp = FiniteField(p)
        x = Polynomial(fp, [fp.zero, fp.one])
        for coeffs in product(range(p), repeat=n):
            f = Polynomial(fp, [fp.element(c) for c in coeffs[::-1]] + [fp.one])
            r = x
            for _ in range(n // 2):
                base = r
                for bit in bin(p)[3:]:  # r^p mod f by square and multiply
                    r = r * r % f if bit == "0" else r * r % f * base % f
                if poly_gcd(r - x, f).degree:
                    break
            else:
                return tuple(c.coeffs[0] for c in f.coeffs)
        raise RuntimeError(f"no irreducible polynomial of degree {n} over F_{p}")

    def element(self, x) -> FFElement:
        """Embed an integer, or an integral Fraction, via reduction mod p
        (the prime subfield); ValueError for anything else."""
        if not isinstance(x, int):
            x = _integer(x, self)
        return FFElement(self, (x % self.char,) + (0,) * (self.degree - 1))

    def from_coeffs(self, coeffs) -> FFElement:
        coeffs = tuple(_integer(c, self) % self.char for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError("wrong coefficient tuple length")
        return FFElement(self, coeffs)

    def elements(self):
        # first coefficient varying fastest
        for coeffs in product(range(self.char), repeat=self.degree):
            yield FFElement(self, coeffs[::-1])

    def _mul(self, a: FFElement, b: FFElement) -> FFElement:
        p, n = self.char, self.degree
        if n == 1:
            return FFElement(self, ((a.coeffs[0] * b.coeffs[0]) % p,))
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce mod the monic modulus of degree n
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(n):
                    prod[i - n + j] = (prod[i - n + j] - c * self.modulus[j]) % p
        return FFElement(self, tuple(prod[:n]))

    def __eq__(self, other):
        return isinstance(other, FiniteField) and other.order == self.order

    def __hash__(self):
        return hash(("GF", self.order))

    def __repr__(self):
        return f"GF({self.order})"


def PrimeField(p: int) -> FiniteField:
    """GF(p) for p prime."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return FiniteField(p)


class Polynomial:
    """Dense polynomial in t over a FiniteField, trailing zeros trimmed."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: FiniteField, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.base = base
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and other.base == self.base and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.base.order, self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.base.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Polynomial(self.base, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Polynomial(self.base, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self or not other:
            return Polynomial(self.base, [])
        z = self.base.zero
        prod = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = prod[i + j] + a * b
        return Polynomial(self.base, prod)

    def __divmod__(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        z = self.base.zero
        rem = list(self.coeffs)
        qdeg = len(rem) - len(other.coeffs)
        if qdeg < 0:
            return Polynomial(self.base, []), self
        quot = [z] * (qdeg + 1)
        lead_inv = other.coeffs[-1].inverse()
        for i in range(qdeg, -1, -1):
            if rem[len(other.coeffs) - 1 + i]:  # a zero leading remainder skips a step
                c = rem[len(other.coeffs) - 1 + i] * lead_inv
                quot[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * b
        return Polynomial(self.base, quot), Polynomial(self.base, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def t_valuation(self) -> int:
        """Index of the lowest nonzero coefficient; undefined on 0."""
        if not self:
            raise ZeroDivisionError("t-valuation of 0 is undefined")
        # the leading coefficient is nonzero, so some coefficient is
        return next(i for i, c in enumerate(self.coeffs) if c)

    def monic(self) -> "Polynomial":
        if not self:
            return self
        inv = self.coeffs[-1].inverse()
        return Polynomial(self.base, [c * inv for c in self.coeffs])

    def __repr__(self):
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c!r}" if i == 0 else (f"{c!r}*t^{i}" if i > 1 else f"{c!r}*t"))
        return " + ".join(parts)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while b:
        a, b = b, a % b
    return a.monic()


class RatFunc:
    """Element of GF(q)(t) in normal form: num/den with gcd(num, den) = 1
    and den monic, so 0 is 0/1 and equal functions have equal (num, den).

    The constructor divides out the gcd only when den has degree >= 1 (a
    gcd with a nonzero constant is 1), and rescales only when den is not
    already monic; a constant denominator, the common case of products
    of polynomials, costs no Euclid run."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial, normalized=False):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not normalized:
            base = den.base
            if not num:
                den = Polynomial(base, [base.one])
            else:
                if den.degree > 0:
                    g = poly_gcd(num, den)
                    if g.degree > 0:
                        num = num // g
                        den = den // g
                lead = den.coeffs[-1]
                if lead.coeffs != base.one.coeffs:
                    lead_inv = lead.inverse()
                    num = Polynomial(base, [c * lead_inv for c in num.coeffs])
                    den = Polynomial(base, [c * lead_inv for c in den.coeffs])
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return isinstance(other, RatFunc) and other.num == self.num and other.den == self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})" if self.den.degree > 0 else f"{self.num!r}"


# sign, integer (absent only before t), t, exponent: 3, -2t, t^2, -t, 2*t^3
_MONOMIAL = re.compile(r"^(-?)(\d+|(?=t))(?:\*?(t)(?:\^(\d+))?)?$")


class FunctionField:
    """GF(q)(t) with the t-adic valuation; residue field GF(q)."""

    def __init__(self, q: int):
        self.base = FiniteField(q)
        self.char = self.base.char
        one_poly = Polynomial(self.base, [self.base.one])
        self.zero = RatFunc(Polynomial(self.base, []), one_poly, normalized=True)
        self.one = RatFunc(one_poly, one_poly, normalized=True)

    @property
    def residue_cardinality(self) -> int:
        return self.base.order

    def element(self, x) -> RatFunc:
        """An integer, an integral Fraction, or a monomial string c*t^e such
        as "3", "-2t" or "-t^2"; ValueError for anything else."""
        if not isinstance(x, str):
            return self.poly([_integer(x, self)])
        m = _MONOMIAL.match(x.replace(" ", ""))
        if not m:
            raise ValueError(f"cannot parse coefficient {x!r} over GF(q)(t)")
        sign, digits, t, e = m.groups()
        return self.poly([0] * (int(e or 1) if t else 0) + [int(sign + (digits or "1"))])

    def poly(self, int_coeffs) -> RatFunc:
        """Polynomial with integer coefficients, reduced into GF(q); over
        the denominator 1 it is already in lowest terms."""
        num = Polynomial(self.base, [self.base.element(c) for c in int_coeffs])
        return RatFunc(num, self.one.den, normalized=True)

    def t(self) -> RatFunc:
        return self.poly([0, 1])

    def uniformizer(self) -> RatFunc:
        return self.t()

    def valuation(self, x: RatFunc) -> int:
        if not x:
            raise ZeroDivisionError("valuation of 0 is undefined")
        return x.num.t_valuation() - x.den.t_valuation()

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.base == self.base

    def __hash__(self):
        return hash(("Fq(t)", self.base.order))

    def __repr__(self):
        return f"GF({self.base.order})(t)"


def has_valuation(field) -> bool:
    return isinstance(field, (FunctionField, RationalField)) and not (
        isinstance(field, RationalField) and field.p is None)
