"""Exact coefficient fields.

Three kinds of field feed the Lie-algebra machinery:

* the rationals, optionally carrying the p-adic valuation (an exact
  sub-model of Q_p: ranks, determinants and valuations computed here
  agree with their values over the completion);
* finite fields GF(q) for prime powers q;
* rational functions GF(q)(t) with the t-adic valuation (the exact
  sub-model of the Laurent series field GF(q)((t))).

No floating point anywhere: elements are Fractions, int codes of GF(q),
or polynomial quotients in normal form (gcd 1, monic denominator; see
RatFunc for when the gcd is skipped).  The code of an element of GF(p^n)
is the int in [0, q) whose base-p digits are its coefficients over F_p.
A Polynomial over GF(q) holds one code per coefficient, and +, -, *,
divmod, the gcd and the valuations run on those ints through the
field's primitives (FiniteField), with no FFElement per coefficient;
FFElements are built only when .coeffs is read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from operator import xor


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


def check_prime(p) -> int:
    """p itself, if it is a prime int; ValueError otherwise."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    return p


def _iroot(q: int, n: int) -> int:
    """The floor of q**(1/n) for q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // n)
    while (y := ((n - 1) * x + q // x ** (n - 1)) // n) < x:
        x = y
    return x


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p**n with p prime, or raise ValueError, also for a q that
    is not an int or is a bool.  Only the largest n with an exact n-th root
    can give a prime p."""
    if type(q) is int and q >= 2:
        n = next(n for n in range(q.bit_length(), 0, -1) if _iroot(q, n) ** n == q)
        p = _iroot(q, n)
        if is_prime(p):
            return p, n
    raise ValueError(f"not a prime power: {q!r}")


class RationalField:
    """The field Q; with p given, carries the p-adic valuation."""

    char = 0

    def __init__(self, p: int | None = None):
        self.p = p if p is None else check_prime(p)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    @property
    def residue_cardinality(self) -> int:
        return self.p or check_valued(self).p  # the gate refuses plain Q

    def element(self, x) -> Fraction:
        """An int or a rational string as a Fraction, a Fraction as it is;
        ValueError for a bool, a float, which is not exact, and anything else."""
        if isinstance(x, Fraction):
            return x
        if type(x) not in (int, str):  # a bool is no coefficient
            why = "a float is not exact" if isinstance(x, float) else "not a rational"
            raise _refusal(x, self, why)
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
    """Element of GF(p^n), stored as its code in [0, q): the base-p digits
    of the code are its coefficients over F_p, constant term first."""

    __slots__ = ("field", "code")

    def __init__(self, field: "FiniteField", code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field._digits(self.code)

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("elements of different finite fields")

    def __add__(self, other):
        self._check(other)
        return FFElement(self.field, self.field._add(self.code, other.code))

    def __sub__(self, other):
        self._check(other)
        return FFElement(self.field, self.field._sub(self.code, other.code))

    def __neg__(self):
        return FFElement(self.field, self.field._neg(self.code))

    def __mul__(self, other):
        self._check(other)
        return FFElement(self.field, self.field._mul(self.code, other.code))

    def __truediv__(self, other):
        self._check(other)
        return FFElement(self.field, self.field._mul(self.code, other.inverse().code))

    def inverse(self) -> "FFElement":
        if not self.code:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return FFElement(self.field, self.field._inv(self.code))

    def __eq__(self, other):
        return isinstance(other, FFElement) and other.code == self.code and other.field == self.field

    def __hash__(self):
        return hash((self.field.order, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        if self.field.degree == 1:
            return f"{self.code}"
        return f"FF{self.field.order}{self.coeffs}"


def _refusal(x, field, why: str) -> ValueError:
    """The error for an x that field.element refuses; another field's
    element is named by its field, since a GF(p) element prints as an int."""
    if isinstance(x, bool):
        why = "a bool is not a number"
    elif isinstance(x, FFElement):
        why = f"an element of {x.field!r}"
    elif isinstance(x, RatFunc):
        why = f"an element of GF({x.num.base.order})(t)"
    return ValueError(f"cannot embed {x!r} in {field!r}: {why}")


def _integer(x, field) -> int:
    """x as an int if it is an int (not a bool) or an integral Fraction;
    ValueError naming x and the field otherwise.  A field of characteristic
    p holds no 1/2 or 2.5."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise _refusal(x, field, "not an integer")


# GF(p^n) with n > 1 and q up to this multiplies through exp/log tables of a
# generator, built in O(q) at construction; a larger q multiplies digit by digit
_TABLE_MAX = 1 << 8


class FiniteField:
    """GF(q) for a prime power q, as F_p[x] mod an irreducible polynomial.

    Arithmetic runs on codes (see FFElement) through five primitives set
    here, _add, _sub, _neg, _mul and _inv: mod p for a prime field, XOR
    for the addition of GF(2^n), digit by digit for other n > 1, and the
    product of GF(p^n) through exp/log tables while q <= _TABLE_MAX."""

    def __init__(self, q: int):
        p, n = factor_prime_power(q)
        self.order = q
        self.char = p
        self.degree = n
        self.modulus = self._find_modulus(p, n)  # monic, coeff list of length n+1
        if n == 1:
            self._add = lambda a, b: (a + b) % p
            self._sub = lambda a, b: (a - b) % p
            self._neg = lambda a: -a % p
            self._mul = lambda a, b: a * b % p
            self._inv = lambda a: pow(a, -1, p)
        else:
            if p == 2:
                self._add = self._sub = xor
                self._neg = lambda a: a
            else:
                self._add = lambda a, b: self._digitwise(a, b, 1)
                self._sub = lambda a, b: self._digitwise(a, b, -1)
                self._neg = lambda a: self._digitwise(0, a, -1)
            if q <= _TABLE_MAX:
                exp, log = self._log_tables()
                self._mul = lambda a, b: exp[log[a] + log[b]] if a and b else 0
                self._inv = lambda a: exp[q - 1 - log[a]]
            else:
                self._mul = self._schoolbook
                self._inv = lambda a: self._power(a, q - 2)
        self.zero = FFElement(self, 0)
        self.one = FFElement(self, 1)

    @staticmethod
    def _find_modulus(p: int, n: int) -> tuple[int, ...]:
        if n == 1:
            return (0, 1)  # x, unused
        # first monic irreducible f, constant term fastest; Rabin: gcd(x^(p^d) - x, f) = 1, d <= n/2
        fp = FiniteField(p)
        x = Polynomial(fp, [0, 1])
        for coeffs in product(range(p), repeat=n):
            f = Polynomial(fp, coeffs[::-1] + (1,))
            r = x
            for _ in range(n // 2):
                base = r
                for bit in bin(p)[3:]:  # r^p mod f by square and multiply
                    r = r * r % f if bit == "0" else r * r % f * base % f
                if poly_gcd(r - x, f).degree:
                    break
            else:
                return f.codes
        raise RuntimeError(f"no irreducible polynomial of degree {n} over F_{p}")

    def _digits(self, code: int) -> tuple[int, ...]:
        p, out = self.char, []
        for _ in range(self.degree):
            code, d = divmod(code, p)
            out.append(d)
        return tuple(out)

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """The code of a + sign*b, digit by digit mod p."""
        p, out, scale = self.char, 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + sign * y) % p * scale
            scale *= p
        return out

    def _schoolbook(self, a: int, b: int) -> int:
        """The code of a*b: the digit product, reduced mod the monic modulus."""
        p, n, m = self.char, self.degree, self.modulus
        prod = [0] * (2 * n - 1)
        da = self._digits(a)
        for i, y in enumerate(self._digits(b)):  # b = g when the tables are built: sparse
            if y:
                for j, x in enumerate(da, i):
                    prod[j] += x * y
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(n):
                    prod[i - n + j] -= c * m[j]
        code = 0
        for c in reversed(prod[:n]):
            code = code * p + c % p
        return code

    def _power(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._schoolbook(result, a)
            a = self._schoolbook(a, a)
            e >>= 1
        return result

    def _log_tables(self) -> tuple[list[int], list[int]]:
        """exp and log of the first generator g of GF(q)* in code order from
        x: exp[k] = g**k for 0 <= k < 2(q - 1), so log[a] + log[b] indexes
        it, and log[exp[k]] = k (log[0] is never read).  g generates when
        g**((q - 1)/r) != 1 for every prime r dividing q - 1."""
        q = self.order
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        g = next(g for g in range(self.char, q)
                 if all(self._power(g, (q - 1) // r) != 1 for r in primes))
        exp = [1]
        for _ in range(q - 2):
            exp.append(self._schoolbook(exp[-1], g))
        log = [0] * q
        for k, a in enumerate(exp):
            log[a] = k
        return exp + exp, log

    def element(self, x) -> FFElement:
        """An int or an integral Fraction reduced mod p (into the prime
        subfield), an element of this field as it is; ValueError otherwise."""
        if type(x) is not int:
            if isinstance(x, FFElement) and (x.field is self or x.field == self):
                return x
            x = _integer(x, self)
        return FFElement(self, x % self.char)

    def from_coeffs(self, coeffs) -> FFElement:
        coeffs = [_integer(c, self) % self.char for c in coeffs]
        if len(coeffs) != self.degree:
            raise ValueError("wrong coefficient tuple length")
        code = 0
        for c in reversed(coeffs):
            code = code * self.char + c
        return FFElement(self, code)

    def elements(self):
        # first coefficient varying fastest: code order
        return (FFElement(self, code) for code in range(self.order))

    def __eq__(self, other):
        return isinstance(other, FiniteField) and other.order == self.order

    def __hash__(self):
        return hash(("GF", self.order))

    def __repr__(self):
        return f"GF({self.order})"


def PrimeField(p: int) -> FiniteField:
    """GF(p) for p prime."""
    return FiniteField(check_prime(p))


def _trim(codes: list) -> tuple[int, ...]:
    while codes and not codes[-1]:
        codes.pop()
    return tuple(codes)


def _poly(base: FiniteField, codes: list) -> "Polynomial":
    """The Polynomial of a list of codes, with no check of the codes."""
    f = object.__new__(Polynomial)
    f.base = base
    f.codes = _trim(codes)
    return f


class Polynomial:
    """Dense polynomial in t over a FiniteField, trailing zeros trimmed,
    stored as the tuple of its coefficients' codes (see FFElement).  The
    coefficients come in as FFElements of base or as codes in [0, q);
    .coeffs builds their FFElements on each access.  Every binary operation
    checks once that both operands lie over the same field."""

    __slots__ = ("base", "codes")

    def __init__(self, base: FiniteField, coeffs):
        codes = []
        for c in coeffs:
            if isinstance(c, FFElement):
                if c.field is not base and c.field != base:
                    raise ValueError("elements of different finite fields")
                c = c.code
            elif not (isinstance(c, int) and 0 <= c < base.order):
                raise ValueError(f"{c!r} is neither an element nor a code of {base!r}")
            codes.append(c)
        self.base = base
        self.codes = _trim(codes)

    @property
    def coeffs(self) -> tuple[FFElement, ...]:
        return tuple(FFElement(self.base, c) for c in self.codes)

    @property
    def degree(self) -> int:
        return len(self.codes) - 1  # -1 for the zero polynomial

    def _same(self, other) -> FiniteField:
        if other.base is not self.base and other.base != self.base:
            raise ValueError("elements of different finite fields")
        return self.base

    def __bool__(self):
        return bool(self.codes)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and other.base == self.base and other.codes == self.codes

    def __hash__(self):
        return hash((self.base.order, self.codes))

    def __add__(self, other):
        base = self._same(other)
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a, b = b, a
        return _poly(base, list(map(base._add, a, b)) + list(a[len(b):]))

    def __neg__(self):
        return _poly(self.base, list(map(self.base._neg, self.codes)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        base = self._same(other)
        a, b = self.codes, other.codes
        if not a or not b:
            return _poly(base, [])
        if b == (1,):  # 1, the usual denominator, multiplies for free
            return self
        if a == (1,):
            return other
        prod = [0] * (len(a) + len(b) - 1)
        add, mul = base._add, base._mul
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        prod[j] = add(prod[j], mul(x, y))
        return _poly(base, prod)

    def _scale(self, c: int) -> "Polynomial":
        """self times the nonzero code c."""
        mul = self.base._mul
        return _poly(self.base, [mul(x, c) for x in self.codes])

    def __divmod__(self, other):
        base = self._same(other)
        b = other.codes
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.codes)
        m = len(b) - 1
        qdeg = len(rem) - 1 - m
        if qdeg < 0:
            return _poly(base, []), self
        quot = [0] * (qdeg + 1)
        lead_inv, mul, sub = base._inv(b[-1]), base._mul, base._sub
        for i in range(qdeg, -1, -1):
            if rem[m + i]:  # a zero leading remainder skips a step
                c = quot[i] = mul(rem[m + i], lead_inv)
                for j, y in enumerate(b, i):
                    if y:
                        rem[j] = sub(rem[j], mul(c, y))
        del rem[m:]
        return _poly(base, quot), _poly(base, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def t_valuation(self) -> int:
        """Index of the lowest nonzero coefficient; undefined on 0."""
        codes = self.codes
        if not codes:
            raise ZeroDivisionError("t-valuation of 0 is undefined")
        if codes[0]:
            return 0
        # the leading coefficient is nonzero, so some coefficient is
        return next(i for i, c in enumerate(codes) if c)

    def monic(self) -> "Polynomial":
        if not self.codes or self.codes[-1] == 1:
            return self
        return self._scale(self.base._inv(self.codes[-1]))

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
            base = num._same(den)
            if not num:
                den = _poly(base, [1])
            else:
                if den.degree > 0:
                    g = poly_gcd(num, den)
                    if g.degree > 0:
                        num = num // g
                        den = den // g
                lead = den.codes[-1]
                if lead != 1:
                    lead_inv = base._inv(lead)
                    num = num._scale(lead_inv)
                    den = den._scale(lead_inv)
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
        one_poly = _poly(self.base, [1])
        self.zero = RatFunc(_poly(self.base, []), one_poly, normalized=True)
        self.one = RatFunc(one_poly, one_poly, normalized=True)

    @property
    def residue_cardinality(self) -> int:
        return self.base.order

    def element(self, x) -> RatFunc:
        """An int, an integral Fraction, a monomial string c*t^e such as "3",
        "-2t" or "-t^2", or an element of this field as it is; ValueError otherwise."""
        if isinstance(x, RatFunc) and x.num.base == self.base:
            return x
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
        p = self.char
        num = _poly(self.base, [_integer(c, self.base) % p for c in int_coeffs])
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


def check_valued(field):
    """field itself, if it carries a valuation (Q_p or GF(q)(t)); ValueError otherwise."""
    if isinstance(field, FunctionField) or isinstance(field, RationalField) and field.p:
        return field
    raise ValueError(f"need a valued field, got {field!r}, which carries no valuation")
