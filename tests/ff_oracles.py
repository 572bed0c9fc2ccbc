"""Independent oracle for GF(q)[t] and GF(q)(t).

A field element is its tuple of n digits over F_p, constant term first,
and products are taken digit by digit and reduced mod the field's monic
modulus; a polynomial is a list of such tuples, constant term first,
with no zero leading coefficient.  This is the element-object arithmetic
the library ran before it moved to int codes; nothing here calls the
library's Polynomial or RatFunc.
"""


class OracleField:
    """GF(p^n) on digit tuples, from p and a monic modulus (n + 1 digits)."""

    def __init__(self, p: int, modulus):
        self.p, self.n, self.modulus = p, len(modulus) - 1, tuple(modulus)
        self.q = p ** self.n
        self.zero = (0,) * self.n
        self.one = (1,) + (0,) * (self.n - 1)

    def digits(self, code: int) -> tuple:
        return tuple(code // self.p ** i % self.p for i in range(self.n))

    def code(self, digits) -> int:
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, n = self.p, self.n
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            for j in range(n + 1):
                prod[i - n + j] = (prod[i - n + j] - c * self.modulus[j]) % p
        return tuple(prod[:n])

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of 0")
        result, e = self.one, self.q - 2  # a**(q-2) = a**-1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def repr(self, a) -> str:
        return f"{a[0]}" if self.n == 1 else f"FF{self.q}{a}"


def trim(f: list) -> list:
    while f and not any(f[-1]):
        f.pop()
    return f


def poly_add(F, f, g):
    size = max(len(f), len(g))
    f, g = f + [F.zero] * (size - len(f)), g + [F.zero] * (size - len(g))
    return trim([F.add(x, y) for x, y in zip(f, g)])


def poly_neg(F, f):
    return [F.neg(x) for x in f]


def poly_sub(F, f, g):
    return poly_add(F, f, poly_neg(F, g))


def poly_mul(F, f, g):
    if not f or not g:
        return []
    prod = [F.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    return trim(prod)


def poly_divmod(F, f, g):
    """(quotient, remainder) by long division; ZeroDivisionError for g = 0."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    quot = [F.zero] * max(len(f) - len(g) + 1, 0)
    lead_inv = F.inv(g[-1])
    for i in range(len(quot) - 1, -1, -1):
        c = F.mul(rem[i + len(g) - 1], lead_inv)
        quot[i] = c
        for j, y in enumerate(g):
            rem[i + j] = F.sub(rem[i + j], F.mul(c, y))
    return trim(quot), trim(rem)


def monic(F, f):
    if not f:
        return []
    inv = F.inv(f[-1])
    return [F.mul(x, inv) for x in f]


def poly_gcd(F, f, g):
    while g:
        f, g = g, poly_divmod(F, f, g)[1]
    return monic(F, f)


def t_valuation(F, f) -> int:
    if not f:
        raise ZeroDivisionError("t-valuation of 0 is undefined")
    return next(i for i, x in enumerate(f) if any(x))


def normal_form(F, num, den):
    """num/den divided by their gcd, whatever the degrees, then rescaled so
    the denominator is monic; 0 is 0/1."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return [], [F.one]
    g = poly_gcd(F, num, den)
    num, den = poly_divmod(F, num, g)[0], poly_divmod(F, den, g)[0]
    inv = F.inv(den[-1])
    return [F.mul(x, inv) for x in num], [F.mul(x, inv) for x in den]


def poly_repr(F, f) -> str:
    parts = []
    for i, x in enumerate(f):
        if any(x):
            c = F.repr(x)
            parts.append(c if i == 0 else (f"{c}*t^{i}" if i > 1 else f"{c}*t"))
    return " + ".join(parts) or "0"


def ratfunc_repr(F, num, den) -> str:
    return f"({poly_repr(F, num)})/({poly_repr(F, den)})" if len(den) > 1 else poly_repr(F, num)
