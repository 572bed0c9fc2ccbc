import random
from fractions import Fraction

import pytest

from chevalley.fields import (FiniteField, FunctionField, Polynomial, PrimeField,
                              RatFunc, RationalField, factor_prime_power, has_valuation)
from chevalley.fields import is_prime


def test_factor_prime_power():
    assert factor_prime_power(4) == (2, 2)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        factor_prime_power(6)
    with pytest.raises(ValueError):
        factor_prime_power(1)


def test_padic_valuation():
    q2 = RationalField(2)
    assert q2.valuation(Fraction(8, 3)) == 3
    assert q2.valuation(Fraction(3, 4)) == -2
    assert q2.valuation(Fraction(5)) == 0
    with pytest.raises(ZeroDivisionError):
        q2.valuation(Fraction(0))
    with pytest.raises(ValueError):
        RationalField().valuation(Fraction(2))
    with pytest.raises(ValueError):
        RationalField(4)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_padic_valuation_laws(p):
    qp = RationalField(p)
    rng = random.Random(p)
    for _ in range(200):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if x and y:
            assert qp.valuation(x * y) == qp.valuation(x) + qp.valuation(y)
            if x + y:
                assert qp.valuation(x + y) >= min(qp.valuation(x), qp.valuation(y))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_finite_field_axioms(q):
    gf = FiniteField(q)
    els = list(gf.elements())
    assert len(els) == q
    assert len(set(els)) == q
    nonzero = [a for a in els if a]
    # inverses and distributivity on the full multiplication table
    for a in nonzero:
        assert a * a.inverse() == gf.one
    rng = random.Random(q)
    for _ in range(100):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a


def test_gf4_structure():
    gf = FiniteField(4)
    x = gf.from_coeffs((0, 1))
    # x^2 = x + 1 for the modulus t^2 + t + 1
    assert x * x == x + gf.one
    assert x * x * x == gf.one
    assert gf.element(2) == gf.zero  # characteristic 2


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(4)


@pytest.mark.parametrize("make", [RationalField, PrimeField, FunctionField])
def test_fields_reject_zero(make):
    with pytest.raises(ValueError):
        make(0)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_function_field_valuation(q):
    F = FunctionField(q)
    t = F.t()
    one = F.one
    x = (one + t) / (t * t)
    assert F.valuation(x) == -2
    assert F.valuation(t) == 1
    assert F.valuation(F.poly([0, 0, 0, 1])) == 3
    with pytest.raises(ZeroDivisionError):
        F.valuation(F.zero)
    rng = random.Random(q)

    def rand_rf():
        num = F.poly([rng.randint(0, q - 1) for _ in range(4)])
        den = F.poly([rng.randint(0, q - 1) for _ in range(3)])
        if not num.num or not den.num:
            return None
        return num / den

    for _ in range(150):
        a, b = rand_rf(), rand_rf()
        if a is None or b is None:
            continue
        assert F.valuation(a * b) == F.valuation(a) + F.valuation(b)
        if a + b:
            assert F.valuation(a + b) >= min(F.valuation(a), F.valuation(b))
        # field axioms on normalized quotients
        assert (a / b) * b == a


def test_rational_function_normal_form():
    F = FunctionField(3)
    t = F.t()
    a = (t + F.one) * t
    b = t
    x = a / b
    assert x == t + F.one
    assert x.den.degree == 0


def _normal_form_oracle(num, den):
    """Always-gcd normalizer: num/den divided by a gcd found by Euclid's
    algorithm, whatever the degrees, then rescaled so the denominator is
    monic; the result as coefficient tuples of (num, den)."""
    base = den.base
    if not num:
        return (), (base.one.coeffs,)
    g, r = num, den
    while r:
        g, r = r, g % r
    num, den = num // g, den // g
    inv = den.coeffs[-1].inverse()
    return (tuple((c * inv).coeffs for c in num.coeffs),
            tuple((c * inv).coeffs for c in den.coeffs))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ratfunc_constructor_matches_always_gcd_oracle(q):
    """RatFunc skips the gcd for a constant denominator and the rescale
    for a monic one; it must still give the oracle's normal form, with a
    monic denominator prime to the numerator, on every kind of input."""
    F = FiniteField(q)
    rng = random.Random(f"ratfunc-{q}")
    elements = list(F.elements())
    nonzero = [x for x in elements if x]

    def poly(deg):
        if deg < 0:
            return Polynomial(F, [])
        return Polynomial(F, [rng.choice(elements) for _ in range(deg)] + [rng.choice(nonzero)])

    # GF(2) has no non-monic constant
    kinds = ["zero_num", "const_monic", "shared_factor", "any"] + ["const_non_monic"] * (q > 2)
    seen = dict.fromkeys(kinds, 0)
    for _ in range(400):
        kind = rng.choice(kinds)
        seen[kind] += 1
        num = poly(-1) if kind == "zero_num" else poly(rng.randint(0, 4))
        if kind == "const_monic":
            den = Polynomial(F, [F.one])
        elif kind == "const_non_monic":
            den = Polynomial(F, [rng.choice([x for x in nonzero if x != F.one])])
        else:
            den = poly(rng.randint(0, 3))
        if kind == "shared_factor":
            f = poly(rng.randint(1, 2))
            num, den = num * f, den * f * Polynomial(F, [rng.choice(nonzero)])
        x = RatFunc(num, den)
        assert (tuple(c.coeffs for c in x.num.coeffs),
                tuple(c.coeffs for c in x.den.coeffs)) == _normal_form_oracle(num, den)
        assert x.den.coeffs[-1] == F.one
        g, r = x.num, x.den
        while r:
            g, r = r, g % r
        assert g.degree == 0  # gcd(num, den) = 1
    assert all(seen.values()), seen


def test_has_valuation():
    assert has_valuation(RationalField(3))
    assert not has_valuation(RationalField())
    assert has_valuation(FunctionField(4))
    assert not has_valuation(PrimeField(5))


# FiniteField(q).modulus: the first monic irreducible of degree n over F_p,
# constant coefficient varying fastest
MODULI = {
    4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1), 25: (2, 0, 1),
    27: (1, 2, 0, 1), 32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1), 64: (1, 1, 0, 0, 0, 0, 1),
    81: (2, 1, 0, 0, 1), 121: (1, 0, 1), 125: (1, 1, 0, 1), 128: (1, 1, 0, 0, 0, 0, 0, 1),
    243: (1, 2, 0, 0, 0, 1), 256: (1, 1, 0, 1, 1, 0, 0, 0, 1), 343: (2, 0, 0, 1),
    729: (2, 1, 0, 0, 0, 0, 1), 1024: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
}


@pytest.mark.parametrize("q", sorted(MODULI))
def test_finite_field_modulus_pinned(q):
    assert FiniteField(q).modulus == MODULI[q]


def test_is_prime_and_factor_prime_power_against_a_sieve():
    """Both share one trial division; pin them on -2 <= n < 5000 against a
    sieve, factor_prime_power's message included."""
    bound = 5000
    sieve = [False, False] + [True] * (bound - 2)
    for p in range(2, bound):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, bound, p))
    powers = {p ** e: (p, e) for p in range(bound) if sieve[p]
              for e in range(1, bound.bit_length()) if p ** e < bound}
    for n in range(-2, bound):
        assert is_prime(n) is (n >= 0 and sieve[n]), n
        try:
            got = factor_prime_power(n)
        except ValueError as exc:
            got = str(exc)
        assert got == powers.get(n, f"not a prime power: {n}"), n


def test_field_operations_refuse_what_has_no_value():
    f4, f8 = FiniteField(4), FiniteField(8)
    with pytest.raises(ValueError, match="elements of different finite fields"):
        f4.element(1) + f8.element(1)
    with pytest.raises(ZeroDivisionError, match="inverse of 0 in a finite field"):
        f4.element(0).inverse()
    with pytest.raises(ValueError, match="wrong coefficient tuple length"):
        f4.from_coeffs((1, 0, 1))
    f2 = PrimeField(2)
    t_plus_1, zero = Polynomial(f2, (1, 1)), Polynomial(f2, ())
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        divmod(t_plus_1, zero)
    with pytest.raises(ZeroDivisionError, match="t-valuation of 0 is undefined"):
        zero.t_valuation()
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RatFunc(t_plus_1, zero)
    k = FunctionField(2)
    with pytest.raises(ZeroDivisionError, match="division by zero rational function"):
        k.t() / k.element(0)
