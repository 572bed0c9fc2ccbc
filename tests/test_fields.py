import operator
import random
import re
from fractions import Fraction

import pytest

from chevalley import build
from chevalley.corpus import element_from_support
from chevalley.fields import (FiniteField, FunctionField, Polynomial, PrimeField,
                              RatFunc, RationalField, check_valued, factor_prime_power)
from chevalley.fields import is_prime, poly_gcd

import ff_oracles


def _digits(f: Polynomial) -> list:
    """f's coefficients as the oracle's digit tuples."""
    return [c.coeffs for c in f.coeffs]


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


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ratfunc_constructor_matches_always_gcd_oracle(q):
    """RatFunc skips the gcd for a constant denominator and the rescale
    for a monic one; it must still give the oracle's normal form, with a
    monic denominator prime to the numerator, on every kind of input."""
    F = FiniteField(q)
    O = ff_oracles.OracleField(F.char, F.modulus)
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
        assert (_digits(x.num), _digits(x.den)) == ff_oracles.normal_form(
            O, _digits(num), _digits(den))
        assert x.den.coeffs[-1] == F.one
        assert ff_oracles.poly_gcd(O, _digits(x.num), _digits(x.den)) == [O.one]
    assert all(seen.values()), seen


def test_has_valuation():
    # check_valued is the one gate for a field with a valuation
    for field in (RationalField(3), FunctionField(4)):
        assert check_valued(field) is field
    for field, name in ((RationalField(), "Q"), (PrimeField(5), "GF(5)")):
        with pytest.raises(ValueError, match=rf"^need a valued field, got {re.escape(name)}, "
                                             "which carries no valuation$"):
            check_valued(field)


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
    """Pin both on -2 <= n < 5000 against a sieve, factor_prime_power's
    message included."""
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


@pytest.mark.parametrize("q", [4.0, "4", True, Fraction(4), None])
def test_field_order_is_an_int(q):
    # 4.0 and Fraction(4) raised AttributeError and "4" TypeError
    for make in (factor_prime_power, FiniteField, FunctionField):
        with pytest.raises(ValueError, match=f"^not a prime power: {re.escape(repr(q))}$"):
            make(q)


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


@pytest.mark.parametrize("make, q", [(PrimeField, 3), (FiniteField, 4), (FunctionField, 3)])
def test_element_reduces_integers_and_refuses_the_rest(make, q):
    """Ints and integral Fractions reduce mod p; a field of characteristic
    p has no 1/2 or 2.5, so those raise, naming the value and the field."""
    field = make(q)
    for x in (5, -4, Fraction(10, 2), Fraction(-9, 3)):
        assert field.element(x) == field.element(int(x) % field.char)
    for bad in (Fraction(1, 2), 2.5, 2.0, None):
        with pytest.raises(ValueError, match=rf"cannot embed {re.escape(repr(bad))} in "
                                             rf"{re.escape(repr(field))}"):
            field.element(bad)


def test_from_coeffs_refuses_a_non_integer():
    # int() would truncate 1/2 and 2.5 to 0 and 2, both 0 in GF(4)
    f4 = FiniteField(4)
    for bad in (Fraction(1, 2), 2.5):
        with pytest.raises(ValueError, match=re.escape(f"cannot embed {bad!r} in {f4!r}")):
            f4.from_coeffs((bad, 2))
    assert f4.from_coeffs((Fraction(4, 2), 3)) == f4.from_coeffs((0, 1))


def test_element_from_support_refuses_a_non_integral_coefficient_mod_p():
    rs = build("A2")
    for field in (PrimeField(3), FunctionField(3)):
        with pytest.raises(ValueError, match=r"cannot embed Fraction\(1, 2\)"):
            element_from_support(rs, field, [(1, 0)], [Fraction(1, 2)])
        Y = element_from_support(rs, field, [(1, 0)], [Fraction(4, 2)])
        assert Y.coeffs == {("E", rs.root_index[(1, 0)]): field.element(2)}


def test_no_float_becomes_an_exact_coefficient():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10; the finite
    # and function fields' refusal is test_element_reduces_integers_and_refuses_the_rest
    for field in (RationalField(), RationalField(5)):
        for bad in (0.1, 2.0):
            with pytest.raises(ValueError, match=re.escape(f"cannot embed {bad!r} in {field!r}")):
                field.element(bad)
    rs = build("A2")
    for field in (RationalField(), PrimeField(5), FunctionField(4)):
        with pytest.raises(ValueError, match=re.escape(f"cannot embed 0.5 in {field!r}")):
            element_from_support(rs, field, [(1, 0)], [0.5])


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_polynomial_divmod_is_division_with_remainder(q):
    # q*b + r == a and deg r < deg b, with deg a < deg b and constant b included
    F = FiniteField(q)
    rng = random.Random(q)
    elements = list(F.elements())
    nonzero = [x for x in elements if x]

    def poly(deg):
        return Polynomial(F, [rng.choice(elements) for _ in range(deg)] + [rng.choice(nonzero)])

    cases = [(poly(rng.randint(0, 8)), poly(rng.randint(0, 6))) for _ in range(150)]
    cases += [(poly(2), poly(5)), (poly(6), poly(0)), (Polynomial(F, []), poly(3))]
    assert any(a.degree < b.degree for a, b in cases)
    assert any(b.degree == 0 for a, b in cases)
    for a, b in cases:
        quot, rem = divmod(a, b)
        assert quot * b + rem == a, (a, b)
        assert rem.degree < b.degree, (a, b)
        assert (a // b, a % b) == (quot, rem)


def test_is_prime_beyond_trial_division():
    # strong pseudoprimes to the bases 2..11, 2..23 and 2..37 respectively
    for n in [3215031751, 3825123056546413051, 318665857834031151167461]:
        assert is_prime(n) is False, n
    mersenne = 2 ** 61 - 1
    assert is_prime(mersenne) is True
    assert factor_prime_power(mersenne ** 2) == (mersenne, 2)
    assert factor_prime_power(mersenne) == (mersenne, 1)
    psi_13 = 3317044064679887385961981  # the least strong pseudoprime to the primes <= 41
    with pytest.raises(ValueError, match="primality is decided only below"):
        is_prime(psi_13)
    assert is_prime(psi_13 + 1) is False  # even: trial division decides it


# GF(100003^2) multiplies digit by digit, beyond the exp/log tables; x^2 + 1
# is its modulus, irreducible as 100003 = 3 mod 4
ORACLE_FIELDS = [2, 3, 4, 8, 9, 25, 343, 512, 100003 ** 2]


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_arithmetic_matches_the_digit_tuple_oracle(q):
    """Seeded random elements and polynomials over GF(q): field and
    polynomial arithmetic, poly_gcd, monic, t_valuation, the RatFunc normal
    form, the valuation and every repr agree with tests/ff_oracles.py."""
    base = FiniteField(q)
    if q == 100003 ** 2:
        assert base.modulus == (1, 0, 1)
    O = ff_oracles.OracleField(base.char, base.modulus)
    K = FunctionField(q)
    rng = random.Random(f"ff-oracle-{q}")
    for _ in range(60):
        a, b = base.from_coeffs(O.digits(rng.randrange(q))), base.from_coeffs(O.digits(rng.randrange(q)))
        da, db = a.coeffs, b.coeffs
        assert ((a + b).coeffs, (a - b).coeffs, (-a).coeffs, (a * b).coeffs, repr(a)) == (
            O.add(da, db), O.sub(da, db), O.neg(da), O.mul(da, db), O.repr(da))
        if b:
            assert ((a / b).coeffs, b.inverse().coeffs) == (O.mul(da, O.inv(db)), O.inv(db))

    def draw(deg):
        """Digits of a polynomial of degree deg >= -1, some with low zeros."""
        codes = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)] * (deg >= 0)
        low = rng.choice([0, 0, 1, 2]) if codes else 0
        return [O.digits(c) for c in [0] * low + codes]

    kinds = dict.fromkeys(["shared_factor", "t_valuation", "division"], 0)
    for _ in range(80):
        fo, go = draw(rng.randint(-1, 5)), draw(rng.randint(-1, 5))
        if rng.random() < 0.3 and fo and go:  # a common factor for the gcd to find
            h = draw(1)
            fo, go = ff_oracles.poly_mul(O, fo, h), ff_oracles.poly_mul(O, go, h)
            kinds["shared_factor"] += 1
        f, g = Polynomial(base, map(O.code, fo)), Polynomial(base, map(O.code, go))
        assert _digits(f) == fo and f.degree == len(fo) - 1
        assert _digits(f + g) == ff_oracles.poly_add(O, fo, go)
        assert _digits(f - g) == ff_oracles.poly_sub(O, fo, go)
        assert _digits(-f) == ff_oracles.poly_neg(O, fo)
        assert _digits(f * g) == ff_oracles.poly_mul(O, fo, go)
        assert _digits(f.monic()) == ff_oracles.monic(O, fo)
        assert _digits(poly_gcd(f, g)) == ff_oracles.poly_gcd(O, fo, go)
        assert repr(f) == ff_oracles.poly_repr(O, fo)
        if fo:
            assert f.t_valuation() == ff_oracles.t_valuation(O, fo)
            kinds["t_valuation"] += f.t_valuation() > 0
        if go:
            kinds["division"] += 1
            quot, rem = divmod(f, g)
            assert [_digits(quot), _digits(rem)] == list(ff_oracles.poly_divmod(O, fo, go))
            assert (f // g, f % g) == (quot, rem)
            x = RatFunc(f, g)
            num, den = ff_oracles.normal_form(O, fo, go)
            assert (_digits(x.num), _digits(x.den)) == (num, den)
            assert repr(x) == ff_oracles.ratfunc_repr(O, num, den)
            if fo:
                assert K.valuation(x) == (ff_oracles.t_valuation(O, num)
                                          - ff_oracles.t_valuation(O, den))
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("q1, q2", [(2, 4), (2, 3)])
def test_arithmetic_across_two_finite_fields_raises(q1, q2):
    """GF(q1)(t) and GF(q2)(t), and their polynomials, do not mix: every
    operation raises ValueError, as FFElement arithmetic does; two copies of
    one field mix freely."""
    K1, K2 = FunctionField(q1), FunctionField(q2)
    x, y = K1.t() * K1.t() + K1.one, K2.t() * K2.t() + K2.t()
    f, g = x.num, y.num
    ops = [operator.add, operator.sub, operator.mul, operator.truediv]
    for a, b in [(x, y), (y, x)]:
        for op in ops:
            with pytest.raises(ValueError, match="elements of different finite fields"):
                op(a, b)
    for a, b in [(f, g), (g, f)]:
        for op in [operator.add, operator.sub, operator.mul, divmod, operator.floordiv,
                   operator.mod, poly_gcd]:
            with pytest.raises(ValueError, match="elements of different finite fields"):
                op(a, b)
    assert x * FunctionField(q1).t() == K1.t() * K1.t() * K1.t() + K1.t()


def test_polynomial_operands_check_their_field_first():
    """The field check comes before any shortcut: a zero factor, a dividend
    of lower degree, a foreign element or a code outside [0, q) raise too."""
    f2, f4 = FiniteField(2), FiniteField(4)
    zero, one, t = Polynomial(f2, []), Polynomial(f2, [1]), Polynomial(f4, [0, 1])
    for op, a, b in [(operator.mul, zero, t), (divmod, one, t), (RatFunc, one, t)]:
        with pytest.raises(ValueError, match="elements of different finite fields"):
            op(a, b)
    with pytest.raises(ValueError, match="elements of different finite fields"):
        Polynomial(f2, [f4.one])
    for bad in (4, -1, 1.0):
        with pytest.raises(ValueError, match=r"neither an element nor a code of GF\(4\)"):
            Polynomial(f4, [bad])
    assert Polynomial(f4, [f4.from_coeffs((0, 1)), 1]) == Polynomial(f4, [2, 1])


def test_equal_field_objects_hash_equal():
    """Equal objects built apart hash equal, so they collapse in a set and
    as dict keys; unequal ones stay apart."""
    F, f4 = FunctionField(4), FiniteField(4)
    t = F.t()
    equal = [(F, FunctionField(4)), (t * t / t, FunctionField(4).t()),
             (RationalField(), RationalField()), (RationalField(3), RationalField(3)),
             (PrimeField(2), FiniteField(2)),
             (f4.from_coeffs((0, 1)), FiniteField(4).from_coeffs((0, 1))),
             (Polynomial(f4, [f4.from_coeffs((0, 1)), 1]), Polynomial(FiniteField(4), [2, 1]))]
    unequal = [(PrimeField(2), FiniteField(4)), (FunctionField(2), FunctionField(4)),
               (RationalField(), RationalField(2)), (t, t * t),
               (Polynomial(f4, [1]), Polynomial(PrimeField(2), [1]))]
    for a, b in equal:
        assert a is not b and a == b and hash(a) == hash(b), (a, b)
        assert len({a, b}) == 1 and {a: 1, b: 2} == {a: 2}, (a, b)
    for a, b in unequal:
        assert a != b and len({a, b}) == 2 and len({a: 1, b: 2}) == 2, (a, b)
