import random
from fractions import Fraction
from pathlib import Path

import pytest

from chevalley import (LieElement, RationalField, bracket, graded_ad, lattice_image,
                       phi_of, root_vector, verify_phi_inverse, verify_rrao)
from chevalley.linalg import det

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def qq():
    return RationalField()


def random_element(rs, field, rng: random.Random, max_terms=3, coeff_range=(-5, 5)):
    """Sparse random Lie element: a few basis vectors with small coefficients."""
    keys = [("E", i) for i in range(len(rs.roots))] + [("H", j) for j in range(rs.rank)]
    out = LieElement(field)
    for key in rng.sample(keys, rng.randint(1, min(max_terms, len(keys)))):
        c = field.element(rng.randint(*coeff_range))
        out = out + LieElement(field, {key: c})
    return out


def jacobiator(sc, X, Y, Z):
    """[[X, Y], Z] + [[Y, Z], X] + [[Z, X], Y], zero by the Jacobi identity."""
    return (bracket(sc, bracket(sc, X, Y), Z) + bracket(sc, bracket(sc, Y, Z), X)
            + bracket(sc, bracket(sc, Z, X), Y))


def half_sum_of_positive_coroots(rs) -> list:
    """rho-check, summed root by root: the optimal cocharacter of a
    regular nilpotent, and the oracle the library's results meet."""
    half = [Fraction(0)] * rs.rank
    for ri in rs.positive_roots:
        for j, c in enumerate(rs.coroot(rs.roots[ri])):
            half[j] += Fraction(c, 2)
    return half


def random_square_grading(rs, rng: random.Random):
    """Random (lam, k) whose blocks g(-i) -> g(k - i), 0 < i < k, are all
    square, plus the roots of each degree (a dict degree -> root indices)."""
    while True:
        lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        degs = {}
        for ri, a in enumerate(rs.roots):
            degs.setdefault(int(rs.pair(a, lam)), []).append(ri)
        ks = [k for k in degs if k > 1
              and all(len(degs.get(-i, [])) == len(degs.get(k - i, [])) for i in range(1, k))]
        if ks:
            return lam, rng.choice(ks), degs


def random_graded_element(rs, field, rng: random.Random, roots):
    """Each root of `roots` with probability 0.85, coefficient c * pi**j
    for c in 1..8 and j in 0..2.  The sum may be 0: callers check
    is_zero() and draw again."""
    X = LieElement(field)
    pi = field.uniformizer()
    for ri in roots:
        if rng.random() < 0.85:
            c = field.element(rng.randint(1, 8))
            for _ in range(rng.randint(0, 2)):
                c = c * pi
            X = X + root_vector(rs, field, ri, c)
    return X


def random_polynomial_element(rs, field, rng: random.Random, roots):
    """Each root of `roots` with a random polynomial of degree < 3 over
    GF(q) as coefficient, for field = GF(q)(t); the coefficients are
    integral, as lattice_image needs.  The sum may be 0, as above."""
    q = field.residue_cardinality
    X = LieElement(field)
    for ri in roots:
        c = field.poly([rng.randint(0, q - 1) for _ in range(3)])
        if c:
            X = X + root_vector(rs, field, ri, c)
    return X


def check_phi_identities(rs, sc, rng: random.Random, fields, count):
    """phi(-X) = phi(X) and the conjugation law at a random torus point v,
    on `count` random square-graded X over fields drawn from `fields`."""
    done = 0
    while done < count:
        lam, k, degs = random_square_grading(rs, rng)
        field = rng.choice(fields)
        X = random_graded_element(rs, field, rng, degs[k])
        if X.is_zero():
            continue
        v = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        assert verify_phi_inverse(rs, sc, X, lam, k, field), (rs.type_string(), lam, k)
        assert verify_rrao(rs, sc, X, lam, k, v, field), (rs.type_string(), lam, k, v)
        done += 1


def check_phi_homogeneity(rng: random.Random, systems, fields, count):
    """phi(cX) against phi(X) on `count` random instances with phi(X) != 0,
    each (rs, sc) drawn from `systems`: the half-exponent moves by v(c)
    times the total size of the blocks."""
    done = 0
    while done < count:
        rs, sc = rng.choice(systems)
        field = rng.choice(fields)
        lam, k, degs = random_square_grading(rs, rng)
        X = random_graded_element(rs, field, rng, degs[k])
        if X.is_zero():
            continue
        base = phi_of(rs, sc, X, lam, k, field)
        if base.is_zero():
            continue
        total_dim = sum(len(degs.get(-i, [])) for i in range(1, k))
        vc = rng.randint(-2, 3)
        c = field.element(rng.choice([1, 3, 5]))
        pi = field.uniformizer()
        for _ in range(abs(vc)):
            c = c * pi if vc > 0 else c / pi
        scaled = phi_of(rs, sc, X.scaled(c), lam, k, field)
        assert scaled.half_exponent - base.half_exponent == field.valuation(c) * total_dim
        done += 1


def check_lattice_image(rs, sc, X, lam, k) -> bool:
    """lattice_image of X over GF(q)(t) on each block: a singular block
    has an infinite divisor; on a nonsingular one the valuations sum to
    v(det), stay put for m = max + 1 .. max + 3 and cap at m = 1.
    True if some block is nonsingular."""
    F = X.field
    usable = False
    for i, block in graded_ad(rs, sc, X, lam, k).blocks.items():
        if not block:
            continue
        d = det(F, block)
        vals = lattice_image(rs, sc, X, lam, k, i, 60)
        if not d:
            assert None in vals, (rs.type_string(), lam, k, i)
            continue
        usable = True
        assert None not in vals and sum(vals) == F.valuation(d), (rs.type_string(), lam, k, i)
        m_star = max(vals) + 1
        for m in range(m_star, m_star + 3):
            assert lattice_image(rs, sc, X, lam, k, i, m) == vals
        assert lattice_image(rs, sc, X, lam, k, i, 1) == [min(v, 1) for v in vals]
    return usable
