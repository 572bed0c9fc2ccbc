"""Cocharacter gradings, filtration invariants and modulus exponents.

A cocharacter lam grades the Lie algebra by <a, lam> on root spaces and
0 on the Cartan; grade groups the root system's `degrees` of lam.
m_of is the least filtration degree of a nilpotent element;
delta_exponent is the valuation exponent of the modulus character of a
torus element on a filtration slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .lie import LieElement
from .rootsystem import RootSystem


@dataclass(frozen=True)
class CocharRational:
    """A rational cocharacter with its cached squared norm."""

    coords: tuple[Fraction, ...]
    norm_sq: Fraction

    @staticmethod
    def of(rs: RootSystem, coords) -> "CocharRational":
        coords = tuple(map(Fraction, rs.cochar_vector(coords, "the cocharacter")))
        return CocharRational(coords, rs.norm_sq(coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def is_primitive(self) -> bool:
        return (self.is_integral() and not self.is_zero()
                and gcd(*(c.numerator for c in self.coords)) == 1)

    def primitive_multiple(self) -> tuple[tuple[int, ...], Fraction]:
        """(lam, k) with lam primitive integral and self = lam / k."""
        if self.is_zero():
            raise ValueError("zero cocharacter has no primitive multiple")
        den = lcm(*(c.denominator for c in self.coords))
        ints = [int(c * den) for c in self.coords]
        g = gcd(*ints)
        return tuple(c // g for c in ints), Fraction(den, g)

    def to_json(self) -> dict:
        return {"coords": [str(c) for c in self.coords], "norm_sq": str(self.norm_sq)}


@dataclass
class GradingReport:
    """Root content of every graded piece; dims count root spaces only."""

    weight_spaces: dict[int, list[int]]
    dims: dict[int, int]
    rank: int

    def dim_at(self, i: int) -> int:
        """Full dimension of the graded piece (Cartan sits at 0)."""
        return self.dims.get(i, 0) + (self.rank if i == 0 else 0)

    def to_json(self) -> dict:
        return {
            "weight_spaces": {str(i): v for i, v in sorted(self.weight_spaces.items())},
            "dims": {str(i): d for i, d in sorted(self.dims.items())},
            "rank": self.rank,
        }


def grade(rs: RootSystem, lam) -> GradingReport:
    """Assign every root to its degree <a, lam>; lam must be integral.
    The roots are visited in index order, so each degree's root indices
    come out increasing."""
    spaces: dict[int, list[int]] = {}
    for i, d in enumerate(rs.degrees(rs.lattice_vector(lam, "lam"))):
        spaces.setdefault(d, []).append(i)
    return GradingReport(spaces, {d: len(v) for d, v in spaces.items()}, rs.rank)


def degrees_of(rs: RootSystem, Y: LieElement, lam) -> list:
    """Degrees of the support of Y (Cartan components count as degree 0)."""
    lam = rs.cochar_vector(lam, "lam")
    return [0 if key[0] == "H" else sum(map(mul, rs.pairing_rows[key[1]], lam))
            for key in Y.coeffs]


def single_degree(rs: RootSystem, Y: LieElement, lam):
    """The one degree of Y's support; ValueError for a zero or mixed-degree Y."""
    degs = set(degrees_of(rs, Y, lam))
    if len(degs) != 1:
        raise ValueError("Y must be concentrated in a single degree")
    return degs.pop()


def check_degree(rs: RootSystem, Y: LieElement, lam, k: int) -> None:
    """ValueError unless k is an int that is not a bool, and Y is 0 or
    lives in the one degree k >= 1 of lam."""
    if type(k) is not int:
        raise ValueError(f"the degree k must be an int, got {k!r}")
    deg = single_degree(rs, Y, lam) if Y else k
    if deg != k or k < 1:
        raise ValueError(f"Y must be concentrated in degree k = {k} >= 1, found {deg}")


def m_of(rs: RootSystem, Y: LieElement, lam) -> Fraction | int:
    """Least filtration degree: min <a, lam> over the support of Y, kept
    exact (a Fraction for a rational lam).  Requires Y nonzero and inside
    the unipotent radical of lam (all support degrees >= 1).
    """
    if Y.is_zero():
        raise ValueError("m is undefined for Y = 0")
    k = min(degrees_of(rs, Y, lam))
    if k < 1:
        raise ValueError("Y is not in the unipotent radical of lambda")
    return k


def instability_ratio_sq(rs: RootSystem, Y: LieElement, lam) -> Fraction:
    """rho_Y(lam)^2 = m_Y(lam)^2 / (lam, lam), exact."""
    lam = rs.cochar_vector(lam, "lam")
    k = m_of(rs, Y, lam)
    return Fraction(k * k) / rs.norm_sq(lam)


def delta_exponent(rs: RootSystem, lam, s: int, t: int | None, v) -> int:
    """Exponent e with delta_{lam,s} (or delta_{lam,(s,t)}) = q**(-e) on
    the torus element of valuation v: the sum of <a, v> over roots with
    s <= <a, lam> (< t when t is given).  s is an int >= 1, t None or an
    int > s (an int here is not a bool), and v must be integral."""
    if type(s) is not int or s < 1:
        raise ValueError(f"the filtration slice starts at an int s >= 1, got {s!r}")
    if t is not None and (type(t) is not int or t <= s):
        raise ValueError(f"need t None or an int t > s = {s}, got {t!r}")
    lam = rs.cochar_vector(lam, "lam")
    v = rs.lattice_vector(v, "the valuation vector v")
    return sum(dv for d, dv in zip(rs.degrees(lam), rs.degrees(v))
               if d >= s and (t is None or d < t))
