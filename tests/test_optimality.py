import hashlib
import itertools
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest

from chevalley import (RationalField, brute_force_verify, build,
                       certified_torus_check, kirwan_ness_torus_check, m_of,
                       optimal_cocharacter, root_vector, sl2_completion_check,
                       structure_constants)
from chevalley.corpus import element_from_support, run_instance, standard_instances
from chevalley.grading import CocharRational, grade
from chevalley.lie import LieElement
from chevalley.linalg import rank
from chevalley.optimality import (OptimalityCertificate, _affine_minimizer, _min_norm,
                                  _support_gram, minimum_norm_cocharacter, solve)
from conftest import half_sum_of_positive_coroots
from qp_oracles import (QQ, active_set_min_norm, bordered_affine_minimizer,
                        fourier_motzkin_torus_check, sl2_completion_oracle)
from qp_oracles import solve as fraction_solve


def test_sl2_single_root():
    rs = build("A1")
    q = RationalField()
    cert = optimal_cocharacter(rs, root_vector(rs, q, rs.simple_roots[0]))
    assert cert.mu.coords == (Fraction(1, 2),)
    assert cert.lam == (1,) and cert.k == 2


def test_sl3_regular_is_half_sum_of_positive_coroots():
    rs = build("A2")
    q = RationalField()
    cert = optimal_cocharacter(rs, element_from_support(rs, q, rs.simple_roots))
    assert cert.lam == (1, 1) and cert.k == 1
    half_sum = half_sum_of_positive_coroots(rs)
    assert cert.mu.coords == tuple(half_sum)


def test_sl3_minimal_nilpotent():
    rs = build("A2")
    q = RationalField()
    cert = optimal_cocharacter(rs, root_vector(rs, q, rs.root_index[(1, 1)]))
    assert cert.mu.coords == (Fraction(1, 2), Fraction(1, 2))
    assert cert.lam == (1, 1) and cert.k == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl_n_regular_weighted_dynkin_labels(n):
    # the regular orbit has every simple label <a_i, 2 mu> = 2
    rs = build(f"A{n - 1}")
    q = RationalField()
    cert = optimal_cocharacter(rs, element_from_support(rs, q, rs.simple_roots))
    two_mu = tuple(2 * c for c in cert.mu.coords)
    for i in range(rs.rank):
        assert rs.pair(rs.roots[rs.simple_roots[i]], two_mu) == 2


def _partition_h_oracle(partition):
    """Sorted Jacobson-Morozov H-values for a nilpotent of Jordan type
    `partition` in gl_n: each part b contributes b-1, b-3, ..., 1-b."""
    vals = []
    for b in partition:
        vals += [b - 1 - 2 * j for j in range(b)]
    return sorted(vals, reverse=True)


def _partitions(n):
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_partition_representatives_match_weighted_dynkin_oracle(n):
    # support of the Jordan representative = simple roots inside each block;
    # sorted 2 mu in the diagonal coordinates must reproduce the classical
    # H-values of the orbit
    rs = build(f"A{n - 1}")
    q = RationalField()
    for partition in _partitions(n):
        if all(b == 1 for b in partition):
            continue  # zero matrix, not nilpotent-nonzero
        idxs = []
        pos = 0
        for b in partition:
            idxs += list(range(pos, pos + b - 1))
            pos += b
        if not idxs:
            continue
        Y = element_from_support(rs, q, [rs.simple_roots[i] for i in idxs])
        cert = optimal_cocharacter(rs, Y)
        # convert mu (coroot-basis coords m) to diagonal coords t_i = m_i - m_{i-1}
        m = [Fraction(0)] + [2 * c for c in cert.mu.coords] + [Fraction(0)]
        t_vals = sorted((m[i + 1] - m[i] for i in range(n)), reverse=True)
        assert t_vals == _partition_h_oracle(partition), partition


def test_normalization_and_kkt_every_instance():
    rng = random.Random(13)
    for t in ["A3", "B3", "C3", "G2", "D4"]:
        rs = build(t)
        q = RationalField()
        for _ in range(10):
            supp = rng.sample(rs.positive_roots, rng.randint(1, 4))
            Y = element_from_support(rs, q, supp)
            cert = optimal_cocharacter(rs, Y)
            # m_Y(mu) = 1 exactly
            pairings = [rs.pair(rs.roots[ri], cert.mu.coords) for ri in supp]
            assert min(pairings) == 1
            assert m_of(rs, Y, cert.lam) == cert.k
            assert all(Fraction(l) == cert.k * c for l, c in zip(cert.lam, cert.mu.coords))
            assert CocharRational.of(rs, cert.lam).is_primitive()
            # mu lies in the span of the active coroots
            nus = [list(rs.nu(rs.roots[ri])) for ri in cert.active_constraints]
            r0 = rank(QQ, nus)
            aug = nus + [list(cert.mu.coords)]
            r1 = rank(QQ, aug)
            assert r0 == r1


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
def test_integer_readout_matches_primitive_multiple(isogeny):
    # lam and k are read off Wolfe's integers; the Fraction round trip they
    # replace (primitive multiple of mu, then m_Y(lam)) must give the same
    # pair, on the standard instances and on seeded E7 and E8 supports
    rng = random.Random(f"integer-readout:{isogeny}")
    q = RationalField()
    for t in ["A4", "A5", "A6", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]:
        rs = build(t, isogeny)
        entries = [(e["support"], e["coefficients"]) for e in standard_instances(t)]
        if t in ("E7", "E8"):
            entries += [(rng.sample(rs.positive_roots, rng.randint(1, 8)), None)
                        for _ in range(40)]
        for support, coefficients in entries:
            Y = element_from_support(rs, q, support, coefficients)
            cert = optimal_cocharacter(rs, Y)
            assert cert.lam == cert.mu.primitive_multiple()[0], (t, support)
            assert cert.k == m_of(rs, Y, cert.lam) and type(cert.k) is int, (t, support)
            assert all(l == cert.k * c for l, c in zip(cert.lam, cert.mu.coords)), (t, support)


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
def test_one_wolfe_run_certificate_matches_torus_check(isogeny):
    # run_instance reads torus_check off the certificate's Wolfe run; the
    # general check at cert.lam must agree, and the weights must rebuild mu
    rng = random.Random(f"one-wolfe:{isogeny}")
    q = RationalField()
    for t in ["A3", "B3", "C3", "D4", "E6", "F4", "G2"]:
        rs = build(t, isogeny)
        sc = structure_constants(rs)
        entries = standard_instances(t)
        for entry in rng.sample(entries, min(8, len(entries))):
            report = run_instance(rs, sc, entry, [2])
            Y = element_from_support(rs, q, entry["support"], entry["coefficients"])
            cert = optimal_cocharacter(rs, Y)
            assert report["torus_check"] is kirwan_ness_torus_check(rs, Y, cert.lam) is True
            assert cert.mu.norm_sq == rs.norm_sq(cert.mu.coords) == 1 / cert.vv
            weighted = [ri for ri, w in cert.weights.items() if w]
            assert weighted and set(weighted) <= set(cert.active_constraints)
            assert sum(cert.weights.values()) == 1
            v = [sum(w * c for w, c in zip(cert.weights.values(), col))
                 for col in zip(*(rs.nu(rs.roots[ri]) for ri in cert.weights))]
            assert tuple(c / cert.vv for c in v) == cert.mu.coords


def test_certified_torus_check_rejects_tampered_certificates():
    q = RationalField()
    rs = build("A2")
    a1, a2 = rs.simple_roots
    Y = element_from_support(rs, q, [a1, a2])
    cert = optimal_cocharacter(rs, Y)
    assert certified_torus_check(rs, Y, cert) is True
    cert.vv = cert.vv * 2
    with pytest.raises(RuntimeError, match="vv"):
        certified_torus_check(rs, Y, cert)
    cert = optimal_cocharacter(rs, Y)
    cert.weights[rs.root_index[(1, 1)]] = Fraction(1, 3)  # a1 + a2 is not active
    with pytest.raises(RuntimeError, match="KKT"):
        certified_torus_check(rs, Y, cert)
    # the single-degree precondition is kept, as a ValueError
    Y3 = element_from_support(rs, q, [a1, a2, rs.root_index[(1, 1)]])
    with pytest.raises(ValueError, match="single degree"):
        certified_torus_check(rs, Y3, optimal_cocharacter(rs, Y3))


def test_brute_force_verify_examples():
    q = RationalField()
    sl2 = build("A1")
    cert2 = optimal_cocharacter(sl2, root_vector(sl2, q, sl2.simple_roots[0]))
    rep = brute_force_verify(sl2, root_vector(sl2, q, sl2.simple_roots[0]), cert2, 5)
    assert rep["ok"] and rep["candidates_checked"] > 0

    sl3 = build("A2")
    Ymin = root_vector(sl3, q, sl3.root_index[(1, 1)])
    cert3 = optimal_cocharacter(sl3, Ymin)
    rep3 = brute_force_verify(sl3, Ymin, cert3, 4)
    assert rep3["ok"]
    assert rep3["best_ratio_sq_in_box"] == str(Fraction(4, 2))


def test_brute_force_detects_corrupted_certificate():
    q = RationalField()
    sl3 = build("A2")
    Ymin = root_vector(sl3, q, sl3.root_index[(1, 1)])
    cert = optimal_cocharacter(sl3, Ymin)
    # corrupt: lam -> 2 lam + coroot(a1), k recomputed accordingly
    bad_lam = tuple(2 * l + c for l, c in zip(cert.lam, sl3.coroot(sl3.roots[sl3.simple_roots[0]])))
    bad_k = m_of(sl3, Ymin, bad_lam)
    bad = OptimalityCertificate(
        mu=CocharRational.of(sl3, tuple(Fraction(x, bad_k) for x in bad_lam)),
        lam=bad_lam, k=bad_k, active_constraints=[], support=cert.support)
    rep = brute_force_verify(sl3, Ymin, bad, 5)
    assert not rep["ok"] and rep["violations"]


def test_box_must_contain_certificate():
    q = RationalField()
    sl3 = build("A2")
    Y = root_vector(sl3, q, sl3.root_index[(1, 1)])
    cert = optimal_cocharacter(sl3, Y)
    with pytest.raises(ValueError):
        brute_force_verify(sl3, Y, cert, 0)
    # the radius is an int, not a bool: 2.5 and "2" raised TypeError, and
    # True ran as radius 1
    for radius in (2.5, "2", True, 2.0, None):
        with pytest.raises(ValueError, match=f"^the box radius must be an int, got "
                                             f"{re.escape(repr(radius))}$"):
            brute_force_verify(sl3, Y, cert, radius)
    with pytest.raises(ValueError, match="^box must contain the certified optimum$"):
        brute_force_verify(sl3, Y, cert, 0)


def test_kirwan_ness_torus_check_examples():
    q = RationalField()
    sl3 = build("A2")
    theta = sl3.root_index[(1, 1)]
    assert kirwan_ness_torus_check(sl3, root_vector(sl3, q, theta), (1, 1)) is True
    assert kirwan_ness_torus_check(sl3, root_vector(sl3, q, sl3.simple_roots[0]), (1, 1)) is False
    with pytest.raises(ValueError):
        # not concentrated in a single degree under lam = (1, 1)? build one:
        Y = element_from_support(sl3, q, [theta, sl3.simple_roots[0]])
        kirwan_ness_torus_check(sl3, Y, (1, 1))


def test_kn_check_passes_on_qp_optimum_with_spanning_support():
    rng = random.Random(77)
    for t in ["A3", "B2", "G2"]:
        rs = build(t)
        q = RationalField()
        for _ in range(10):
            supp = rng.sample(rs.positive_roots, rng.randint(1, 3))
            mu, active = minimum_norm_cocharacter(rs, supp)
            Y = element_from_support(rs, q, active)
            cert = optimal_cocharacter(rs, Y)
            assert kirwan_ness_torus_check(rs, Y, cert.lam) is True


def test_argmin_invariant_under_norm_scaling():
    # rescaling the invariant form on a factor changes the norm but not
    # the returned lambda
    rng = random.Random(99)
    for t, factors in [("A2", 1), ("B2", 1), ("A2xA1", 2), ("G2", 1)]:
        plain = build(t)
        scales = [[Fraction(3)] * factors, [Fraction(2, 7)] * factors,
                  [Fraction(5, 2)] + [Fraction(1)] * (factors - 1)]
        for sc_vec in scales:
            scaled = build(t, scale=sc_vec)
            q = RationalField()
            for _ in range(8):
                supp = rng.sample(plain.positive_roots, rng.randint(1, 3))
                c1 = optimal_cocharacter(plain, element_from_support(plain, q, supp))
                c2 = optimal_cocharacter(scaled, element_from_support(scaled, q, supp))
                assert c1.lam == c2.lam and c1.k == c2.k
                assert c1.mu.coords == c2.mu.coords


def test_qp_against_box_enumeration_random_supports():
    # the dual route: min-norm solver vs exhaustive integral search
    rng = random.Random("qp-vs-box")
    for t in ["A2", "B2", "G2", "A3"]:
        rs = build(t)
        q = RationalField()
        radius = 4
        for _ in range(6):
            supp = rng.sample(rs.positive_roots, rng.randint(1, 3))
            Y = element_from_support(rs, q, supp)
            cert = optimal_cocharacter(rs, Y)
            if max(abs(c) for c in cert.lam) > radius:
                continue
            rep = brute_force_verify(rs, Y, cert, radius)
            assert rep["ok"], (t, supp, rep["violations"][:2])
            # the box must actually attain the certified ratio
            assert rep["best_ratio_sq_in_box"] == rep["certificate_ratio_sq"]


def test_products_full_flow():
    rs = build("A1xA1")
    q = RationalField()
    Y = element_from_support(rs, q, rs.simple_roots)
    cert = optimal_cocharacter(rs, Y)
    assert cert.lam == (1, 1) and cert.k == 2  # two orthogonal sl2 strings
    rep = brute_force_verify(rs, Y, cert, 4)
    assert rep["ok"]
    mixed = build("G2xA1")
    # the short G2 root and the A1 root
    Ym = element_from_support(mixed, q, [mixed.simple_roots[i] for i in (0, 2)])
    certm = optimal_cocharacter(mixed, Ym)
    assert m_of(mixed, Ym, certm.lam) == certm.k
    assert kirwan_ness_torus_check(mixed, root_vector(mixed, q, mixed.simple_roots[2]),
                                   (0, 0, 1)) is True


def _assert_certificate(rs, Y, cert):
    """The checks optimal_cocharacter makes, repeated from the outside."""
    assert min(rs.pair(rs.roots[ri], cert.mu.coords) for ri in cert.support) == 1
    assert m_of(rs, Y, cert.lam) == cert.k
    assert all(Fraction(l) == cert.k * c for l, c in zip(cert.lam, cert.mu.coords))
    nus = [list(rs.nu(rs.roots[ri])) for ri in cert.active_constraints]
    assert rank(RationalField(), nus + [list(cert.mu.coords)]) == rank(RationalField(), nus)


@pytest.mark.parametrize("t, count", [("E6", 20), ("E8", None)])
def test_huge_supports_solve(t, count):
    # no cap on the number of constraints: 20 E6 roots and all 120
    # positive E8 roots; both supports contain the simple roots, so the
    # optimum is the half sum of positive coroots with k = 1
    rs = build(t)
    q = RationalField()
    Y = element_from_support(rs, q, rs.positive_roots[:count])
    cert = optimal_cocharacter(rs, Y)
    _assert_certificate(rs, Y, cert)
    rho = half_sum_of_positive_coroots(rs)
    assert cert.lam == tuple(rho) and cert.k == 1
    assert sorted(cert.active_constraints) == sorted(rs.simple_roots)


def _largest_degree_class(rs, roots, lam):
    """The roots of the largest degree under lam, the first such degree on
    a tie: a support on which Y sits in one degree."""
    classes = {}
    for ri in roots:
        classes.setdefault(rs.pair(rs.roots[ri], lam), []).append(ri)
    return max(classes.values(), key=len)


def test_solver_matches_active_set_and_fourier_motzkin_oracles():
    # seeded supports with m <= 10 distinct constraints: mu, the active
    # set and the torus verdict agree with the exponential oracles
    rng = random.Random("min-norm-vs-oracles")
    q = RationalField()
    verdicts = []
    for t in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2", "E6"]:
        for iso in ["simply_connected", "adjoint"]:
            rs = build(t, iso)
            for _ in range(4):
                supp = rng.sample(rs.positive_roots, rng.randint(1, min(10, len(rs.positive_roots))))
                mu, active = minimum_norm_cocharacter(rs, supp)
                assert (mu, active) == active_set_min_norm(rs, supp), (t, iso, supp)
                lam_opt = optimal_cocharacter(rs, element_from_support(rs, q, active)).lam
                lam_rand = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
                part = _largest_degree_class(rs, supp, lam_rand)
                for lam, roots in [(lam_opt, active), (lam_rand, part),
                                   ((0,) * rs.rank, supp)]:
                    verdict = kirwan_ness_torus_check(rs, element_from_support(rs, q, roots), lam)
                    assert verdict == fourier_motzkin_torus_check(rs, roots, lam), (t, iso, roots, lam)
                    verdicts.append((lam, verdict))
    zero = [v for lam, v in verdicts if not any(lam)]
    assert zero and not any(zero)  # lam = 0: the positive support is destabilizing
    assert {True, False} <= {v for lam, v in verdicts if any(lam)}


def test_a_repeated_support_root_is_one_constraint():
    # Wolfe's support is deduplicated by root index: [a, a, b] has the Gram,
    # mu and weights of [a, b], and a and b, two simple roots of one height,
    # stay two constraints, the oracle's
    for t in ["A3", "B3", "G2", "E8"]:
        for iso in ["simply_connected", "adjoint"]:
            rs = build(t, iso)
            a, b = rs.simple_roots[:2]
            assert _support_gram(rs, [a, a, b]) == _support_gram(rs, [a, b])
            assert _support_gram(rs, [a, b])[0] == [a, b]
            twice, once = _min_norm(rs, [a, a, b]), _min_norm(rs, [a, b])
            assert twice[0] == once[0] == active_set_min_norm(rs, [a, b])[0], (t, iso)
            assert twice[4] == once[4] and set(once[4]) == {a, b}, (t, iso)
            assert minimum_norm_cocharacter(rs, [a, a, b])[0] == once[0]


@pytest.mark.parametrize("t, iso, scale", [
    ("E7", "simply_connected", None), ("E7", "adjoint", None), ("E8", "simply_connected", None),
    ("G2", "simply_connected", [Fraction(2, 5)]), ("G2", "adjoint", [Fraction(2, 5)]),
    ("A2xG2", "simply_connected", [Fraction(1, 3), Fraction(7, 2)]),
    ("A2xG2", "adjoint", [Fraction(1, 3), Fraction(7, 2)])])
def test_solver_matches_oracles_on_large_and_scaled_types(t, iso, scale):
    # Wolfe runs on the Gram scaled by the lcm of the denominators of
    # (a, a)/2; fractional lengths and the big E7/E8 corrals must give the
    # oracles' mu and active set, and on the scaled types their torus verdicts
    rng = random.Random(f"min-norm-scaled:{t}:{iso}")
    rs = build(t, iso, scale=scale)
    q = RationalField()
    for _ in range(4):
        m = rng.randint(min(4, rs.rank), min(8, len(rs.positive_roots)))
        supp = rng.sample(rs.positive_roots, m)
        mu, active = minimum_norm_cocharacter(rs, supp)
        assert (mu, active) == active_set_min_norm(rs, supp), supp
        if scale is None:
            continue
        lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        Ya = element_from_support(rs, q, active)
        for roots, at in [(active, optimal_cocharacter(rs, Ya).lam),
                          (_largest_degree_class(rs, supp, lam), lam)]:
            assert (kirwan_ness_torus_check(rs, element_from_support(rs, q, roots), at)
                    == fourier_motzkin_torus_check(rs, roots, at)), (roots, at)


def _certificate_records(rs, rng, count, lo, hi, digest):
    """Feed `digest` the certificate (to_json, Wolfe's weights and vv) and
    two torus verdicts of `count` seeded supports of lo to hi roots."""
    q = RationalField()
    for _ in range(count):
        supp = sorted(rng.sample(rs.positive_roots, rng.randint(lo, hi)))
        coeffs = [rng.randint(1, 9) for _ in supp]
        cert = optimal_cocharacter(rs, element_from_support(rs, q, supp, coeffs))
        Ya = element_from_support(rs, q, cert.active_constraints)
        torus = kirwan_ness_torus_check(rs, Ya, cert.lam)
        lam = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        Yp = element_from_support(rs, q, _largest_degree_class(rs, supp, lam))
        record = [cert.to_json(), {str(ri): str(w) for ri, w in cert.weights.items()},
                  str(cert.vv), torus, kirwan_ness_torus_check(rs, Yp, lam)]
        digest.update(json.dumps(record, sort_keys=True).encode())


def test_e8_certificates_pinned():
    """Certificates and torus verdicts on a seeded pool of E8 supports
    with 8 to 10 roots, pinned by one digest taken while Wolfe still ran
    on Fractions."""
    digest = hashlib.sha256()
    _certificate_records(build("E8"), random.Random("e8-certificates"), 40, 8, 10, digest)
    assert digest.hexdigest() == (
        "b5759ea84df69d5bfeff5df9b7b2570734b32dd5464f09da88c82ca30e6b29c4")


def test_non_simply_laced_certificates_pinned():
    """The same records where the two root lengths differ, so Wolfe's Gram
    has unequal diagonal entries: seeded supports of 4 to 8 roots in G2,
    B5, C5, F4 and a scaled B3, in both isogenies, pinned by one digest
    taken while each corral was still solved as the bordered system."""
    digest = hashlib.sha256()
    rng = random.Random("non-simply-laced-certificates")
    for t, scale in [("G2", None), ("B5", None), ("C5", None), ("F4", None), ("B3", [3])]:
        for iso in ["simply_connected", "adjoint"]:
            rs = build(t, iso, scale=scale)
            _certificate_records(rs, rng, 12, 4, min(8, len(rs.positive_roots)), digest)
    assert digest.hexdigest() == (
        "ede8c698946a0fc4b3f1a502e9960147c079786a08ba60f3f7838faf795fc205")


def test_singular_corral_raises_under_O():
    # two copies of one point are affinely dependent: their corral system
    # K_S + J is singular, and the fraction-free solve must say so with a
    # RuntimeError that `python -O` keeps
    code = ("from chevalley.optimality import _affine_minimizer\n"
            "try:\n"
            "    _affine_minimizer([[2, 2], [2, 2]], [0, 1])\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("singular corral")
    # a nonsingular corral: the midpoint of two points of norm 2 at angle 2pi/3
    y, d = _affine_minimizer([[2, -1], [-1, 2]], [0, 1])
    assert [Fraction(c, d) for c in y] == [Fraction(1, 2)] * 2


def test_affine_minimizer_matches_the_bordered_oracle():
    # seeded corrals S of E8 and F4 support Grams, up to rank + 1 points:
    # y / d is the bordered system's solution over Q when S is affinely
    # independent, and a dependent S raises like a singular corral
    rng = random.Random("corral-vs-bordered")
    seen = set()
    for t in ["E8", "F4"]:
        for iso in ["simply_connected", "adjoint"]:
            rs = build(t, iso)
            for _ in range(60):
                supp = rng.sample(rs.positive_roots, rng.randint(2, 2 * rs.rank))
                reps, hs, _, K = _support_gram(rs, supp)
                # the mirrored upper triangle is the whole Gram
                assert K == [[h * sum(map(mul, rs.pairing_rows[a], rs.coroots[b]))
                              for h, b in zip(hs, reps)] for a in reps]
                S = rng.sample(range(len(K)), rng.randint(1, min(len(K), rs.rank + 2)))
                expected = bordered_affine_minimizer(K, S)
                if expected is None:
                    with pytest.raises(RuntimeError, match="singular corral"):
                        _affine_minimizer(K, S)
                    seen.add("dependent")
                    continue
                y, d = _affine_minimizer(K, S)
                assert d > 0 and sum(y) == d, (t, supp, S)
                assert [Fraction(c, d) for c in y] == expected, (t, supp, S)
                seen.add("rank + 1 points" if len(S) > rs.rank else "fewer points")
    assert seen == {"dependent", "rank + 1 points", "fewer points"}, seen


def test_solve_matches_the_fraction_oracle():
    # seeded integer systems [A | b], square and tall: a dependent column
    # gives None whatever b is, an inconsistent b gives None, and otherwise
    # A x = d b with d > 0 and x / d the oracle's unique solution
    rng = random.Random("optimality-solve")
    seen = set()
    for _ in range(400):
        cols = rng.randint(1, 5)
        rows = cols + rng.choice([0, 0, 1, 3])
        A = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if cols > 1 and rng.random() < 0.25:
            j, l, c = *rng.sample(range(cols), 2), rng.randint(-2, 2)
            for row in A:
                row[j] = c * row[l]
        x0 = [rng.randint(-4, 4) for _ in range(cols)]
        b = ([sum(a * x for a, x in zip(row, x0)) for row in A] if rng.random() < 0.6
             else [rng.randint(-5, 5) for _ in range(rows)])
        got = solve([row + [c] for row, c in zip(A, b)])
        expected = fraction_solve(QQ, [list(map(Fraction, row)) for row in A], list(map(Fraction, b)))
        independent = rank(QQ, [list(map(Fraction, row)) for row in A]) == cols
        shape = "square" if rows == cols else "tall"
        if not independent:
            assert got is None, (A, b)
            seen.add("dependent")
        elif expected is None:
            assert got is None, (A, b)
            seen.add("inconsistent")
        else:
            x, d = got
            assert d > 0 and [Fraction(c, d) for c in x] == expected, (A, b, got)
            assert all(sum(a * c for a, c in zip(row, x)) == d * bb for row, bb in zip(A, b))
            seen.add(shape)
            seen.update({"negative pivot"} if A[0][0] < 0 else set())
    assert seen == {"square", "tall", "dependent", "inconsistent", "negative pivot"}, seen
    # a -1 pivot is negated to the previous pivot 1, and the row with 0
    # under it is left alone: x = (1, 2), d = 1
    assert solve([[-1, 0, -1], [0, 1, 2], [1, 1, 3]]) == ([1, 2], 1)
    assert solve([[2, 4], [1, 2]]) == ([4], 2)  # d is a pivot, not reduced
    assert solve([[1, 2, 3]]) is None  # fewer equations than unknowns
    assert solve([]) == ([], 1)


def test_errors_on_bad_support():
    rs = build("A2")
    q = RationalField()
    with pytest.raises(ValueError):
        optimal_cocharacter(rs, LieElement(q))
    neg = rs.root_index[(-1, 0)]
    with pytest.raises(ValueError):
        optimal_cocharacter(rs, root_vector(rs, q, neg))


def test_sl2_completion_check_positive_and_negative():
    rs = build("A2")
    sc = structure_constants(rs)
    q = RationalField()
    Y = root_vector(rs, q, rs.root_index[(1, 1)])
    cert = optimal_cocharacter(rs, Y)
    assert sl2_completion_check(rs, sc, Y, cert)
    # a wrong mu cannot be completed
    bad = OptimalityCertificate(mu=CocharRational.of(rs, (Fraction(3, 2), Fraction(1, 2))),
                                lam=(3, 1), k=2, active_constraints=[], support=cert.support)
    assert not sl2_completion_check(rs, sc, Y, bad)


def test_sl2_completion_check_matches_dense_oracle():
    # the integer rank test on graded_ad's fill against the dense Fraction
    # solve: seeded supports homogenized to their active roots, with
    # Fraction coefficients (D scaling), and both verdicts must occur
    rng = random.Random("sl2-vs-dense-oracle")
    q = RationalField()
    verdicts = set()
    for t in ["A3", "B3", "C3", "D4", "G2", "F4", "E6"]:
        for iso in ["simply_connected", "adjoint"]:
            rs = build(t, iso)
            sc = structure_constants(rs)
            for _ in range(25):
                supp = rng.sample(rs.positive_roots, rng.randint(1, min(6, len(rs.positive_roots))))
                _, active = minimum_norm_cocharacter(rs, supp)
                coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
                          for _ in active]
                Y = element_from_support(rs, q, active, coeffs)
                cert = optimal_cocharacter(rs, Y)
                verdict = sl2_completion_check(rs, sc, Y, cert)
                assert verdict == sl2_completion_oracle(rs, sc, Y, cert), (t, iso, active, coeffs)
                verdicts.add(verdict)
    assert verdicts == {True, False}
    # hand-made certificates with lam = k mu: h = 2 mu non-integral, and an
    # empty g(-k) (A2 under lam = (1, 1) has degrees -2..2 only, so under
    # lam = (3, 3) no root has degree -2)
    rs = build("A2")
    sc = structure_constants(rs)
    Y = root_vector(rs, q, rs.root_index[(1, 1)], Fraction(1, 2))
    for coords, lam, k in [((Fraction(1, 3), Fraction(1, 3)), (1, 1), 3),
                           ((Fraction(3, 2), Fraction(3, 2)), (3, 3), 2)]:
        cert = OptimalityCertificate(mu=CocharRational.of(rs, coords), lam=lam, k=k,
                                     active_constraints=[], support=Y.support_roots())
        assert not sl2_completion_check(rs, sc, Y, cert)
        assert not sl2_completion_oracle(rs, sc, Y, cert)


def test_sl2_completion_check_rejects_y_outside_degree_k():
    # A2 with support a1, a1+a2, a2: the torus optimum is lam = (1, 1) with
    # k = 1, and a1+a2 has degree 2, outside the block's codomain g(0);
    # like graded_ad, the check raises the degree gate's ValueError
    rs = build("A2")
    sc = structure_constants(rs)
    q = RationalField()
    Y = element_from_support(rs, q, [rs.root_index[a] for a in [(1, 0), (1, 1), (0, 1)]])
    cert = optimal_cocharacter(rs, Y)
    assert (cert.lam, cert.k) == ((1, 1), 1)
    with pytest.raises(ValueError, match="^Y must be concentrated in a single degree$"):
        sl2_completion_check(rs, sc, Y, cert)


def test_sl2_completion_check_needs_lam_equal_k_mu():
    # Morozov's lemma, behind the single elimination, needs lam = k mu; a
    # certificate without it raises, while the dense oracle answers no
    rs = build("A2")
    sc = structure_constants(rs)
    q = RationalField()
    Y = root_vector(rs, q, rs.root_index[(1, 1)], Fraction(1, 2))
    for coords, k in [((Fraction(1, 4), Fraction(1, 4)), 2), ((1, 1), 3)]:
        cert = OptimalityCertificate(mu=CocharRational.of(rs, coords), lam=(1, 1), k=k,
                                     active_constraints=[], support=Y.support_roots())
        with pytest.raises(ValueError, match="lam is not k"):
            sl2_completion_check(rs, sc, Y, cert)
        assert not sl2_completion_oracle(rs, sc, Y, cert)


def test_sl2_completion_check_matches_oracle_on_generic_h_candidates():
    # h-candidates on adjoint F4 and E6: h a label vector in {0, 1, 2}^rank
    # (the simple roots' h-eigenvalues in the coweight basis), Y seeded on
    # the roots where h is 2, kept when Y's optimal cocharacter is mu = h / 2
    rng = random.Random("sl2-generic-h")
    q = RationalField()
    verdicts = []
    for t in ["F4", "E6"]:
        rs = build(t, "adjoint")
        sc = structure_constants(rs)
        for labels in itertools.product(range(3), repeat=rs.rank):
            support = grade(rs, labels).weight_spaces.get(2, [])
            if not support:
                continue
            Y = element_from_support(rs, q, support, [rng.randint(1, 9) for _ in support])
            cert = optimal_cocharacter(rs, Y)
            if list(cert.mu.coords) == [Fraction(c, 2) for c in labels]:
                verdict = sl2_completion_check(rs, sc, Y, cert)
                assert verdict == sl2_completion_oracle(rs, sc, Y, cert), (t, labels)
                verdicts.append(verdict)
    assert verdicts.count(True) > 10 and verdicts.count(False) > 10, verdicts


def test_sl2_completion_holds_on_every_standard_instance():
    # every standard instance is an sl2 certificate in characteristic 0, E8 included
    q = RationalField()
    count = 0
    for t in ["A4", "A5", "A6", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]:
        rs = build(t)
        sc = structure_constants(rs)
        for entry in standard_instances(t):
            Y = element_from_support(rs, q, entry["support"], entry["coefficients"])
            assert sl2_completion_check(rs, sc, Y, optimal_cocharacter(rs, Y)), (t, entry)
            count += 1
    assert count == 981


def test_torus_check_and_min_norm_without_root_support():
    q = RationalField()
    rs = build("A2")
    # no constraint at all: mu = 0 already destabilizes
    assert kirwan_ness_torus_check(rs, LieElement(q, {("H", 0): q.element(1)}), (1, 1)) is False
    with pytest.raises(ValueError, match="empty support"):
        minimum_norm_cocharacter(rs, [])
