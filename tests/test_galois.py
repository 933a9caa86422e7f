"""Frobenius action on S and T, kernel criterion, congruence suites,
and the diagonal phase matrices."""

import math
from fractions import Fraction

import pytest

from modata import matrixops as mx
from modata.cyclo import CycloNum
from modata.errors import NoMonomialStructureError, NotCoprimeError
from modata.galois import (
    MonomialSignedPerm,
    congruence_suite,
    g_multiplicative_check,
    kernel_test,
    parity_decompose,
    sigma_matrix,
    verify_galois_identities,
    z_matrix,
    z_suite,
)
from modata.lambdamat import bezout
from modata.modrep import IDENTITY, Lcg, SL2ZMat, random_word_matrix, t_gen
from modata.modular_data import builtin_model
from modata.packed import PackedMatrix, PackedModel
from modata.reporting import CheckRecord


def _g_matrix(g):
    """G as a CycloNum matrix: G[i][j] = signs[j] * delta(i, perm[j])."""
    return mx.mat([[CycloNum.rational(e if p == i else 0)
                    for p, e in zip(g.perm, g.signs)]
                   for i in range(len(g.perm))])


def _cyclonum_parity_decompose(md, l):
    """The signed permutation read off the CycloNum sigma_l(S) by matching
    columns, as `parity_decompose` did before it moved to the packed S;
    raises NoMonomialStructureError where that did."""
    s = md.s
    sig = sigma_matrix(l, s, md.conductor_n())
    perm, signs = [], []
    for col in zip(*sig):
        matches = [(nu, e) for nu, other in enumerate(zip(*s))
                   for e in (1, -1)
                   if all(x == e * y for x, y in zip(col, other))]
        if len(matches) != 1:
            raise NoMonomialStructureError(f"{len(matches)} signed matches")
        perm.append(matches[0][0])
        signs.append(matches[0][1])
    if sorted(perm) != list(range(md.rank)):
        raise NoMonomialStructureError("column matches are not a permutation")
    g = MonomialSignedPerm(tuple(perm), tuple(signs))
    if not mx.mat_eq(sig, g.inverse_times(s)):
        raise NoMonomialStructureError("left factorization failed")
    return g


def _cyclonum_galois_identities(md, l):
    """`verify_galois_identities` with the generator word a CycloNum
    product S^-1 T^l S T^lhat S T^l, S^-1 = S S^2, against G as a CycloNum
    matrix."""
    n = md.conductor_n()
    g = _cyclonum_parity_decompose(md, l)
    lhat = pow(l % n, -1, n) if n > 1 else 0
    word = mx.mat_mul(
        mx.mat_mul(md.s, mx.mat_mul(md.s, md.s)),
        mx.scale_rows(md.t_entries(l), mx.mat_mul(
            mx.scale_cols(md.s, md.t_entries(lhat)),
            mx.scale_cols(md.s, md.t_entries(l)))),
    )
    return [
        CheckRecord("galois", "t_frobenius_power",
                    mx.mat_eq(sigma_matrix(l, (md.t_entries(1),), n),
                              (md.t_entries(l),)),
                    params={"l": l}),
        CheckRecord("galois", "t_conjugation_l_squared",
                    g.conjugate_diagonal(md.t_entries(1))
                    == md.t_entries(l * l), params={"l": l}),
        CheckRecord("galois", "g_generator_word",
                    mx.mat_eq(word, _g_matrix(g)),
                    params={"l": l, "lhat": lhat}),
    ]


@pytest.fixture(scope="module")
def su2_1():
    return builtin_model("su2", 1)


@pytest.fixture(scope="module")
def su2_2():
    return builtin_model("su2", 2)


class TestSigmaMatrix:
    def test_identity_map(self, su2_1):
        assert mx.mat_eq(sigma_matrix(1, su2_1.s, 24), su2_1.s)

    def test_rational_matrix_fixed(self, su2_1):
        m = mx.identity(2)
        assert mx.mat_eq(sigma_matrix(7, m, 24), m)

    def test_sqrt2_sign(self, su2_1):
        assert mx.mat_eq(sigma_matrix(5, su2_1.s, 24),
                         mx.scalar_mul(-1, su2_1.s))

    def test_noncoprime_rejected(self, su2_1):
        with pytest.raises(NotCoprimeError):
            sigma_matrix(6, su2_1.s, 24)


class TestParityDecompose:
    def test_trivial_index(self, su2_1):
        g = parity_decompose(su2_1, 1)
        assert g.perm == (0, 1) and g.signs == (1, 1)

    def test_su2_1_at_five(self, su2_1):
        g = parity_decompose(su2_1, 5)
        assert g.perm == (0, 1) and g.signs == (-1, -1)

    def test_su2_2_square_is_trivial(self, su2_2):
        g7 = parity_decompose(su2_2, 7)
        sq = g7.compose(g7)  # 49 = 1 mod 16
        assert sq == MonomialSignedPerm((0, 1, 2), (1, 1, 1))

    def test_orthogonal_monomial(self, su2_2):
        for l in (3, 5, 7):
            g = parity_decompose(su2_2, l)
            gm = _g_matrix(g)
            assert mx.is_identity(mx.mat_mul(gm, mx.transpose(gm)))

    def test_multiplicativity(self, su2_2):
        assert g_multiplicative_check(su2_2, 3, 5).passed
        assert g_multiplicative_check(su2_2, 7, 9).passed


class TestScalingSeams:
    """Checks whose T powers are row or column scalings of S, on models where
    they hold.  `tools/mutants.py` moves a scaling to a wrong exponent or
    side and requires these tests to fail."""

    def test_level_subgroup_in_kernel_su2_2(self):
        records = congruence_suite(builtin_model("su2", 2), 10, 7)
        assert [r.passed for r in records
                if r.check == "level_subgroup_in_kernel"] == [True]

    @pytest.mark.parametrize("name,param", [("su2", 2), ("cyclic_odd", 3)])
    def test_kernel_criterion_equivalence(self, name, param):
        md = builtin_model(name, param)
        n = md.conductor_n()
        rng = Lcg(param)
        ms = [random_word_matrix(rng) for _ in range(40)]
        results = [kernel_test(md, m) for m in ms if math.gcd(m.d, n) == 1]
        assert len(results) >= 10
        assert all(r.criterion == r.direct and r.sigma_factorization
                   for r in results)


class TestFaultInjection:
    def test_left_factorization_failure_is_caught(self, monkeypatch):
        # columns 0 and 2 swapped, the second negated: every column still
        # has one signed match in S, but no row is a signed row of S; a
        # private packed model, because a shared one caches sigma_l(S)
        su2_2 = builtin_model("su2", 2)
        su2_2.packed = PackedModel(su2_2, su2_2._packed_s)
        real = PackedMatrix.sigma

        def swapped(self, l):
            m = real(self, l)
            rows = tuple((row[2], row[1], -row[0]) for row in m.rows)
            return PackedMatrix(m.packing, m.den, rows, m.bits, m.norm)

        monkeypatch.setattr(PackedMatrix, "sigma", swapped)
        with pytest.raises(NoMonomialStructureError,
                           match="left factorization failed"):
            parity_decompose(su2_2, 3)

    def test_generator_word_failure_is_caught(self, monkeypatch):
        # S^-1 with one entry negated enters only the generator word
        md = builtin_model("su2", 2)
        pk = md.packed
        s_inv = pk.s_inv
        rows = [list(row) for row in s_inv.rows]
        rows[0][1] = -rows[0][1]
        assert rows[0][1]
        monkeypatch.setattr(pk, "s_inv", PackedMatrix(
            s_inv.packing, s_inv.den, tuple(map(tuple, rows)), s_inv.bits,
            s_inv.norm))
        for l in (3, 5, 7):
            failed = [r.check for r in verify_galois_identities(md, l)
                      if not r.passed]
            assert failed == ["g_generator_word"]

    def test_t_conjugation_failure_is_caught(self):
        md = builtin_model("su2", 2)
        l = 3
        t = list(md.t_entries(l * l))
        t[1] = -t[1]
        md._t_cache[Fraction(l * l)] = tuple(t)
        passed = {r.check: r.passed for r in verify_galois_identities(md, l)}
        assert not passed["t_conjugation_l_squared"]
        assert passed["t_frobenius_power"] and passed["g_generator_word"]


class TestPackedAgainstCycloNum:
    """`parity_decompose` and `verify_galois_identities` on the packed S
    against the CycloNum code they replaced, at every unit below the
    conductor."""

    @pytest.mark.parametrize("spec", [
        *(f"su2:{k}" for k in range(1, 11)),
        *(f"cyclic_odd:{n}" for n in range(3, 12, 2)),
    ])
    def test_every_unit(self, spec):
        name, param = spec.split(":")
        md = builtin_model(name, int(param))
        n = md.conductor_n()
        units = [l for l in range(1, n) if math.gcd(l, n) == 1]
        for l in units:
            g = parity_decompose(md, l)
            assert g == _cyclonum_parity_decompose(md, l)
            assert (verify_galois_identities(md, l)
                    == _cyclonum_galois_identities(md, l))
        if spec == "su2:6":  # some G_l moves labels and carries a sign
            gs = [parity_decompose(md, l) for l in units]
            assert any(g.perm != tuple(range(md.rank)) for g in gs)
            assert any(-1 in g.signs for g in gs)


class TestGaloisIdentities:
    def test_trivial_l(self, su2_1):
        assert all(r.passed for r in verify_galois_identities(su2_1, 1))

    @pytest.mark.parametrize("l", [5, 7, 11, 13])
    def test_su2_1(self, su2_1, l):
        assert all(r.passed for r in verify_galois_identities(su2_1, l))

    @pytest.mark.parametrize("l", [3, 5, 7, 9, 15])
    def test_su2_2(self, su2_2, l):
        assert all(r.passed for r in verify_galois_identities(su2_2, l))


class TestKernel:
    def test_t_conductor_power(self, su2_1):
        res = kernel_test(su2_1, t_gen(24))
        assert res.direct and res.criterion and res.sigma_factorization

    def test_fourth_power_of_s(self, su2_1):
        res = kernel_test(su2_1, IDENTITY)  # s^4
        assert res.direct and res.criterion

    def test_minus_identity_self_conjugate(self, su2_2):
        # all labels self-conjugate, so -I acts trivially
        res = kernel_test(su2_2, -IDENTITY)
        assert res.direct

    def test_criterion_undefined_when_not_unit(self, su2_1):
        res = kernel_test(su2_1, SL2ZMat(5, 2, 2, 1))  # d = 1 is a unit
        assert res.criterion is not None
        res = kernel_test(su2_1, SL2ZMat(1, 1, 1, 2))  # gcd(2, 24) != 1
        assert res.criterion is None and res.sigma_factorization is None

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_equivalence_200(self, level):
        md = builtin_model("su2", level)
        n = md.conductor_n()
        rng = Lcg(77)
        tested = 0
        while tested < 200:
            m = random_word_matrix(rng)
            if math.gcd(m.d, n) != 1:
                continue
            tested += 1
            res = kernel_test(md, m)
            assert res.direct == res.criterion
            assert res.sigma_factorization


class TestCongruenceSuite:
    def test_su2_1(self, su2_1):
        recs = congruence_suite(su2_1, 100, seed=1)
        assert all(r.passed for r in recs)

    def test_su2_2(self, su2_2):
        recs = congruence_suite(su2_2, 100, seed=2)
        assert all(r.passed for r in recs)

    def test_su2_3(self):
        md = builtin_model("su2", 3)
        recs = congruence_suite(md, 100, seed=3)
        assert all(r.passed for r in recs)
        # l = 5 shares a factor with the conductor 40 and must be noticed
        assert any(r.check == "equivariance_skipped" for r in recs)

    def test_trivial_vacuous(self):
        md = builtin_model("trivial")
        recs = congruence_suite(md, 10, seed=1)
        assert all(r.passed for r in recs)
        assert any(r.check == "intermediate_subgroup" and "vacuous" in r.witness
                   for r in recs)

    def test_skip_notice_for_noncoprime(self, su2_2):
        recs = congruence_suite(su2_2, 5, seed=1, ls=(4,))
        assert any(r.check == "equivariance_skipped" for r in recs)


class TestZMatrices:
    def test_zero_argument(self, su2_1):
        assert mx.is_identity(z_matrix(su2_1, 5, Fraction(0)))

    def test_periodicity(self, su2_1):
        r = Fraction(1, 2)
        assert mx.mat_eq(z_matrix(su2_1, 5, r), z_matrix(su2_1, 5, r + 1))

    def test_su2_1_half_entries(self, su2_1):
        z = z_matrix(su2_1, 5, Fraction(1, 2))
        for x in mx.diag_entries(z):
            assert x == 1 or x == -1

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("l,m,r", [
        (5, 7, Fraction(1, 2)),
        (5, 11, Fraction(1, 3)),
        (7, 11, Fraction(2, 3)),
    ])
    def test_suite(self, level, l, m, r):
        md = builtin_model("su2", level)
        assert all(rec.passed for rec in z_suite(md, l, m, r))

    @pytest.mark.parametrize("l,r", [
        (5, Fraction(7, 12)), (7, Fraction(5, 12)),
        (11, Fraction(3, 8)), (13, Fraction(5, 9)),
    ])
    def test_deeper_denominators_with_phase(self, l, r):
        # nonzero c - c0 makes the scalar phase contribute to the modulus
        md = builtin_model("su2", 1, c0_override=Fraction(-7))
        z = z_matrix(md, l, r)
        assert all(x ** r.denominator == 1 for x in mx.diag_entries(z))

    def test_dual_argument_is_the_bezout_dual(self):
        # z_matrix takes r* = x/n of bezout(r) = [[k, y], [n, x]]; the
        # formula it replaced, r reduced into [0, 1) and its numerator
        # inverted mod the denominator, as the oracle on every a/q, q < 40,
        # -90 <= a < 90
        def dual_argument(r):
            r = r - math.floor(r)
            if r == 0:
                return Fraction(0)
            n = r.denominator
            return Fraction(pow(r.numerator, -1, n), n)

        grid = [Fraction(a, q) for q in range(1, 40) for a in range(-90, 90)]
        assert len(grid) == 7020
        for r in grid:
            m = bezout(r)
            assert Fraction(m.d, m.e) == dual_argument(r), r
