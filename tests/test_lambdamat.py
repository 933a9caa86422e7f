"""Fractional modular matrices: Bezout data, the phase function, and the
identity suite including the spliced functional equation.

The suite runs on packed matrices with T powers carried as phase exponents;
`reference_identities` is the same suite on CycloNum matrices, built from
`reference_lambda` and `reference_hat` (`lambda_mat` and `lambda_hat` with
D(m) from `word_oracle`, independent of the packed engine that `lambdamat`
reads), `reference_hat_functional_equation` is the CycloNum chain of the
spliced functional equation, and the differential tests compare each pair
record by record."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modata import lambdamat
from modata import matrixops as mx
from modata.cyclo import make, root_of_unity_exp
from modata.errors import PhaseConstraintError
from modata.lambdamat import (
    bezout,
    hat_functional_equation_check,
    lambda_hat,
    lambda_mat,
    phase_g,
    verify_lambda_identities,
)
from modata.modrep import S_GEN, SL2ZMat, t_gen
from modata.modular_data import builtin_model
from modata.packed import Phased, _field_root, from_digits, pack
from modata.reporting import CheckRecord, notice

import word_oracle
from word_oracle import serialized


def reference_lambda(md, r, bez=None):
    """L(r) = T^-r D(m) T^-r* on CycloNum matrices, D(m) by
    `word_oracle.rep_evaluate_by_token`, read off the module so that a
    test may replace it."""
    r = Fraction(r)
    bez = bezout(r) if bez is None else bez
    d = word_oracle.rep_evaluate_by_token(md, bez)
    return mx.scale_cols(mx.scale_rows(md.t_entries(-r), d),
                         md.t_entries(-Fraction(bez.d, bez.e)))


def reference_hat(md, r):
    """e(g(r)) L(r) of `reference_lambda`, S at integers; `phase_g` read
    off `lambdamat`."""
    r = Fraction(r)
    if r.denominator == 1:
        return md.s
    phase = root_of_unity_exp(lambdamat.phase_g(md.c, md.c0, r))
    return mx.scalar_mul(phase, reference_lambda(md, r))


def reference_identities(md, r) -> list[CheckRecord]:
    """The identity suite on CycloNum matrices: every L and hat is built by
    `reference_lambda` and `reference_hat` and every T power is a CycloNum
    diagonal.  `phase_g` is read off the module, so a test may replace
    it."""
    suite = "lambda"
    r = Fraction(r)
    bz = bezout(r)
    dual = Fraction(bz.d, bz.e)
    records = []
    lam = reference_lambda(md, r, bz)

    records.append(CheckRecord(
        suite, "periodic",
        mx.mat_eq(reference_lambda(md, r + 1), lam), params={"r": r}))

    n = r.denominator
    lhs = reference_lambda(md, Fraction(1, n))
    s_inv = mx.mat_mul(md.s, md.chat)  # S^2 is the conjugation
    rhs = mx.scale_cols(
        mx.scale_rows(
            md.t_entries(Fraction(-1, n)),
            mx.mat_mul(s_inv, mx.scale_rows(md.t_entries(-n), md.s)),
        ),
        md.t_entries(Fraction(-1, n)),
    )
    records.append(CheckRecord(
        suite, "one_over_n_word", mx.mat_eq(lhs, rhs), params={"n": n}))

    k = r.numerator
    if k == 0:
        records.append(notice(suite, "functional_equation",
                              "skipped at r = 0", r=r))
    else:
        lhs = reference_lambda(md, Fraction(-n, k))
        rhs = mx.scale_rows(
            md.t_entries(Fraction(n, k)),
            mx.mat_mul(
                md.s,
                mx.scale_rows(md.t_entries(r),
                              mx.scale_cols(lam, md.t_entries(Fraction(1, k * n)))),
            ),
        )
        records.append(CheckRecord(
            suite, "functional_equation", mx.mat_eq(lhs, rhs),
            params={"r": r}))

    records.append(CheckRecord(
        suite, "transpose_dual",
        mx.mat_eq(reference_lambda(md, dual), mx.transpose(lam)),
        params={"r": r}))

    neg = reference_lambda(md, -r)
    conj_ok = all(
        neg[p][q] == lam[md.conj[p]][q].conjugate()
        for p in range(md.rank) for q in range(md.rank)
    )
    records.append(CheckRecord(
        suite, "conjugate_reflection", conj_ok, params={"r": r}))

    hat = reference_hat(md, r)
    records.append(CheckRecord(
        suite, "hat_transpose_dual",
        mx.mat_eq(reference_hat(md, dual), mx.transpose(hat)),
        params={"r": r}))

    hat_ref = reference_hat(md, 1 - r)
    hat_conj_ok = all(
        hat_ref[p][q] == hat[md.conj[p]][q].conjugate()
        for p in range(md.rank) for q in range(md.rank)
    )
    records.append(CheckRecord(
        suite, "hat_conjugate_reflection", hat_conj_ok, params={"r": r}))

    records.append(CheckRecord(
        suite, "hat_unitary",
        mx.is_identity(mx.mat_mul(hat, mx.dagger(hat))),
        params={"r": r}))

    for t in (1, -3):
        records.append(CheckRecord(
            suite, "bezout_independence",
            mx.mat_eq(reference_lambda(md, r, bz * t_gen(t)), lam),
            params={"r": r, "t": t}))

    g_here = lambdamat.phase_g(md.c, md.c0, r)
    records.append(CheckRecord(
        suite, "phase_dual_invariant",
        g_here == lambdamat.phase_g(md.c, md.c0, dual), params={"r": r}))
    g_neg = lambdamat.phase_g(md.c, md.c0, -r)
    records.append(CheckRecord(
        suite, "phase_odd",
        (g_here + g_neg) % 1 == 0, params={"r": r}))

    return records


def reference_hat_functional_equation(md, k, n) -> CheckRecord:
    """`hat_functional_equation_check` on CycloNum matrices: the chain
    e(R) T^(n/k) S T^(k/n) hat((k-n)/n) T^(1/kn) of `reference_hat`, CycloNum
    diagonals and `mat_mul`, against hat((k-n)/k)."""
    big_r = (md.c - md.c0) * (3 * n * k - Fraction(n * n + k * k + 1, n * k)) / 24
    lhs = reference_hat(md, Fraction(k - n, k))
    chain = mx.scale_rows(
        md.t_entries(Fraction(n, k)),
        mx.mat_mul(
            md.s,
            mx.scale_rows(
                md.t_entries(Fraction(k, n)),
                mx.scale_cols(reference_hat(md, Fraction(k - n, n)),
                              md.t_entries(Fraction(1, k * n))),
            ),
        ),
    )
    rhs = mx.scalar_mul(root_of_unity_exp(big_r), chain)
    return CheckRecord("lambda", "hat_functional_equation",
                       mx.mat_eq(lhs, rhs), params={"k": k, "n": n})


def _objs(records):
    return [rec.to_obj() for rec in records]


def _fractions(top: int):
    """Every a/n with 2 <= n <= top and 0 < a < n, in lowest terms."""
    return sorted({Fraction(a, n) for n in range(2, top + 1)
                   for a in range(1, n)})


@pytest.fixture(scope="module")
def su2_1():
    return builtin_model("su2", 1)


@pytest.fixture(scope="module")
def su2_2():
    return builtin_model("su2", 2)


class TestBezout:
    def test_two_fifths(self):
        bz = bezout(Fraction(2, 5))
        assert (bz.a, bz.e, bz.d, bz.b) == (2, 5, 3, 1)
        assert Fraction(bz.d, bz.e) == Fraction(3, 5)

    def test_zero_gives_inversion(self, su2_1):
        bz = bezout(0)
        assert bz.to_obj() == [0, -1, 1, 0]
        assert mx.mat_eq(lambda_mat(su2_1, 0), su2_1.s)

    def test_one_over_n(self):
        bz = bezout(Fraction(1, 4))
        assert bz.a * bz.d - bz.b * bz.e == 1

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            SL2ZMat(2, 1, 5, 1)


def phase_by_recursion(c, c0, r) -> Fraction:
    """g(r) in [0, 1) by its definition, in Fractions: g(0) = 0,
    periodicity, and the reciprocity g(k/n) = rhs(k, n) - g(n/k), taken
    recursively.  The oracle of `phase_g`."""
    q = (Fraction(c) - Fraction(c0)) / 24

    def rec(x: Fraction) -> Fraction:
        x = x - math.floor(x)
        if x == 0:
            return Fraction(0)
        k, n = x.numerator, x.denominator
        rhs = -q * (3 * n * k - Fraction(n * n + k * k + 1, n * k))
        val = rhs - rec(Fraction(n, k))
        return val - math.floor(val)

    return rec(Fraction(r))


class TestPhase:
    def test_zero(self):
        assert phase_g(1, 1, 0) == 0
        assert phase_g(5, 1, 0) == 0

    def test_vanishes_when_charges_match(self):
        for r in (Fraction(1, 2), Fraction(2, 5), Fraction(7, 12)):
            assert phase_g(Fraction(3, 2), Fraction(3, 2), r) == 0

    def test_shift_by_four(self):
        assert phase_g(5, 1, Fraction(1, 2)) == Fraction(1, 2)

    def test_periodicity(self):
        for r in (Fraction(1, 3), Fraction(2, 7)):
            assert phase_g(9, 1, r) == phase_g(9, 1, r + 1)
            assert phase_g(9, 1, r) == phase_g(9, 1, r - 1)

    def test_constraint_enforced(self):
        with pytest.raises(PhaseConstraintError):
            phase_g(2, 1, Fraction(1, 2))

    def test_reciprocity(self):
        c, c0 = Fraction(9), Fraction(1)
        for (k, n) in ((1, 2), (2, 5), (3, 7), (5, 12)):
            lhs = phase_g(c, c0, Fraction(k, n)) + phase_g(c, c0, Fraction(n, k))
            rhs = -(c - c0) * (3 * n * k - Fraction(n * n + k * k + 1, n * k)) / 24
            assert (lhs - rhs) % 1 == 0

    @settings(max_examples=300, deadline=None)
    @given(c0=st.one_of(st.integers(-60, 60),
                        st.fractions(-60, 60, max_denominator=48)),
           shift=st.integers(-40, 40),
           r=st.one_of(st.integers(-10 ** 6, 10 ** 6),
                       st.fractions(-10 ** 6, 10 ** 6,
                                    max_denominator=10 ** 12)))
    def test_is_the_recursion(self, c0, shift, r):
        # c - c0 in 4Z, r negative, integral and at large denominators:
        # the unrolled integer sum against the recursive definition
        c = c0 + 4 * shift
        g = phase_g(c, c0, r)
        assert type(g) is Fraction and 0 <= g < 1
        assert g == phase_by_recursion(c, c0, r)

    @settings(max_examples=100, deadline=None)
    @given(c0=st.fractions(-60, 60, max_denominator=48),
           diff=st.fractions(-60, 60, max_denominator=6))
    def test_constraint_on_any_difference(self, c0, diff):
        if diff.denominator == 1 and diff.numerator % 4 == 0:
            assert phase_g(c0 + diff, c0, Fraction(2, 7)) == \
                phase_by_recursion(c0 + diff, c0, Fraction(2, 7))
        else:
            with pytest.raises(PhaseConstraintError,
                               match=f"c - c0 = {diff} is not a multiple"):
                phase_g(c0 + diff, c0, Fraction(2, 7))


class TestLambda:
    def test_zero_is_s(self, su2_1):
        assert mx.mat_eq(lambda_mat(su2_1, 0), su2_1.s)

    def test_periodicity_chain(self, su2_1):
        one_third = lambda_mat(su2_1, Fraction(1, 3))
        assert mx.mat_eq(lambda_mat(su2_1, Fraction(4, 3)), one_third)
        assert mx.mat_eq(lambda_mat(su2_1, Fraction(7, 3)), one_third)

    def test_hat_at_integers(self, su2_1):
        assert mx.mat_eq(lambda_hat(su2_1, 2), su2_1.s)
        assert mx.mat_eq(lambda_hat(su2_1, 0), su2_1.s)

    def test_hat_equals_plain_when_charges_match(self, su2_2):
        r = Fraction(1, 3)
        assert mx.mat_eq(lambda_hat(su2_2, r), lambda_mat(su2_2, r))

    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1, 3),
                                   Fraction(2, 3), Fraction(1, 5),
                                   Fraction(2, 5)])
    def test_hat_unitary(self, su2_1, r):
        hat = lambda_hat(su2_1, r)
        assert mx.is_identity(mx.mat_mul(hat, mx.dagger(hat)))


class TestIdentitySuite:
    def test_su2_1_half(self, su2_1):
        assert all(r.passed for r in verify_lambda_identities(su2_1, Fraction(1, 2)))

    @pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(2, 3),
                                   Fraction(1, 4), Fraction(2, 5)])
    def test_su2_2(self, su2_2, r):
        assert all(rec.passed for rec in verify_lambda_identities(su2_2, r))

    def test_trivial_model(self):
        md = builtin_model("trivial")
        for r in (Fraction(1, 2), Fraction(3, 7)):
            assert all(rec.passed for rec in verify_lambda_identities(md, r))

    def test_override_exercises_phase(self, su2_1):
        md = builtin_model("su2", 1, c0_override=Fraction(-7))
        assert md.c - md.c0 == 8
        assert phase_g(md.c, md.c0, Fraction(1, 3)) != 0
        for r in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
            assert all(rec.passed for rec in verify_lambda_identities(md, r))


class TestHatFunctionalEquation:
    @pytest.mark.parametrize("kn", [(2, 1), (3, 1), (3, 2), (5, 2)])
    def test_su2_1(self, su2_1, kn):
        assert hat_functional_equation_check(su2_1, *kn).passed

    @pytest.mark.parametrize("kn", [(2, 1), (3, 1), (3, 2), (5, 2)])
    def test_with_shifted_c0(self, kn):
        md = builtin_model("su2", 2, c0_override=Fraction(3, 2) - 8)
        assert hat_functional_equation_check(md, *kn).passed

    PAIRS = [(k, n) for k in range(1, 9) for n in range(1, 9)
             if math.gcd(k, n) == 1]

    @pytest.mark.parametrize("spec", [
        *(("su2", k, None) for k in range(1, 5)),
        ("cyclic_odd", 3, None), ("cyclic_odd", 5, None),
        ("trivial", None, None), ("su2", 1, -8),
    ], ids=lambda spec: ":".join(str(x) for x in spec if x is not None))
    def test_matches_cyclonum_chain(self, spec, monkeypatch):
        # as in test_grid: the CycloNum chain may pass the default order cap
        monkeypatch.setenv("MODATA_MAX_ORDER", "20000")
        md = _build(spec)
        for k, n in self.PAIRS:
            got = hat_functional_equation_check(md, k, n)
            assert got.passed, (k, n)
            assert got == reference_hat_functional_equation(md, k, n), (k, n)

    def test_builds_no_cyclonum_matrix(self, monkeypatch):
        md = builtin_model("su2", 1, c0_override=Fraction(-7))

        def fail(*args):
            raise AssertionError("a CycloNum matrix was built")

        for name in ("lambda_hat", "lambda_mat", "rep_evaluate"):
            monkeypatch.setattr(lambdamat, name, fail)
        for name in ("mat_mul", "scale_rows", "scale_cols", "scalar_mul",
                     "mat_eq", "diagonal"):
            monkeypatch.setattr(mx, name, fail)
        for k, n in self.PAIRS:
            assert hat_functional_equation_check(md, k, n).passed


def _grid():
    """(model, arguments) of the differential grid: su2:1..3 at every a/n
    with n <= 12, the same models with c0 - 8 at n <= 6, su2:1 at c0 = -7
    (where g(r) != 0), and cyclic_odd:3, cyclic_odd:5 (an odd field order,
    5) and the trivial model (order 1) at n <= 6, r = 0, r > 1 and r < 0."""
    out = []
    for k in (1, 2, 3):
        out.append(pytest.param(("su2", k, None), _fractions(12),
                                id=f"su2:{k}"))
        out.append(pytest.param(("su2", k, -8), _fractions(6),
                                id=f"su2:{k}-c0-8"))
    out.append(pytest.param(
        ("su2", 1, Fraction(-7)),
        [Fraction(x) for x in ("1/2", "1/3", "2/5", "-3/7", "9/4")],
        id="su2:1-c0=-7"))
    extra = [Fraction(0), Fraction(2), Fraction(-7, 3), Fraction(11, 4)]
    for name, param in (("cyclic_odd", 3), ("cyclic_odd", 5),
                        ("trivial", None)):
        out.append(pytest.param((name, param, None), _fractions(6) + extra,
                                id=name if param is None else f"{name}:{param}"))
    return out


def _build(spec):
    name, param, c0 = spec
    if c0 == -8:
        c0 = builtin_model(name, param).c0 - 8
    return builtin_model(name, param, c0_override=c0)


class TestPackedSuiteMatchesReference:
    """`verify_lambda_identities` and `reference_identities` give the same
    records, on a grid, on random arguments and on corrupted inputs."""

    @pytest.mark.parametrize("spec,args", _grid())
    def test_grid(self, spec, args, monkeypatch):
        # su2:3 at n = 11 and 12 needs CycloNum orders up to 12*11*40
        monkeypatch.setenv("MODATA_MAX_ORDER", "20000")
        md = _build(spec)
        for r in args:
            assert _objs(verify_lambda_identities(md, r)) == \
                _objs(reference_identities(md, r)), r
            # the printed matrix, orders included
            assert serialized(lambda_hat(md, r)) == \
                serialized(reference_hat(md, r)), r

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([("su2", 1, None), ("su2", 2, None),
                            ("su2", 1, Fraction(-7)), ("cyclic_odd", 5, None),
                            ("cyclic_odd", 3, None)]),
           st.integers(min_value=1, max_value=8), st.data())
    def test_random_arguments(self, spec, n, data):
        a = data.draw(st.integers(min_value=-2 * n, max_value=2 * n))
        md = _build(spec)
        r = Fraction(a, n)
        assert _objs(verify_lambda_identities(md, r)) == \
            _objs(reference_identities(md, r))

    ARGS = [Fraction(x) for x in
            ("1/2", "1/3", "2/3", "2/5", "3/7", "5/8", "-4/9", "7/4")]

    PAIRS = [(2, 1), (3, 1), (3, 2), (5, 2), (1, 3), (4, 3)]

    def _assert_agree_and_fail(self, md, functional_equation=False):
        """Both paths give the same records, some of which fail; with
        `functional_equation`, so does the spliced functional equation."""
        seen_failure = False
        for r in self.ARGS:
            got = _objs(verify_lambda_identities(md, r))
            assert got == _objs(reference_identities(md, r)), r
            seen_failure |= not all(rec["pass"] for rec in got)
        assert seen_failure
        if functional_equation:
            got = [hat_functional_equation_check(md, *kn) for kn in self.PAIRS]
            assert got == [reference_hat_functional_equation(md, *kn)
                           for kn in self.PAIRS]
            assert not all(rec.passed for rec in got)

    def test_corrupted_syllable(self, monkeypatch):
        # one entry of T S, plus one, in the packed syllable cache and in
        # the reference's D(m), multiplied syllable by syllable
        md = builtin_model("su2", 2)
        pm = md.packed
        good = pm.syllable(1)
        digits = [[list(d) for d in row] for row in good.digits()]
        digits[0][1][0] += good.den
        monkeypatch.setitem(pm._syllables, 1,
                            from_digits(pm.order, good.den, digits))
        by_token = word_oracle.rep_evaluate_by_token
        bad = [list(row) for row in by_token(md, t_gen(1) * S_GEN)]
        bad[0][1] = bad[0][1] + 1
        assert pack(bad, pm.order) == pm.syllable(1)

        def corrupted(md_, m):
            w = word_oracle.token_syllables(m)
            factors = [bad if k is not None and k % pm.order == 1
                       else by_token(md_, t_gen(k or 0) * S_GEN)
                       for k in w.steps]
            factors.append(by_token(md_, t_gen(w.last_t or 0)))
            if w.central:
                factors.append(md_.chat)
            return functools.reduce(mx.mat_mul, factors)

        monkeypatch.setattr(word_oracle, "rep_evaluate_by_token", corrupted)
        self._assert_agree_and_fail(md)

    def test_negated_representation_entry(self, monkeypatch):
        # D(m) with entry (0, 1) negated, by both evaluators
        md = builtin_model("su2", 1)
        packed_eval, cyclo_eval = (lambdamat.rep_evaluate_packed,
                                   word_oracle.rep_evaluate_by_token)

        def negate(rows, neg):
            rows = [list(row) for row in rows]
            rows[0][1] = neg(rows[0][1])
            return rows

        def bad_packed(md_, m):
            d = packed_eval(md_, m)
            return from_digits(d.packing.order, d.den, negate(
                d.digits(), lambda digits: [-c for c in digits]))

        monkeypatch.setattr(lambdamat, "rep_evaluate_packed", bad_packed)
        monkeypatch.setattr(word_oracle, "rep_evaluate_by_token",
                            lambda md_, m: mx.mat(negate(cyclo_eval(md_, m),
                                                         lambda x: -x)))
        self._assert_agree_and_fail(md, functional_equation=True)

    def test_shifted_phase(self, monkeypatch):
        # g shifted by 1/7: e(2/7) is outside every field here, so the
        # hatted reflection and phase_odd fail on both paths, and so does
        # the spliced functional equation where one side is S, unshifted
        good = lambdamat.phase_g
        monkeypatch.setattr(lambdamat, "phase_g",
                            lambda c, c0, r: good(c, c0, r) + Fraction(1, 7))
        for spec in (("su2", 1, None), ("su2", 1, Fraction(-7))):
            md = _build(spec)
            self._assert_agree_and_fail(md, functional_equation=True)


class TestEqualityRule:
    """`Phased.__eq__`: X_ij e(d_ij) == Y_ij entry by entry."""

    def test_field_roots(self):
        assert _field_root(3, 24, 24) == (1, 3)
        assert _field_root(1, 7, 24) is None
        assert _field_root(25, 24, 24) == (1, 1)
        # odd M: the roots of Q(zeta_5) are the 10th roots, +-zeta_5^k
        assert _field_root(1, 2, 5) == (-1, 0)
        assert _field_root(1, 10, 5) == (-1, 3)
        assert _field_root(2, 10, 5) == (1, 1)
        assert _field_root(1, 4, 5) is None
        # the trivial model's field Q has the roots +-1
        assert _field_root(1, 2, 1) == (-1, 0)
        assert _field_root(1, 3, 1) is None

    def test_phase_outside_field(self):
        md = builtin_model("su2", 1)
        pm = md.packed
        s = Phased(pm, pm.s)
        assert s.t(scalar=Fraction(1, 7)) != s
        zero = from_digits(pm.order, 1, [[[0] * 8] * 2] * 2)
        assert Phased(pm, zero).t(scalar=Fraction(1, 7)) == Phased(pm, zero)
        # a row phase outside the field on a row that is zero on both sides
        one, nil = [1] + [0] * 7, [0] * 8
        x = from_digits(pm.order, 1, [[one, nil], [nil, nil]])
        assert Phased(pm, x, 7, (0, 1), (0, 0), 0) == Phased(pm, x)
        assert Phased(pm, x, 7, (1, 0), (0, 0), 0) != Phased(pm, x)
        # nonzero against zero
        assert Phased(pm, x).t(scalar=Fraction(1, 7)) != Phased(pm, zero)

    def test_odd_order_sign(self):
        md = builtin_model("cyclic_odd", 5)
        pm = md.packed
        assert pm.order == 5
        s = md.s
        minus = pack([[-x for x in row] for row in s], 5)
        assert Phased(pm, pm.s).t(scalar=Fraction(1, 2)) == Phased(pm, minus)
        assert Phased(pm, pm.s).t(scalar=Fraction(1, 2)) != Phased(pm, pm.s)
        # e(1/10) = -zeta_5^3 lies in Q(zeta_5)
        root = make(5, [(3, -1)])
        turned = pack([[x * root for x in row] for row in s], 5)
        assert Phased(pm, pm.s).t(scalar=Fraction(1, 10)) == \
            Phased(pm, turned)
        assert Phased(pm, pm.s).t(scalar=Fraction(3, 10)) != \
            Phased(pm, turned)

    def test_product_middle_phase(self):
        md = builtin_model("su2", 1)
        pm = md.packed
        s = Phased(pm, pm.s)
        # S T . S: the middle phase w is an integer T power, in the field;
        # the oracle is the packed CycloNum diagonal of T
        t = pack(mx.diagonal(md.t_entries(1)), pm.order)
        assert s.t(cols=1) @ s == Phased(pm, pm.s @ t @ pm.s)
        # S T^(1/7) . S: outside Q(zeta_24)
        with pytest.raises(ValueError):
            s.t(cols=Fraction(1, 7)) @ s
