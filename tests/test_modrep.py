"""Generator words, the modular representation, sampling, and level maps."""

import math
import random
from fractions import Fraction

import pytest

from modata import galois
from modata import matrixops as mx
from modata.errors import NotCoprimeError
from modata.lambdamat import bezout
from modata.modrep import (
    IDENTITY,
    Lcg,
    S_GEN,
    SL2ZMat,
    decompose,
    in_gamma,
    in_gamma1,
    lift_to_sl2z,
    random_word_matrix,
    rep_evaluate,
    sample_gamma,
    syllables,
    t_gen,
    tau_l,
)
from modata.modular_data import builtin_model, loads
from modata.packed import PackedMatrix
from word_oracle import (
    evaluate_word,
    rep_evaluate_by_token,
    serialized,
    token_syllables,
    token_walk,
)


@pytest.fixture(scope="module")
def su2_1():
    return builtin_model("su2", 1)


@pytest.fixture(scope="module")
def su2_2():
    return builtin_model("su2", 2)


def _random_sl2z(rnd, bound=10 ** 6):
    while True:
        a, e = rnd.randint(-bound, bound), rnd.randint(-bound, bound)
        if (a or e) and math.gcd(a, e) == 1:
            break
    # extend to determinant one
    old_r, r, old_s, s, old_t, t = a, e, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return SL2ZMat(a, -old_t, e, old_s)


class TestDecompose:
    def test_identity(self):
        w = decompose(IDENTITY)
        assert len(w) == 0 and w.sign == 1

    def test_s(self):
        w = decompose(S_GEN)
        assert w.tokens == (("s", 1),) and w.sign == 1

    def test_t_cubed(self):
        w = decompose(t_gen(3))
        assert w.tokens == (("t", 3),) and w.sign == 1

    def test_small_example(self):
        m = SL2ZMat(2, 1, 1, 1)
        assert evaluate_word(decompose(m)) == m

    def test_minus_identity(self):
        w = decompose(-IDENTITY)
        assert w.sign == -1 and evaluate_word(w) == -IDENTITY

    def test_thousand_roundtrips(self):
        rnd = random.Random(99)
        for _ in range(1000):
            m = _random_sl2z(rnd)
            assert evaluate_word(decompose(m)) == m

    def test_syllables_match_token_walk(self):
        # the one-loop walk against the token walk it replaced (tokens,
        # merge pass, pairing), and `decompose` against its tokens
        rng = Lcg(18)
        cases = [IDENTITY, -IDENTITY, S_GEN, -S_GEN]
        cases += [t_gen(k) for k in range(-30, 31)]
        cases += [-t_gen(k) for k in range(-30, 31)]
        cases += [sample_gamma(n, rng) for n in (1, 2, 3, 5, 12, 16, 24, 40)
                  for _ in range(250)]
        cases += [random_word_matrix(rng) for _ in range(3000)]
        assert len(cases) >= 5000
        for m in cases:
            assert syllables(m) == token_syllables(m), m
            w = decompose(m)
            assert (w.tokens, w.sign) == token_walk(m), m

    def test_det_checked(self):
        with pytest.raises(ValueError):
            SL2ZMat(1, 1, 1, 1)


class TestRepresentation:
    def test_identity(self, su2_1):
        assert mx.is_identity(rep_evaluate(su2_1, IDENTITY))

    def test_generators(self, su2_1):
        assert mx.mat_eq(rep_evaluate(su2_1, S_GEN), su2_1.s)
        assert mx.mat_eq(rep_evaluate(su2_1, t_gen(1)), mx.diagonal(su2_1.t_entries(1)))

    def test_minus_identity_is_conjugation(self, su2_2):
        assert mx.mat_eq(rep_evaluate(su2_2, -IDENTITY),
                         mx.mat_mul(su2_2.s, su2_2.s))

    @pytest.mark.parametrize("level", [1, 2])
    def test_homomorphism_50_pairs(self, level):
        md = builtin_model("su2", level)
        rng = Lcg(5)
        for _ in range(50):
            m1 = random_word_matrix(rng)
            m2 = random_word_matrix(rng)
            lhs = rep_evaluate(md, m1 * m2)
            rhs = mx.mat_mul(rep_evaluate(md, m1), rep_evaluate(md, m2))
            assert mx.mat_eq(lhs, rhs)

    def test_t_to_conductor_power_trivial(self, su2_1, su2_2):
        for md in (su2_1, su2_2):
            n = md.conductor_n()
            assert mx.is_identity(rep_evaluate(md, t_gen(n)))


class TestSyllableCache:
    @pytest.mark.parametrize("name,param", [
        ("su2", 1), ("su2", 2), ("su2", 3), ("su2", 4),
        ("cyclic_odd", 3), ("cyclic_odd", 5), ("su2-file", 3),
        ("trivial", None),
    ])
    def test_matches_token_by_token(self, name, param):
        # the packed product read at the order rule, against the CycloNum
        # product token by token, orders included
        if name == "su2-file":  # every S entry at the stored order
            md = loads(builtin_model("su2", param).dumps())
        else:
            md = builtin_model(name, param)
        n = md.conductor_n()
        rng = Lcg(param or 7)
        cases = [IDENTITY, -IDENTITY, S_GEN, t_gen(5), S_GEN * t_gen(-2)]
        assert decompose(cases[-1]).tokens[-1][0] == "t"
        cases += [random_word_matrix(rng) for _ in range(50)]
        cases += [sample_gamma(n, rng) for _ in range(50)]
        # the Bezout matrices [[a, y], [q, x]] of lambda_mat at a/q
        cases += [bezout(Fraction(a, q)) for q in range(1, 16)
                  for a in range(q) if math.gcd(a, q) == 1]
        for m in cases:
            assert serialized(rep_evaluate(md, m)) == \
                serialized(rep_evaluate_by_token(md, m)), m

    def test_corrupt_syllable_fails_level_check(self, monkeypatch):
        md = builtin_model("su2", 1)
        n = md.conductor_n()
        seed = 3
        tokens = decompose(sample_gamma(n, Lcg(seed))).tokens
        k = next(k for (kind, k), nxt in zip(tokens, tokens[1:])
                 if kind == "t" and nxt[0] == "s")
        line = "pass  congruence.level_subgroup_in_kernel  n=24 samples=1"
        suite = galois.congruence_suite(md, 1, seed, ())
        assert suite[0].human_line() == line
        syl = md.packed.syllable(k)
        key = k % md.packed.order  # the syllable cache's key for k
        monkeypatch.setitem(md.packed._syllables, key, PackedMatrix(
            syl.packing, syl.den,
            tuple(tuple(2 * v for v in row) for row in syl.rows),
            syl.bits + 1, 2 * syl.norm))
        suite = galois.congruence_suite(md, 1, seed, ())
        assert suite[0].human_line().startswith(
            "FAIL  congruence.level_subgroup_in_kernel  n=24 samples=1  "
            "[sample 0: ")


class TestSampling:
    @pytest.mark.parametrize("n", [2, 16, 24])
    def test_membership_100(self, n):
        rng = Lcg(1)
        for _ in range(100):
            assert in_gamma(n, sample_gamma(n, rng))

    def test_level_one(self):
        m = sample_gamma(1, Lcg(3))
        assert m.a * m.d - m.b * m.e == 1

    def test_seed_determinism(self):
        a = [sample_gamma(16, Lcg(42)) for _ in range(5)]
        b = [sample_gamma(16, Lcg(42)) for _ in range(5)]
        assert a == b

    def test_random_word_matrix_on_four_ints(self):
        # the product of SL2ZMat values it replaces, as the oracle: equal
        # matrices and the generator left in the same state
        def oracle(rng):
            m = IDENTITY
            for _ in range(rng.int_in(2, 6)):
                k = rng.int_in(1, 6) * (1 if rng.below(2) else -1)
                m = m * t_gen(k) * S_GEN
            return m

        for seed in range(1200):
            got, want = Lcg(seed), Lcg(seed)
            for _ in range(3):
                assert random_word_matrix(got) == oracle(want), seed
            assert got.state == want.state

    def test_lcg_fixed_constants(self):
        rng = Lcg(0)
        assert rng.next_u64() == 1442695040888963407


class TestCongruenceMembership:
    def test_identity_everywhere(self):
        for n in (1, 2, 7, 24):
            assert in_gamma(n, IDENTITY)

    def test_t_power_n(self):
        assert in_gamma(7, t_gen(7))
        assert not in_gamma(7, t_gen(3))

    def test_gamma1_strictly_larger(self):
        m = t_gen(1)
        assert in_gamma1(2, m) and not in_gamma(2, m)


class TestTauAndLift:
    def test_tau_one_is_identity(self):
        m = SL2ZMat(5, 2, 2, 1)
        assert tau_l(m, 1, 12) == m.mod(12)

    def test_tau_on_t(self):
        assert tau_l(t_gen(1), 7, 24) == (1, 7, 0, 1)

    def test_tau_inverse_composition(self):
        n = 24
        for l in (5, 7, 11, 13):
            lhat = pow(l, -1, n)
            m = SL2ZMat(5, 2, 2, 1)
            back = tau_l(lift_to_sl2z(n, tau_l(m, l, n)), lhat, n)
            assert back == m.mod(n)

    def test_tau_noncoprime(self):
        with pytest.raises(NotCoprimeError):
            tau_l(IDENTITY, 4, 24)

    def test_lift_congruence_and_det(self):
        rng = Lcg(17)
        for n in (2, 5, 16, 24):
            for _ in range(20):
                m = random_word_matrix(rng)
                lifted = lift_to_sl2z(n, m.mod(n))
                assert lifted.mod(n) == m.mod(n)
                assert lifted.a * lifted.d - lifted.b * lifted.e == 1
