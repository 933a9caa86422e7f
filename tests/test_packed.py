"""The packed single-field evaluator against the CycloNum one.

`word_oracle.rep_evaluate_by_token` (CycloNum entries, token by token) is
the reference: every packed matrix must convert to the same values, give
the same identity verdicts, and map under sigma_l to the CycloNum image.  The
bound cases pin the widths at which a product, a comparison and an
identity test stop trusting the packed ints.  A slot product of `@`
must give the ints the entry product gives, and a word of sigma_l
syllables the sigma_l image of the word.
"""

import collections
import functools
import gc
import json
import math
import random
import sys
import threading
import types
from fractions import Fraction
from itertools import zip_longest
from operator import matmul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modata import cli, galois
from modata import matrixops as mx
from modata import lambdamat
from modata import packed as packed_module
from modata.cyclo import (CycloNum, _context, _factorize, euler_phi, make,
                          root_of_unity_exp)
from modata.modrep import (
    IDENTITY,
    Lcg,
    S_GEN,
    _product_orders,
    lift_to_sl2z,
    random_word_matrix,
    rep_evaluate,
    rep_evaluate_packed,
    sample_gamma,
    syllables,
    t_gen,
    tau_l,
)
from modata import modular_data
from modata.modular_data import ModularData, builtin_model, loads
from modata.packed import (
    MODEL_TABLE_SIZE,
    SLOT_BITS,
    WIDTH_STEP,
    IntegerMatrix,
    PackedMatrix,
    Packing,
    PackedModel,
    Phased,
    Scaling,
    SlotPacking,
    _entry_product,
    _product_matrix,
    _fold_constants,
    field_order,
    from_digits,
    integers,
    pack,
    packed_model,
    packing,
    roots,
    slot_packing,
    width_for,
)
from word_oracle import cyclo_matrix, rep_evaluate_by_token

MODELS = [("su2", 1), ("su2", 2), ("su2", 3), ("su2", 4),
          ("cyclic_odd", 3), ("cyclic_odd", 5)]


def word_set(md, seed):
    """The word set of the syllable-cache tests: the generators, a word
    ending in t, 50 random words and 50 level-n elements."""
    n = md.conductor_n()
    rng = Lcg(seed)
    cases = [IDENTITY, -IDENTITY, S_GEN, t_gen(5), S_GEN * t_gen(-2)]
    cases += [random_word_matrix(rng) for _ in range(50)]
    cases += [sample_gamma(n, rng) for _ in range(50)]
    return cases


def doubled_order(md):
    """The model loaded from a file whose S entries are stored at twice
    the order `dumps` writes."""
    obj = md.to_obj()
    order = 2 * obj["order"]
    obj["order"] = order
    obj["S"] = [[x.coerce(order).to_obj() for x in row] for row in md.s]
    return loads(json.dumps(obj))


def check_against_reference(md, cases):
    n = md.conductor_n()
    ls = [l for l in (5, 7, 11, 13) if math.gcd(l, n) == 1]
    assert ls
    for m in cases:
        ref = rep_evaluate_by_token(md, m)
        got = rep_evaluate_packed(md, m)
        assert mx.mat_eq(cyclo_matrix(got), ref), m
        assert got.is_identity() == mx.is_identity(ref), m
        assert got == pack(ref, md.packed.order), m
        for l in ls:
            lp = galois.coprime_lift(l, n, md.packed.order)
            assert mx.mat_eq(cyclo_matrix(got.sigma(lp)),
                             galois.sigma_matrix(l, ref, n)), (m, l)
            assert rep_evaluate_packed(md, m, lp) == got.sigma(lp), (m, l)


@pytest.mark.parametrize("name,param", MODELS)
def test_matches_rep_evaluate(name, param):
    md = builtin_model(name, param)
    check_against_reference(md, word_set(md, param))


@pytest.mark.parametrize("name,param,order", [
    ("su2", 1, 48), ("su2", 2, 16), ("su2", 4, 24), ("cyclic_odd", 3, 24),
])
def test_matches_rep_evaluate_at_doubled_order(name, param, order):
    builtin = builtin_model(name, param)
    md = doubled_order(builtin)
    assert {x.order for row in md.s for x in row} == {
        2 * builtin.ambient_order()}
    assert md.packed.order == order
    check_against_reference(md, word_set(md, param)[:40])


@pytest.mark.parametrize("name,param", [("su2", 1), ("su2", 2)])
def test_frobenius_verdicts_match(name, param):
    """sigma_l(D(m)) == D(lift of tau_l(m)) as packed matrices exactly when
    it holds for the CycloNum matrices, on true and corrupted pairs."""
    md = builtin_model(name, param)
    n = md.conductor_n()
    rng = Lcg(11)
    for _ in range(20):
        m = random_word_matrix(rng)
        for l in (5, 7):
            lifted = lift_to_sl2z(n, tau_l(m, l, n))
            lp = galois.coprime_lift(l, n, md.packed.order)
            left = rep_evaluate_packed(md, m).sigma(lp)
            right = rep_evaluate_packed(md, lifted)
            ref = mx.mat_eq(
                galois.sigma_matrix(l, rep_evaluate_by_token(md, m), n),
                rep_evaluate_by_token(md, lifted))
            assert ref and left == right
            assert not (left == rep_evaluate_packed(md, lifted * S_GEN))


def test_long_word_stays_narrow():
    # the dens of the factors multiply, but whenever a product's claimed
    # bound would widen it, `_fit` lifts it, and the lift divides the
    # common factor out of den and digits: the digits of a 211-syllable
    # word then stay below 2^31 (without the division it ran at more
    # than 128-bit digits)
    md = builtin_model("su2", 4)
    rng = Lcg(2024)
    m = IDENTITY
    for _ in range(230):
        m = m * t_gen(rng.int_in(1, 6) * (1 if rng.below(2) else -1)) * S_GEN
    w = syllables(m)
    assert len(w.steps) >= 200
    got = rep_evaluate_packed(md, m)
    assert got.packing.width == WIDTH_STEP
    assert got.lift().den == 6
    for syllable in md.packed._syllables.values():
        assert syllable.packing.width == width_for(syllable.bits)
    ref = rep_evaluate_by_token(md, m)
    assert mx.mat_eq(cyclo_matrix(got), ref)
    assert got.is_identity() == mx.is_identity(ref)
    assert cyclo_matrix(got.sigma(5)) == galois.sigma_matrix(5, ref, 24)
    # the product with its inverse is the identity
    inv = rep_evaluate_packed(md, m.inverse())
    assert (got @ inv).is_identity()


def test_twelve_syllable_word_stays_narrow():
    # 12 syllables t^k s as written, 10 once reduced: the digits of the
    # product stay below 2^31, so a remeasured bound keeps 32-bit digits
    md = builtin_model("su2", 4)
    m = IDENTITY
    for k in (5, 3, 5, 5, 3, 3, 1, 3, 5, 5, 3, 5):
        m = m * t_gen(k) * S_GEN
    assert len(syllables(m).steps) == 10
    got = rep_evaluate_packed(md, m)
    assert got.packing.width == 32
    assert mx.mat_eq(cyclo_matrix(got), rep_evaluate_by_token(md, m))


def test_lift_divides_out_the_common_den():
    # the twelve-syllable word above: its product carries a power of 6 as
    # den (the product of its factors' dens since the last lift), its
    # entries have den 6 or 1
    md = builtin_model("su2", 4)
    m = IDENTITY
    for k in (5, 3, 5, 5, 3, 3, 1, 3, 5, 5, 3, 5):
        m = m * t_gen(k) * S_GEN
    got = rep_evaluate_packed(md, m)
    assert got.den.bit_length() > 3
    lifted = got.lift()
    assert lifted.den.bit_length() <= 3
    assert lifted == got
    assert mx.mat_eq(cyclo_matrix(lifted), rep_evaluate_by_token(md, m))
    assert_bounds_hold(lifted)


def kernel_criterion_oracle(md, m):
    """sigma_d(S) T^b == T^e S on the CycloNum matrices."""
    n = md.conductor_n()
    lhs = mx.scale_cols(galois.sigma_matrix(m.d, md.s, n), md.t_entries(m.b))
    return mx.mat_eq(lhs, mx.scale_rows(md.t_entries(m.e), md.s))


@pytest.mark.parametrize("name,param,doubled", [
    *((name, param, False) for name, param in MODELS),
    ("su2", 1, True), ("su2", 4, True), ("cyclic_odd", 3, True),
])
def test_kernel_criterion_matches_cyclonum(name, param, doubled):
    md = builtin_model(name, param)
    if doubled:
        md = doubled_order(md)
    n = md.conductor_n()
    verdicts = set()
    for m in word_set(md, param)[:60]:
        if math.gcd(m.d, n) == 1:
            want = kernel_criterion_oracle(md, m)
            assert galois.kernel_test(md, m).criterion == want, m
            verdicts.add(want)
    assert verdicts == {True, False}


def test_word_caches_keyed_mod_field_order():
    # T = diag(zeta_M^w), so T^k and T^k S are kept under k mod M: k and
    # k + M share one entry, k and k + 1 do not; T^0 S is S, which takes
    # no T power
    md = builtin_model("su2", 1)
    pm = md.packed
    m = pm.order
    for k in (1, 1 + m, -1, 1 - 2 * m):
        rep_evaluate_packed(md, t_gen(k) * S_GEN)
        rep_evaluate_packed(md, t_gen(k))
    rep_evaluate_packed(md, S_GEN)
    assert sorted(pm._syllables) == [0, 1, m - 1]
    assert sorted(pm._t_powers) == [1, m - 1]
    for k in (1, -1, 5):
        assert pm.syllable(k + m) is pm.syllable(k)
        assert pm.t_power(k + m) is pm.t_power(k)
        assert pm.syllable(k + 1) != pm.syllable(k)
        assert pm.t_power(k + 1).exponents != pm.t_power(k).exponents


class TestBounds:
    """Products, comparisons and identity tests exactly at the widths where
    a digit would stop fitting."""

    def one(self, order, den, digits):
        return from_digits(order, den, [[digits]])

    @pytest.mark.parametrize("a,b,width", [(31, 32, 64), (31, 33, 96),
                                           (2, 61, 64), (2, 62, 96)])
    def test_product_width(self, a, b, width):
        x = self.one(1, 1, [-(2 ** a - 1)])
        y = self.one(1, 1, [2 ** b - 1])
        z = x @ y
        assert z.packing.width == width
        value = -(2 ** a - 1) * (2 ** b - 1)
        assert cyclo_matrix(z)[0][0] == CycloNum.rational(value)
        assert z.bits == a + b == abs(value).bit_length()

    def test_product_width_with_folds(self):
        # x^2 = -1 at order 4: each coefficient of the product is a sum of
        # two products, one of them folded in
        top = 2 ** 30 - 1
        x = self.one(4, 1, [top, top])
        y = self.one(4, 1, [top, -top])
        z = x @ y
        assert z.packing.width == 64
        assert cyclo_matrix(z)[0][0] == CycloNum(4, 1, [2 * top * top, 0])
        assert all(abs(d) < 2 ** z.bits for d in z.digits()[0][0])

    @pytest.mark.parametrize("order,l", [(12, 5), (20, 3), (24, 5),
                                         (24, 7), (60, 7)])
    def test_sigma_width(self, order, l):
        # digits at their extreme with the signs of the row of the sigma
        # map with the largest l1 norm reach that row's bound exactly
        images = [make(order, [(l * j % order, 1)]).nums
                  for j in range(euler_phi(order))]
        row = max(range(len(images)),
                  key=lambda t: sum(abs(d[t]) for d in images))
        growth = sum(abs(d[row]) for d in images)
        for bits, width in ((31, 32), (32, 64)):
            a = bits - (growth - 1).bit_length()
            x = self.one(order, 1, [(-1 if d[row] < 0 else 1) * (2 ** a - 1)
                                    for d in images])
            assert x.packing.width == 32
            y = x.sigma(l)
            assert y.packing.width == width
            assert y.bits == bits == max(
                abs(c) for c in y.digits()[0][0]).bit_length()
            assert cyclo_matrix(y)[0][0] == cyclo_matrix(x)[0][0].galois(l)

    def test_bounds_hold_on_random_products(self):
        for name, param in MODELS:
            md = builtin_model(name, param)
            rng = Lcg(param)
            for _ in range(10):
                # two random words: up to 12 syllables
                got = rep_evaluate_packed(
                    md, random_word_matrix(rng) * random_word_matrix(rng))
                digits = [c for row in got.digits() for d in row for c in d]
                assert max(map(abs, digits)) < 2 ** got.bits
                assert got.bits < got.packing.width
                for col in zip(*got.digits()):
                    assert sum(abs(c) for d in col for c in d) <= got.norm

    def test_comparison_falls_back_to_digits(self):
        # 3 * (2^30 - 2, 1) and 2 * (-2^29 - 3, 2) agree as 32-bit packed
        # ints by a carry, although the digits (and the values) differ
        x = self.one(4, 2, [2 ** 30 - 2, 1])
        y = self.one(4, 3, [-2 ** 29 - 3, 2])
        assert x.packing.width == y.packing.width == 32
        assert x.rows[0][0] * 3 == y.rows[0][0] * 2
        assert not (x == y)
        assert x == self.one(4, 4, [2 ** 31 - 4, 2]).lift(32)

    @pytest.mark.parametrize("order", [21, 38, 40, 76])
    def test_phased_turn_width(self, order, monkeypatch):
        # x's digits at +-(2^bits - 1), bits leaving only the stage growth's
        # bits below 2^63, and every root of the field turning x against
        # the CycloNum oracle.  x's first entry takes the signs of the row
        # of largest l1 norm of the map x -> x * m_k over the monomials m_k,
        # k >= phi, and the rounds of the schedule (a sparse round at 38,
        # 40 and 76, none at 21): at every order here but 40 that row
        # passes 2^63, so only the l1 of m_k in the turn's rule keeps those
        # digits from carrying.  A carry in a round before the last comes
        # back out in the next one, so the width the comparison takes is
        # checked too.
        ctx = _context(order)
        phi, stage = ctx.phi, _fold_constants(order)[2]
        worst = (0, ())
        for k in range(phi, order):
            m_k = list(make(order, [(k, 1)]).nums)
            for polys in schedule(order, [[0] * s + m_k for s in range(phi)]):
                for t in range(max(map(len, polys))):
                    row = [p[t] if t < len(p) else 0 for p in polys]
                    worst = max(worst, (sum(map(abs, row)), row))
        bits = 63 - (stage - 1).bit_length()
        top = 2 ** bits - 1
        digits = [[[top if c >= 0 else -top for c in worst[1]],
                   [top * (-1) ** j for j in range(phi)]],
                  [[-top] * phi, [top] * phi]]
        x = from_digits(order, 1, digits)
        pm = types.SimpleNamespace(order=order, rank=2, t_weights=(0, 0))
        widths = []
        comparable = packed_module._comparable

        def spy(a, b, l1=0):
            pair = comparable(a, b, l1)
            widths.append((l1, pair[0].packing.width))
            return pair

        monkeypatch.setattr(packed_module, "_comparable", spy)
        field = order if order % 2 == 0 else 2 * order  # -zeta_M at odd M
        for k in range(field):
            root = root_of_unity_exp(Fraction(k, field))
            want = [[(CycloNum(order, 1, d) * root).coerce(order).nums
                     for d in row] for row in digits]
            turned = Phased(pm, x).t(scalar=Fraction(k, field))
            assert turned == Phased(pm, from_digits(order, 1, want)), k
            want[1][0] = [want[1][0][0] + 1, *want[1][0][1:]]
            assert list(turned.mismatches(Phased(
                pm, from_digits(order, 1, want)))) == [(1, 0)], k
        assert (worst[0] * top >= 2 ** 63) == (order != 40)
        assert max(l1 for l1, _ in widths) > 1
        assert all(width >= width_for(bits + (l1 * stage - 1).bit_length())
                   for l1, width in widths if l1)

    def test_identity_needs_den_as_a_digit(self):
        # at width 32, 2^32 - 1 is the packed int of the digits (-1, 1)
        p = packing(4, 32)
        v = p.pack([-1, 1])
        assert v == 2 ** 32 - 1
        m = PackedMatrix(p, v, ((v,),), 1, 2)
        assert not m.is_identity()
        assert from_digits(4, 7, [[[7, 0]]]).is_identity()

    def test_fold_count(self):
        for order in (1, 2, 3, 4, 8, 12, 16, 24, 48, 60):
            p = packing(order, 64)
            q = [(-1) ** j * (j + 1) for j in range(p.phi)]
            v = p.pack(q) * p.pack(q[::-1])
            want = CycloNum(order, 1, q) * CycloNum(order, 1, q[::-1])
            got = CycloNum(order, 1, p.unpack(p.reduce(v)))
            assert got == want, order


@st.composite
def digit_matrices(draw, order, rows, cols):
    """Matrices of reduced digit lists with digits up to 2^80, many of them
    at their extremes, and a random denominator."""
    phi = euler_phi(order)
    top = draw(st.sampled_from([1, 2 ** 20, 2 ** 31 - 1, 2 ** 63, 2 ** 80]))
    digit = st.one_of(st.integers(-top, top), st.sampled_from([-top, top, 0]))
    digits = draw(st.lists(
        st.lists(st.lists(digit, min_size=phi, max_size=phi),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return from_digits(order, draw(st.integers(1, 10 ** 6)), digits)


@st.composite
def packed_pairs(draw):
    order = draw(st.sampled_from([1, 3, 4, 5, 8, 12, 16, 24]))
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))
    return (draw(digit_matrices(order, r, k)),
            draw(digit_matrices(order, k, c)))


@settings(max_examples=150, deadline=None)
@given(packed_pairs())
def test_products_match_cyclonum_on_adversarial_digits(pair):
    a, b = pair
    order = a.packing.order
    prod = a @ b
    ref = mx.mat_mul(cyclo_matrix(a), cyclo_matrix(b))
    assert mx.mat_eq(cyclo_matrix(prod), ref)
    digits = [c for row in prod.digits() for d in row for c in d]
    assert max(map(abs, digits)) < 2 ** prod.bits <= 2 ** (
        prod.packing.width - 1)
    for l in (l for l in (5, 7, 11) if math.gcd(l, order) == 1):
        assert mx.mat_eq(cyclo_matrix(prod.sigma(l)),
                         galois.sigma_matrix(l, ref, order))
    same = from_digits(order, 3 * prod.den,
                       [[[3 * c for c in d] for d in row]
                        for row in prod.digits()])
    assert prod == same and same == prod
    digits = same.digits()
    digits[-1][-1] = [c + 1 for c in digits[-1][-1]]
    assert not (prod == from_digits(order, same.den, digits))
    other = a @ b.lift(b.packing.width + WIDTH_STEP)
    assert other == prod
    if len(ref) == len(ref[0]):
        assert prod.is_identity() == mx.is_identity(ref)


@settings(max_examples=150, deadline=None)
@given(packed_pairs())
def test_chain_step_matches_matmul_on_adversarial_digits(pair):
    # on operands with measured bounds, `@` gives the same ints, width,
    # bits and den as the entry product, whichever product it takes
    a, b = pair
    got, want = a @ b, _entry_product(a, b)
    assert (got.packing, got.bits, got.den, got.rows) == (
        want.packing, want.bits, want.den, want.rows)


@settings(max_examples=150, deadline=None)
@given(packed_pairs())
def test_matmul_by_a_narrower_factor_without_digits(pair):
    """A right factor narrower than the left one and without digits, as a
    product or a scaling leaves it: its bounds are claims and its den and
    digits share the factor 3.  The entry product lifts it, which
    remeasures and divides by 3; a slot product packs its digits as they
    are.  Both give the values of the product by the measured factor, with
    every digit below 2^bits at the left factor's width or wider."""
    a, b = pair
    b = b.lift(b.packing.width + WIDTH_STEP)
    bare = _product_matrix(b.packing, 3 * b.den,
                           tuple(tuple(3 * v for v in row) for row in b.rows),
                           b.bits + 2)
    a = a.lift(b.packing.width + WIDTH_STEP)
    want = cyclo_matrix(a @ b)
    for got in (a @ bare, _entry_product(a, bare)):
        assert mx.mat_eq(cyclo_matrix(got), want)
        assert got.packing.width >= a.packing.width
        digits = [c for row in got.digits() for d in row for c in d]
        assert max(map(abs, digits)) < 2 ** got.bits <= 2 ** (
            got.packing.width - 1)


def assert_bounds_hold(m):
    """Every digit of m is below 2^bits, bits fit the width, and every
    column's digits have l1 norm at most norm."""
    digits = m.digits()
    assert all(abs(c) < 2 ** m.bits for row in digits for d in row for c in d)
    assert m.bits < m.packing.width
    for col in zip(*digits):
        assert sum(abs(c) for d in col for c in d) <= m.norm


@settings(max_examples=100, deadline=None)
@given(packed_pairs(), st.data())
def test_transpose_and_take_rows_move_the_digits(pair, data):
    a, b = pair
    prod = a @ b
    assert prod._digits is None
    for m in (a, b, prod):
        order, den, digits = m.packing.order, m.den, m.digits()
        perm = data.draw(st.permutations(range(len(digits))))
        for moved, want in ((m.transpose(), [list(c) for c in zip(*digits)]),
                            (m.take_rows(perm), [digits[p] for p in perm])):
            assert moved.packing is m.packing and moved.den == den
            assert moved.digits() == want
            assert moved == from_digits(order, den, want)
            assert moved.rows == tuple(tuple(map(m.packing.pack, row))
                                       for row in want)
            assert_bounds_hold(moved)
        permuted = m.take_rows(perm)
        assert (permuted.bits, permuted.norm) == (m.bits, m.norm)
        assert m.transpose().transpose() == m


def test_transpose_without_digits_takes_the_generic_bound():
    # every digit at 2^bits - 1: a row of the transpose reaches the bound
    full = from_digits(12, 1, [[[2 ** 20 - 1] * 4] * 3] * 3)
    bare = PackedMatrix(full.packing, 1, full.rows, full.bits, full.norm)
    moved = bare.transpose()
    assert moved.norm == 3 * 4 * (2 ** 20 - 1)
    assert_bounds_hold(moved)


def test_integer_matrix_moves_as_integers():
    m = integers(12, [[0, 3, 1], [-2, 2 ** 40, 5]])
    for moved, want in ((m.transpose(), [[0, -2], [3, 2 ** 40], [1, 5]]),
                        (m.take_rows([1, 0]), [[-2, 2 ** 40, 5], [0, 3, 1]])):
        assert isinstance(moved, IntegerMatrix)
        assert moved.rows == tuple(map(tuple, want))
        assert moved == integers(12, want)
        assert_bounds_hold(moved)


SPECS = [*(f"su2:{k}" for k in range(1, 11)),
         *(f"cyclic_odd:{n}" for n in range(3, 12, 2))]


@pytest.mark.parametrize("spec", SPECS)
def test_conjugation_as_row_permutation(spec):
    """`s_inv` and the central factor of `product` against the products by
    the packed CycloNum S^2 that they replace, on random words, each also
    taken times -I."""
    name, param = spec.split(":")
    md = builtin_model(name, int(param))
    pm = md.packed
    chat = pack(mx.mat_mul(md.s, md.s), pm.order)
    assert pm.s_inv == (pm.s @ chat).lift()
    assert pm.product((), None, True) == chat
    rng = Lcg(int(param))
    centrals = set()
    for m in [t_gen(3), S_GEN * t_gen(-2)] + [
            random_word_matrix(rng) for _ in range(12)]:
        for word in (m, -m):
            w = syllables(word)
            steps = [0 if k is None else k for k in w.steps]
            got = pm.product(steps, w.last_t, w.central)
            want = pm.product(steps, w.last_t, False)
            assert got == (want @ chat if w.central else want), word
            centrals.add(w.central)
    assert centrals == {True, False}


@pytest.mark.parametrize("spec", SPECS)
def test_square_orders_are_product_orders(spec):
    """The -I rule of `rep_evaluate` takes the entry orders of S^2 off S
    (`_product_orders` of S and S): those of the CycloNum S^2, zeros
    included, on the builtin S, its file round trip and a file storing
    every entry at twice the order."""
    name, param = spec.split(":")
    md = builtin_model(name, int(param))
    for model in (md, loads(md.dumps()), doubled_order(md)):
        s = model.s
        orders = [[x.order for x in row] for row in s]
        assert _product_orders(s, orders, s, orders) == [
            [x.order for x in row] for row in mx.mat_mul(s, s)], model


@pytest.mark.parametrize("spec", [*(f"su2:{k}" for k in range(1, 7)),
                                  *(f"cyclic_odd:{n}" for n in (3, 5, 7, 9))])
def test_sigma_s_is_the_syllable_of_k_zero(spec):
    """T^0 S is the packed S itself, and sigma_l(S) the sigma_l syllable of
    k = 0, at every unit l mod M, against the CycloNum sigma_l(S)."""
    name, param = spec.split(":")
    md = builtin_model(name, int(param))
    pm = md.packed
    assert pm.syllable(0) is pm.s
    order = pm.order
    for l in range(1, order):
        if math.gcd(l, order) == 1:
            got = pm.syllable(0, l)
            assert got == pm.s.sigma(l), l
            assert got == pack(galois.sigma_matrix(l, md.s, order), order), l


def test_one_copy_of_each_model_matrix(monkeypatch):
    """Validation squares S once, as a CycloNum product, and keeps no S^2;
    the packed model keeps no second sigma_l(S) cache."""
    calls = []
    real = mx.mat_mul

    def mat_mul(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(mx, "mat_mul", mat_mul)
    md = builtin_model("su2", 3)
    assert len(calls) == 1 and calls[0][0] is calls[0][1] == md.s
    assert not hasattr(md, "chat")
    pm = md.packed
    assert not hasattr(pm, "sigma_s") and not hasattr(pm, "_sigma_s")


@pytest.mark.parametrize("spec", SPECS)
def test_s_packed_once_per_field(monkeypatch, spec):
    """Validation packs S over the field of its entries, and again only
    when the T entries widen that field; the model's packed S is the
    packing over the model's field."""
    name, param = spec.split(":")
    md = builtin_model(name, int(param))
    ranks = []
    real = modular_data.pack

    def pack_(matrix, order):
        ranks.append(len(matrix))
        return real(matrix, order)

    monkeypatch.setattr(modular_data, "pack", pack_)
    again = ModularData(md.labels, md.s, md.delta, md.c, md.c0)
    s_order = math.lcm(*(x.order for row in md.s for x in row))
    field = field_order(md.s, md.delta, md.c0)
    assert ranks.count(md.rank) == (1 if field == s_order else 2)
    assert again.packed.order == field
    assert again.packed.s == pack(md.s, field)


def test_conjugation_builds_no_product(monkeypatch):
    md = builtin_model("cyclic_odd", 5)
    s = md.packed.s

    def fail(*args):
        raise AssertionError("a product or a CycloNum value was built")

    monkeypatch.setattr(PackedMatrix, "__matmul__", fail)
    monkeypatch.setattr(CycloNum, "__init__", fail)
    pm = PackedModel(md, s)
    assert not hasattr(pm, "chat")
    assert pm.s_inv.rows == tuple(s.rows[p] for p in md.conj)
    assert pm.product((), None, True).rows == tuple(
        tuple(int(j == md.conj[i]) for j in range(md.rank))
        for i in range(md.rank))
    pm.product((), 2, True)


def sparse_cut(order):
    """(h, s) with x^h = s modulo Phi_order: (order/2, -1) for an even
    order, (order, 1) for an odd one."""
    return (order // 2, -1) if order % 2 == 0 else (order, 1)


def fold(p, cut, low):
    """One round lo + hi * R of the coefficient list p, lo its coefficients
    below x^cut, x^cut = R the sum of r * x^j over the (j, r) in low."""
    out = p[:cut] + [0] * (len(p) - cut)
    for i, c in enumerate(p[cut:]):
        if c:
            for j, r in low:
                out[i + j] += c * r
    while len(out) > cut and not out[-1]:
        out.pop()
    return out


def schedule(order, polys):
    """The coefficient lists `polys`, of degree at most 2*phi - 2, before
    and after each round modulo Phi_order itself: the sparse round
    x^h = s of `sparse_cut` when 2*phi - 2 reaches h, then dense rounds
    x^phi = R until every list is below x^phi."""
    ctx = _context(order)
    h, s = sparse_cut(order)
    yield polys
    if 2 * ctx.phi - 2 >= h:
        polys = [fold(p, h, ((0, s),)) for p in polys]
        yield polys
    while any(len(p) > ctx.phi for p in polys):
        polys = [fold(p, ctx.phi, ctx.low) for p in polys]
        yield polys


def direct_fold_constants(order):
    """(h, folds, stage growth, reduce growth) of `schedule` on x^0 ..
    x^(2*phi - 2) modulo Phi_order itself, the computation
    `_fold_constants` does on the radical."""
    phi = euler_phi(order)
    h = sparse_cut(order)[0]
    if 2 * phi - 2 < h:
        h = 0
    growth = [max(sum(map(abs, col))
                  for col in zip_longest(*polys, fillvalue=0))
              for polys in schedule(
                  order, [[0] * i + [1] for i in range(2 * phi - 1)])]
    return h, len(growth) - 1 - (h > 0), max(growth), growth[-1]


def test_fold_constants_on_the_radical():
    orders = [m for m in range(1, 300) if math.prod(_factorize(m)) <= 70]
    for order in orders + [360, 720, 1200]:
        assert _fold_constants(order) == direct_fold_constants(order), order


@functools.lru_cache(maxsize=None)
def worst_signs(order):
    """The signs of the row of largest l1 norm of the maps of `schedule`
    on x^0 .. x^(2*phi - 2), over every round: a product with these signs
    at +-top has a digit of top times the stage growth in some round."""
    phi = euler_phi(order)
    worst = (0, ())
    for polys in schedule(order, [[0] * i + [1] for i in range(2 * phi - 1)]):
        for row in zip_longest(*polys, fillvalue=0):
            worst = max(worst, (sum(map(abs, row)), row))
    assert worst[0] == _fold_constants(order)[2]
    return tuple(1 if c >= 0 else -1 for c in worst[1])


#: orders of the schedule tests: even with a sparse round (24, 44, 76),
#: odd with one (5, 9, 25), without one (h = 0: 1, 3, 15, 105, 840), and
#: powers of two, where the sparse round is the whole reduction (h = phi);
#: 24, 44, 76, 9, 25, 840, 4, 8 and 32 have rad < order
SCHEDULE_ORDERS = [24, 44, 76, 5, 9, 25, 1, 3, 15, 105, 840, 4, 8, 32]


class TestSchedule:
    """The schedule of `_fold_constants` pinned, and `Packing.reduce` and a
    slot product against `_FieldContext.reduce` on random digits and on
    digits at the width bound."""

    @pytest.mark.parametrize("order", [5, 12, 24, 28, 40, 44, 56, 76, 92,
                                       124, 152])
    def test_one_sparse_and_one_dense_round(self, order):
        assert _fold_constants(order) == (sparse_cut(order)[0], 1, 3, 3)

    def test_constants(self):
        # 1 + 13 rounds at 132, where the dense rounds alone took 20 with
        # stage growth 2857
        assert _fold_constants(132) == (66, 13, 117, 7)
        # h = 0: the dense rounds alone, as before the sparse round
        assert [_fold_constants(m) for m in (1, 3, 15, 105, 840)] == [
            (0, 0, 1, 1), (0, 1, 2, 2), (0, 7, 10, 6),
            (0, 47, 24318800534, 28), (0, 48, 41440061133, 29)]
        # powers of two: x^phi = -1 is the sparse round, h = phi
        for order in (4, 8, 16, 32, 64):
            assert _fold_constants(order) == (order // 2, 0, 2, 2)

    def products(self, order, width):
        """Unreduced products at `order` (2*phi - 1 digits), with digits of
        bits = width - 1 - ceil(log2(stage growth)): at +-(2^bits - 1) with
        the signs of `worst_signs` and their negation, then random."""
        phi = euler_phi(order)
        bits = width - 1 - (_fold_constants(order)[2] - 1).bit_length()
        top = 2 ** bits - 1
        worst = [top * c for c in worst_signs(order)]
        rng = random.Random(order * width)
        return [worst, [-c for c in worst], *(
            [rng.choice([-top, top, rng.randint(-top, top)])
             for _ in range(2 * phi - 1)] for _ in range(4))]

    @staticmethod
    def widths(order):
        """The widths up to 96 at which a digit keeps at least 8 bits."""
        stage = _fold_constants(order)[2]
        return [w for w in (32, 64, 96)
                if w - 1 - (stage - 1).bit_length() >= 8]

    @pytest.mark.parametrize("order", SCHEDULE_ORDERS)
    def test_reduce_matches_the_context(self, order):
        ctx = _context(order)
        for width in self.widths(order):
            p = packing(order, width)
            for digits in self.products(order, width):
                want = p.pack(ctx.reduce(list(digits)))
                assert p.reduce(p.pack(digits)) == want, (order, width)

    @pytest.mark.parametrize("order", SCHEDULE_ORDERS)
    def test_slot_product_matches_the_context(self, order):
        # the row (1, x^(phi-1)) times the column (L, H) is the product
        # L + x^(phi-1) H = P, for L the low phi - 1 digits of P and H the
        # others: one row of two entries, each a product of 2*phi - 1
        # digits
        ctx = _context(order)
        phi = ctx.phi
        for width in self.widths(order):
            sp = slot_packing(order, width, 2)
            p = sp.packing
            row = (p.pack([1]), p.pack([0] * (phi - 1) + [1]))
            products = self.products(order, width)
            for left, right in zip(products, products[1:]):
                slot_rows = [sp.pack_row([p.pack(d[:phi - 1] + [0])
                                          for d in (left, right)]),
                             sp.pack_row([p.pack(d[phi - 1:])
                                          for d in (left, right)])]
                want = tuple(p.pack(ctx.reduce(list(d)))
                             for d in (left, right))
                assert sp.product([row], slot_rows) == (want,), (
                    order, width)


class TestIntegerRead:
    """`nonneg_integers` against the CycloNum value of the entry, at the
    bounds of the packed int: the read trusts 0 <= v < 2^(width-1) and den
    dividing v, and nothing else."""

    def read(self, order, den, v, bits=31):
        m = PackedMatrix(packing(order, 32), den, ((v,),), bits, 2 ** bits)
        x = cyclo_matrix(m)[0][0]
        want = x.nums[0] if x.is_nonneg_integer() else None
        got = m.nonneg_integers()[0][0]
        assert got == want
        return got

    @pytest.mark.parametrize("den", [1, 2, 3, 2 ** 31 - 1])
    def test_largest_digit(self, den):
        top = 2 ** 31 - 1
        assert self.read(4, 1, top) == top
        # den * (2^31 - 1) has a nonzero higher digit once den > 1
        assert self.read(4, den, den * top) == (top if den == 1 else None)

    @pytest.mark.parametrize("order", [1, 4, 12])
    @pytest.mark.parametrize("value", [-1, -2, -(2 ** 30)])
    def test_negative_integers(self, order, value):
        for den in (1, 3):
            assert self.read(order, den, den * value) is None

    @pytest.mark.parametrize("order", [4, 12, 60])
    def test_zero_low_digit(self, order):
        p = packing(order, 32)
        for k in range(1, p.phi):
            for low, high in ((0, 1), (0, -1), (6, 1), (0, 2 ** 30)):
                digits = [low] + [0] * (p.phi - 1)
                digits[k] = high
                assert self.read(order, 1, p.pack(digits)) is None
                assert self.read(order, 2, 2 * p.pack(digits)) is None

    @pytest.mark.parametrize("den,v", [(2, 7), (3, 2 ** 31 - 1), (6, 9),
                                       (2 ** 31 - 1, 2 ** 30)])
    def test_den_not_dividing(self, den, v):
        assert self.read(4, den, v) is None

    def test_exact_multiples(self):
        for den in (1, 2, 5, 2 ** 20):
            for n in (0, 1, 7, (2 ** 31 - 1) // den):
                assert self.read(12, den, den * n) == n

    def test_integer_matrix_is_its_own_packing(self):
        m = integers(12, [[0, 3], [-2, 2 ** 40]])
        assert m.packing.width == 64
        assert mx.mat_eq(cyclo_matrix(m), mx.mat(
            [[CycloNum.rational(n, 12) for n in row]
             for row in [[0, 3], [-2, 2 ** 40]]]))
        assert m.nonneg_integers() == ((0, 3), (None, 2 ** 40))
        wide = m.lift(128)
        assert wide.packing.width == 128 and wide.rows == m.rows
        assert mx.mat_eq(cyclo_matrix(wide), cyclo_matrix(m))
        # a product that widens the integer operand
        x = from_digits(12, 5, [[[2 ** 60, -1, 0, 7]], [[1, 2, 3, -(2 ** 61)]]])
        assert mx.mat_eq(cyclo_matrix(m @ x),
                         mx.mat_mul(cyclo_matrix(m), cyclo_matrix(x)))


def diagonal_oracle(factor):
    """The packed diagonal matrix of a `Scaling`, built from its digits: the
    product by it is the path `scale` replaces."""
    zero = [0] * euler_phi(factor.order)
    rank = len(factor.digits)
    return from_digits(factor.order, factor.den, [
        [list(d) if i == j else zero for j in range(rank)]
        for i, d in enumerate(factor.digits)])


SCALE_ORDERS = [5, 12, 16, 24, 40, 44]


@st.composite
def scalings(draw, order, size):
    """A `Scaling` of `size` entries: monomials at exponents of any sign and
    size, or digit lists over a den above 1."""
    if draw(st.booleans()):
        return roots(order, draw(st.lists(
            st.integers(-3 * order, 3 * order), min_size=size,
            max_size=size)))
    phi = euler_phi(order)
    digit = st.integers(-2 ** 40, 2 ** 40)
    digits = draw(st.lists(st.lists(digit, min_size=phi, max_size=phi),
                           min_size=size, max_size=size))
    if not any(any(d) for d in digits):
        digits[0][0] = 1
    return Scaling(order, digits, draw(st.integers(2, 10 ** 4)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scale_matches_diagonal_products(data):
    order = data.draw(st.sampled_from(SCALE_ORDERS))
    r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    x = data.draw(digit_matrices(order, r, c))
    if data.draw(st.booleans()):  # an operand without digits
        x = PackedMatrix(x.packing, x.den, x.rows, x.bits, x.norm)
    side = data.draw(st.sampled_from(["rows", "cols", "both"]))
    rows = data.draw(scalings(order, r)) if side != "cols" else None
    cols = data.draw(scalings(order, c)) if side != "rows" else None
    got = x.scale(rows, cols)
    want = x
    if rows is not None:
        want = diagonal_oracle(rows) @ want
    if cols is not None:
        want = want @ diagonal_oracle(cols)
    assert got == want
    ref = cyclo_matrix(x)
    if rows is not None:
        ref = mx.mat_mul(cyclo_matrix(diagonal_oracle(rows)), ref)
    if cols is not None:
        ref = mx.mat_mul(ref, cyclo_matrix(diagonal_oracle(cols)))
    assert mx.mat_eq(cyclo_matrix(got), ref)
    assert_bounds_hold(got)


@pytest.mark.parametrize("order", SCALE_ORDERS)
def test_scale_by_monomials_at_every_exponent(order):
    # every exponent in [-order, 2 * order), each as a row and as a column
    # factor and combined with a column exponent; the operand's digits sit
    # at their 31-bit extreme, so the result's width is at its bound
    phi = euler_phi(order)
    top = 2 ** 31 - 1
    x = from_digits(order, 3, [[[top if (i + j + t) % 3 else -top
                                 for t in range(phi)] for j in range(2)]
                               for i in range(2)])
    exponents = list(range(-order, 2 * order))
    for e in exponents:
        for rows, cols in ((roots(order, [e, 1 - e]), None),
                           (None, roots(order, [e, 2 * e])),
                           (roots(order, [e, 0]), roots(order, [3, -e]))):
            got = x.scale(rows, cols)
            want = x
            if rows is not None:
                want = diagonal_oracle(rows) @ want
            if cols is not None:
                want = want @ diagonal_oracle(cols)
            assert got == want, (e, rows, cols)
            assert_bounds_hold(got)


def test_scale_takes_one_field():
    x = from_digits(12, 1, [[[1, 0, 0, 0]]])
    with pytest.raises(ValueError):
        x.scale(cols=roots(24, [1]))


def test_syllable_is_a_row_scaling_of_s():
    for name, param in MODELS:
        md = builtin_model(name, param)
        pm = md.packed
        for k in (0, 1, -1, 5, pm.order + 3):
            syllable = pm.syllable(k)
            assert syllable == diagonal_oracle(pm.t_power(k)) @ pm.s
            assert syllable == pack(
                rep_evaluate_by_token(md, t_gen(k) * S_GEN), pm.order)
            assert syllable._digits is not None


def test_t_powers_and_sigma_s_cached_per_model(monkeypatch):
    # per model content: a second build of su2:2 reads the same caches
    md, again = builtin_model("su2", 2), builtin_model("su2", 2)
    pm = md.packed
    assert again.packed is pm
    assert pm.t_power(3) is pm.t_power(3)
    assert pm.t_power(3).exponents == tuple(
        3 * w % pm.order for w in pm.t_weights)
    calls = []
    real = PackedMatrix.sigma

    def sigma(self, l):
        calls.append(l)
        return real(self, l)

    monkeypatch.setattr(PackedMatrix, "sigma", sigma)
    rng = Lcg(3)
    ms = [random_word_matrix(rng) for _ in range(30)]
    n = md.conductor_n()
    units = [m for m in ms if math.gcd(m.d, n) == 1]
    for model in (md, again):
        for m in units:
            galois.kernel_test(model, m)
    # one sigma_l(S) per Galois index l != 1 mod M over both builds (the
    # syllable of k = 0; sigma_1(S) is S), one sigma_l(D(m)) per sample
    lifts = {galois.coprime_lift(m.d, n, pm.order) % pm.order for m in units}
    assert 1 in lifts and len(lifts) > 1
    assert len(calls) == len(lifts - {1}) + 2 * len(units)
    for l in lifts:
        assert pm.syllable(0, l) == pm.s.sigma(l)


class TestSharedModels:
    """One `PackedModel` per model content in the process (`packed_model`)."""

    def test_builds_of_one_content_share_a_packed_model(self):
        md = builtin_model("su2", 2)
        assert builtin_model("su2", 2).packed is md.packed
        assert loads(md.dumps()).packed is md.packed

    def test_second_galois_request_builds_nothing(self, monkeypatch, capsys):
        builds = collections.Counter()
        real = packed_module._cached

        def counting(cache, key, build):
            if key not in cache:  # the method whose cache missed
                builds[build.__qualname__.split(".")[-3]] += 1
                # sigma_l(S), the sigma_l syllable of k = 0
                builds["sigma_l(S)"] += isinstance(key, tuple) and key[1] == 0
            return real(cache, key, build)

        monkeypatch.setattr(packed_module, "_cached", counting)
        argv = ["galois", "--model", "su2:2", "--l", "3,5,7,9",
                "--samples", "10", "--json"]
        assert cli.main(argv) == 0
        assert builds["syllable"] > 0 and builds["sigma_l(S)"] > 0
        builds.clear()
        assert cli.main(argv) == 0
        assert builds["syllable"] == builds["sigma_l(S)"] == 0

    def test_c0_shift_gets_its_own_packed_model(self):
        # S, its field and C agree; only the T weights tell them apart
        md = builtin_model("su2", 1)
        shifted = builtin_model("su2", 1, c0_override=md.c0 + 8)
        assert shifted._packed_s.rows == md._packed_s.rows
        assert shifted.packed is not md.packed
        for model in (md, shifted):
            pm = model.packed
            assert pm.syllable(1) == pack(
                rep_evaluate_by_token(model, t_gen(1) * S_GEN), pm.order)

    def test_table_keeps_the_contents_used_last(self):
        mds = [builtin_model("su2", 1, c0_override=c0) for c0 in (1, 9, 17)]
        mds += [builtin_model(*spec) for spec in (
            ("su2", 2), ("su2", 3), ("su2", 4), ("cyclic_odd", 3),
            ("cyclic_odd", 5), ("trivial", None))]
        assert len(mds) == MODEL_TABLE_SIZE + 1

        def shared(i):
            return packed_model(mds[i], mds[i]._packed_s)

        first, evicted = shared(0), shared(1)
        for i in range(2, MODEL_TABLE_SIZE):
            shared(i)
        assert shared(0) is first  # now the most recently used
        shared(MODEL_TABLE_SIZE)
        assert len(packed_module._models) == MODEL_TABLE_SIZE
        assert shared(0) is first
        assert shared(1) is not evicted

    def test_threads_share_one_model_per_content(self):
        models = [builtin_model("su2", 1, c0_override=1 + 8 * j)
                  for j in range(3)]
        seen = [[] for _ in models]

        def work():
            for _ in range(300):
                for md, out in zip(models, seen):
                    out.append(packed_model(md, md._packed_s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(out) == 8 * 300 for out in seen)
        assert [len(set(map(id, out))) for out in seen] == [1, 1, 1]
        assert len(packed_module._models) == len(models)


class TestSlotProducts:
    """The slot product against the entry product, and the dispatch of
    `PackedMatrix.__matmul__` between them."""

    #: the builtins whose entries have at most SLOT_BITS bits at width 32
    SLOT_MODELS = [("trivial", None), ("su2", 1), ("su2", 2), ("su2", 4),
                   ("cyclic_odd", 3), ("cyclic_odd", 5), ("cyclic_odd", 9)]

    def at_the_bound(self, order, rank, width, seed):
        """(a, b) over Q(zeta_order) at `width`, rank x rank, with
        a.bits + ceil(log2(b.norm * stage growth)) == width - 1: b's digits
        random, a's at +-(2^bits - 1), both as packed at `width`."""
        rng = Lcg(seed)
        phi = euler_phi(order)
        top = 2 ** rng.int_in(1, 12)
        b = from_digits(order, rng.int_in(1, 50), [
            [[rng.int_in(-top, top) for _ in range(phi)] for _ in range(rank)]
            for _ in range(rank)], width)
        stage = _fold_constants(order)[2]
        bits = width - 1 - (b.norm * stage - 1).bit_length()
        extreme = 2 ** bits - 1
        a = from_digits(order, 1, [  # den 1: no common factor divides out
            [[extreme if rng.below(3) else -extreme for _ in range(phi)]
             for _ in range(rank)] for _ in range(rank)], width)
        assert a.bits == bits and a.packing.width == b.packing.width == width
        return a, b

    @pytest.mark.parametrize("name,param,width", [
        *((name, param, 32) for name, param in SLOT_MODELS),
        # phi <= 4: orders 1, 12 and 5
        ("trivial", None, 64), ("cyclic_odd", 3, 64), ("cyclic_odd", 5, 64),
    ])
    def test_slot_step_matches_matmul(self, name, param, width):
        md = builtin_model(name, param)
        order, rank = md.packed.order, md.rank
        assert euler_phi(order) * width <= SLOT_BITS
        sp = slot_packing(order, width, rank)
        for seed in range(6):
            a, b = self.at_the_bound(order, rank, width, seed)
            want = _entry_product(a, b)
            assert want.packing.width == width
            assert sp.product(a.rows, b.slot_rows(width)) == want.rows
            # the product of a syllable of the model, itself at a narrower
            # width, by the same slot rows
            syllable = md.packed.syllable(seed)
            wide = syllable.lift(width)
            assert sp.product(wide.rows, b.slot_rows(width)) == (
                _entry_product(wide, b)).rows
        # slot rows of a narrower matrix are packed from its digits
        narrow = md.packed.syllable(1)
        assert narrow.slot_rows(width) == narrow.lift(width).slot_rows(width)

    def test_slot_rows_kept_per_width(self):
        m = builtin_model("su2", 2).packed.syllable(3)
        assert m.slot_rows(32) is m.slot_rows(32)
        assert m.slot_rows(64) is not m.slot_rows(32)

    @pytest.mark.parametrize("name,param", [*SLOT_MODELS[1:], ("su2", 3),
                                            ("cyclic_odd", 7)])
    def test_chain_matches_matmul_chain(self, name, param):
        # a chain of `@` against one of entry products: the same widths,
        # bits, dens and ints
        md = builtin_model(name, param)
        pm = md.packed
        for m in word_set(md, param)[:60]:
            factors = [pm.syllable(0 if k is None else k)
                       for k in syllables(m).steps]
            if not factors:
                continue
            got = functools.reduce(matmul, factors)
            want = functools.reduce(_entry_product, factors)
            assert (got.packing, got.bits, got.den, got.rows) == (
                want.packing, want.bits, want.den, want.rows), m
            assert got.norm == want.norm

    @pytest.mark.parametrize("spec,slot_steps", [(("su2", 3), False),
                                                 (("su2", 4), True)])
    def test_dispatch(self, monkeypatch, spec, slot_steps):
        # su2:3 lies in Q(zeta_40), 16 digits of 32 bits: above SLOT_BITS,
        # so every product is an entry product; su2:4 (8 digits) takes a
        # slot product at each step of a word, of `rep_evaluate` too, and
        # in validation
        calls = []
        real = SlotPacking.product

        def product(sp, rows, slot_rows):
            calls.append(sp)
            return real(sp, rows, slot_rows)

        monkeypatch.setattr(SlotPacking, "product", product)
        md = builtin_model(*spec)
        assert bool(calls) == slot_steps
        pm = md.packed
        assert (euler_phi(pm.order) * 32 <= SLOT_BITS) == slot_steps
        word = t_gen(1) * S_GEN * t_gen(2) * S_GEN * t_gen(3) * S_GEN
        assert len(syllables(word).steps) == 3
        for evaluate in (lambda: pm.product((1, 2, 3), None, False),
                         lambda: pack(rep_evaluate(md, word), pm.order)):
            calls.clear()
            got = evaluate()
            assert len(calls) == (2 if slot_steps else 0)
            assert got == pack(rep_evaluate_by_token(md, word), pm.order)

    @pytest.mark.parametrize("x,y,width", [
        # a bound of exactly 32 bits, both factors at width 32: the step
        # takes __matmul__, which widens; one bit less stays a slot step
        (-(2 ** 31 - 1), 2, 64), (-(2 ** 30 - 1), 2, 32),
        (2 ** 31 - 1, -(2 ** 31 - 1), 64), (2 ** 15 - 1, 2 ** 15, 32),
        # the cases of TestBounds.test_product_width
        (-(2 ** 31 - 1), 2 ** 32 - 1, 64), (-(2 ** 31 - 1), 2 ** 33 - 1, 96),
        (-3, 2 ** 61 - 1, 64), (-3, 2 ** 62 - 1, 96),
    ])
    def test_chain_widens_at_the_bound(self, x, y, width):
        a, b = from_digits(1, 1, [[[x]]]), from_digits(1, 1, [[[y]]])
        z, want = a @ b, _entry_product(a, b)
        assert (z.packing, z.bits, z.rows) == (
            want.packing, want.bits, want.rows)
        assert z.packing.width == width
        assert z.rows == ((x * y,),)
        assert z.bits == (abs(x).bit_length()
                          + (abs(y) - 1).bit_length())


#: the builtins of the sigma-word tests: orders 24, 16, 40, 24, 56, 32 and
#: 12, 5, 28, 9
SIGMA_MODELS = [*(("su2", k) for k in range(1, 7)),
                *(("cyclic_odd", n) for n in (3, 5, 7, 9))]


@pytest.mark.parametrize("name,param", SIGMA_MODELS)
def test_sigma_word_is_sigma_of_the_word(name, param):
    """product(..., l) against sigma_l of the product, at every unit l mod
    M, with the final T power absent, negative and positive, and with and
    without the central factor."""
    md = builtin_model(name, param)
    pm = md.packed
    order = pm.order
    rng = Lcg(param)
    words = [((), None), ((0,), -1)]
    for last_t in (None, -rng.int_in(1, 3 * order), rng.int_in(1, 99)):
        words.append(([rng.int_in(-order, order) for _ in range(3)], last_t))
    units = [l for l in range(1, order + 1) if math.gcd(l, order) == 1]
    for l in units:
        for steps, last_t in words:
            for central in (False, True):
                want = pm.product(steps, last_t, central).sigma(l)
                got = pm.product(steps, last_t, central, l)
                assert got == want, (l, steps, last_t, central)
                # l is read mod M
                assert pm.product(steps, last_t, central, l + order) == want
    assert all(key[0] in units and 0 <= key[1] < order
               for key in pm._sigma_syllables)


def test_sigma_syllables_cached_per_unit():
    md = builtin_model("su2", 1)
    pm = md.packed
    m = pm.order
    for l, k in ((5, 1), (5 + m, 1 + m), (7, 1), (5, 2)):
        pm.syllable(k, l)
    assert {(5, 1), (7, 1), (5, 2)} <= set(pm._sigma_syllables)
    assert pm.syllable(1, 5) is pm.syllable(1 + m, 5 + m)
    assert pm.syllable(1, 5) == pm.syllable(1).sigma(5)
    assert pm.syllable(1, 5) != pm.syllable(1, 7)
    assert pm.syllable(1, 1 + m) is pm.syllable(1)
    assert pm.syllable(1, 5)._digits is None


def test_frobenius_check_takes_no_sigma_of_a_product(monkeypatch):
    # sigma_l is taken of syllables only, once per (l, k) of each model
    packed_module.clear_models()
    md = builtin_model("su2", 2)
    calls = []
    real = PackedMatrix.sigma

    def sigma(self, l):
        calls.append(self)
        return real(self, l)

    monkeypatch.setattr(PackedMatrix, "sigma", sigma)
    records = galois.congruence_suite(md, 8, 5, (5, 7))
    assert [r.passed for r in records] == [True] * 4
    pm = md.packed
    assert len(calls) == len(pm._sigma_syllables) > 0
    assert all(any(m is s for s in pm._syllables.values()) for m in calls)


def test_c0_shift_by_24_is_another_model():
    """T^r for a non-integer r depends on c0 mod 24 * den(r): su2:1 with
    c and c0 both raised by 24 has the same integer T powers, but other
    T^(1/2) and hatted matrices, so its packed model is its own."""
    md = builtin_model("su2", 1)
    obj = md.to_obj()
    obj["c"] = str(md.c + 24)
    obj["c0"] = str(md.c0 + 24)
    shifted = loads(json.dumps(obj))
    assert shifted.c0 == md.c0 + 24
    assert shifted.packed is not md.packed
    assert shifted.packed.t_weights == tuple(
        w - md.packed.order for w in md.packed.t_weights)
    for k in (1, 2, 5):
        assert shifted.t_entries(k) == md.t_entries(k)
        assert shifted.packed.syllable(k) == md.packed.syllable(k)
    assert shifted.t_entries(Fraction(1, 2)) != md.t_entries(Fraction(1, 2))
    assert not mx.mat_eq(lambdamat.lambda_hat(shifted, Fraction(1, 3)),
                         lambdamat.lambda_hat(md, Fraction(1, 3)))


def monomial_tables(order):
    """The monomial table of every live `Packing` over Q(zeta_order)."""
    return [p._monomials for p in gc.get_objects()
            if isinstance(p, Packing) and p.order == order]


@pytest.mark.parametrize("order", [12, 15, 40])
def test_comparisons_add_no_roots_cache_entry(order):
    """Phased comparisons with a new set of turns each: every verdict is
    the CycloNum one, entry by entry, and each packing's monomial table
    holds at most `order` entries, one per exponent.  Phases over
    2 * order put some roots outside the field."""
    rank, phi = 3, euler_phi(order)
    pm = types.SimpleNamespace(order=order, rank=rank, t_weights=(0,) * rank)
    rng = random.Random(order)
    turn_sets, mismatched = set(), 0
    for _ in range(60):
        den = rng.choice([order, 2 * order])

        def phases():
            return (tuple(rng.randrange(den) for _ in range(rank)),
                    tuple(rng.randrange(den) for _ in range(rank)),
                    rng.randrange(den))

        (a, b, c), (a2, b2, c2) = phases(), phases()
        x = [[[rng.randrange(-9, 10) if rng.random() < 0.8 else 0
               for _ in range(phi)] for _ in range(rank)]
             for _ in range(rank)]

        def turned(i, j, d, a, b, c):
            return CycloNum(order, 1, d) * root_of_unity_exp(
                Fraction(a[i] + b[j] + c, den))

        y, want = [], []
        for i in range(rank):
            y.append([])
            for j in range(rank):
                lhs = turned(i, j, x[i][j], a, b, c)
                back = lhs * root_of_unity_exp(
                    Fraction(-(a2[i] + b2[j] + c2), den))
                if order % back.minimal_order():
                    back = None  # outside the field
                if back is None or rng.random() < 0.2:
                    d = [rng.randrange(-9, 10) for _ in range(phi)]
                else:
                    d = list(back.coerce(order).nums)
                y[-1].append(d)
                if lhs != turned(i, j, d, a2, b2, c2):
                    want.append((i, j))
        turn_sets.add((den, tuple(p - q for p, q in zip(a, a2)),
                       tuple(p - q for p, q in zip(b, b2)), c - c2))
        left = Phased(pm, from_digits(order, 1, x), den, a, b, c)
        right = Phased(pm, from_digits(order, 1, y), den, a2, b2, c2)
        assert list(left.mismatches(right)) == want
        mismatched += bool(want)
    assert len(turn_sets) == 60 and 0 < mismatched < 60
    tables = monomial_tables(order)
    assert any(tables) and all(len(t) <= order for t in tables)


def test_galois_requests_keep_monomial_tables_bounded(capsys):
    """40 galois requests on su2:4, over Q(zeta_24), each with its own
    sampled words and so its own T powers in the 400 scalings of the
    kernel test: every monomial table over that field holds at most 24
    entries, one per exponent mod 24.  The tables are emptied first, so
    what they hold after is what these requests put there."""
    for table in monomial_tables(24):
        table.clear()
    for seed in range(1, 41):
        assert cli.main(["galois", "--model", "su2:4", "--l", "5,7,11,13",
                         "--samples", "10", "--seed", str(seed),
                         "--json"]) == 0
    capsys.readouterr()
    tables = monomial_tables(24)
    assert any(tables) and all(len(t) <= 24 for t in tables)


def _over(order, den, digits):
    """A packed matrix of these digit rows over `den` as given, without the
    gcd that `from_digits` divides out."""
    bits = max(abs(c) for row in digits for d in row for c in d).bit_length()
    p = packing(order, width_for(bits))
    return PackedMatrix(p, den, tuple(tuple(map(p.pack, row)) for row in digits),
                        bits, packed_module._column_norm(digits), digits)


@settings(max_examples=80, deadline=None)
@given(order=st.sampled_from([1, 4, 12, 15, 40]),
       dens=st.sampled_from([(6, 10), (4, 64), (2 ** 20, 2 ** 3), (9, 9),
                             (12, 18), (35, 21), (1, 7)]),
       phased=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_mismatches_over_unequal_dens(order, dens, phased, seed):
    """Both `mismatches` against the CycloNum oracle, over dens that share
    a factor: entries of equal value over dx = g*u and dy = g*v are u*z
    and v*z; the others differ, or are zero on both sides, at random.  A
    `Phased` left side carries phases over 2 * order, so some entries turn
    by roots outside the field."""
    rng = random.Random(seed)
    rank, phi = 3, euler_phi(order)
    dx, dy = dens
    g = math.gcd(dx, dy)
    den = 2 * order
    a = tuple(rng.randrange(den) for _ in range(rank)) if phased else (0,) * 3
    b = tuple(rng.randrange(den) for _ in range(rank)) if phased else (0,) * 3
    c = rng.randrange(den) if phased else 0
    x, y = [], []
    for i in range(rank):
        x.append([])
        y.append([])
        for j in range(rank):
            z = [rng.randrange(-9, 10) for _ in range(phi)]
            turned = CycloNum(order, 1, z) * root_of_unity_exp(
                Fraction(a[i] + b[j] + c, den))
            if (rng.random() < 0.3 or not any(z)
                    or order % turned.minimal_order()):
                y[-1].append([rng.randrange(-2, 3) for _ in range(phi)])
            else:
                y[-1].append([dy // g * t for t in turned.coerce(order).nums])
            x[-1].append([dx // g * t for t in z])
    want = [(i, j) for i in range(rank) for j in range(rank)
            if CycloNum(order, dx, x[i][j]) * root_of_unity_exp(
                Fraction(a[i] + b[j] + c, den)) != CycloNum(order, dy, y[i][j])]
    xm, ym = _over(order, dx, x), _over(order, dy, y)
    assert (xm.den, ym.den) == (dx, dy)
    if phased:
        pm = types.SimpleNamespace(order=order, rank=rank,
                                   t_weights=(0,) * rank)
        got = Phased(pm, xm, den, a, b, c).mismatches(Phased(pm, ym))
    else:
        got = xm.mismatches(ym)
    assert list(got) == want


@pytest.mark.parametrize("k,a,b,t", [(2, 4, 10, 0), (2, 4, 10, 1),
                                     (6, 2, 6, 0), (6, 2, 6, 1),
                                     (6, 3, 11, 0)])
def test_words_at_dens_two_powers_compare_unlifted(k, a, b, t, monkeypatch):
    """S^a against (T^t S) S^(b-1) of su2:k, products of a chain without
    digits over dens 2^a' and 2^b': the cofactors 1 and 2^|a'-b'| keep the
    comparison at the width of the words, where x * dy and y * dx needed a
    wider one and so a `lift` of each.  The verdict is the CycloNum one."""
    pm = builtin_model("su2", k).packed
    xs = [pm.syllable(0)] * a
    ys = [pm.syllable(t)] + [pm.syllable(0)] * (b - 1)
    x, y = functools.reduce(matmul, xs), functools.reduce(matmul, ys)
    for got, factors in ((x, xs), (y, ys)):
        want = functools.reduce(_entry_product, factors)
        assert (got.packing, got.bits, got.den, got.rows) == (
            want.packing, want.bits, want.den, want.rows)
    assert x._digits is None and y._digits is None
    dens = (x.den, y.den)
    assert x.den != y.den and all(d & (d - 1) == 0 for d in dens)
    width = x.packing.width
    assert y.packing.width == width <= max(
        x.bits + y.den.bit_length(), y.bits + x.den.bit_length())
    lifts = []
    monkeypatch.setattr(PackedMatrix, "lift", lambda m, w=0: lifts.append(m))
    got = list(x.mismatches(y))
    assert lifts == []
    monkeypatch.undo()
    want = [(i, j) for i, (rx, ry) in enumerate(zip(cyclo_matrix(x),
                                                    cyclo_matrix(y)))
            for j, (u, v) in enumerate(zip(rx, ry)) if u != v]
    assert got == want and bool(want) == bool(t)


def test_scalar_phase_alone_keeps_the_phases():
    """`Phased.t` with a scalar phase alone takes no lcm with M: an int or
    a scalar whose den divides the matrix's keeps the den and both phase
    tuples, and any other scalar grows the den by its own den alone.  Each
    result is the general T^0 e(scalar) X T^0, entry by entry."""
    md = builtin_model("su2", 2)
    pm = md.packed
    base = Phased(pm, pm.s).t(Fraction(1, 5), Fraction(2, 5))
    assert base.den == 5 * pm.order
    for scalar, den in ((3, base.den), (Fraction(2, 5), base.den),
                        (Fraction(1, 7), 7 * base.den)):
        got = base.t(scalar=scalar)
        assert got.den == den
        if den == base.den:
            assert got.a is base.a and got.b is base.b
        f = got.den // base.den
        general = Phased(pm, pm.s, got.den, tuple(f * p for p in base.a),
                         tuple(f * q for q in base.b),
                         f * base.c + int(scalar * got.den))
        assert got == general
        assert not got == general.t(scalar=Fraction(1, 2))
    kept = Phased(pm, pm.s).t(scalar=2)
    assert kept.den == 1 and type(kept.c) is int
