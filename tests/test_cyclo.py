"""Exact cyclotomic kernel: construction, field laws, Galois structure,
square roots, coercion, and the independent reduction oracle."""

import copy
import functools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modata.cyclo as cyclo
from modata.cyclo import (
    CycloNum,
    MAX_EMBED_DIGITS,
    coerce,
    conjugate,
    cyclo_from_obj,
    cyclotomic_polynomial,
    embed_complex,
    euler_phi,
    field_arithmetic,
    galois_apply,
    make,
    minimal_order,
    root_of_unity_exp,
    sqrt_nonneg_rational,
)
from modata.errors import (
    ModelFormatError,
    NegativeRadicandError,
    NotCoprimeError,
    NotEmbeddableError,
)


def zeta(m, e=1):
    return make(m, [(e, 1)])


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


class TestMake:
    def test_square_of_i(self):
        assert make(4, [(2, 1)]) == -1

    def test_cubic_sum_vanishes(self):
        assert make(3, [(0, 1), (1, 1), (2, 1)]).is_zero()

    def test_exponent_reduction(self):
        # zeta_8^7 = -zeta_8^3 under x^4 + 1
        x = make(8, [(1, 1), (7, 1)])
        assert x.coeffs == (0, 1, 0, -1)

    def test_exponents_mod_order(self):
        assert make(5, [(7, 1)]) == zeta(5, 2)

    def test_coefficient_strings(self):
        assert make(4, [(1, "3/2")]) == zeta(4) * Fraction(3, 2)


class TestFieldOps:
    def test_i_squared(self):
        assert field_arithmetic("mul", zeta(4), zeta(4)) == -1

    def test_sqrt2_squared(self):
        x = make(8, [(1, 1), (7, 1)])
        assert field_arithmetic("mul", x, x) == 2

    def test_inverse_of_root(self):
        assert field_arithmetic("div", CycloNum.one(3), zeta(3)) == zeta(3, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            field_arithmetic("div", CycloNum.one(3), CycloNum.zero(3))

    def test_mixed_order_arithmetic(self):
        assert zeta(4) * zeta(3) == zeta(12, 3) * zeta(12, 4)

    def test_integer_powers(self):
        x = zeta(5) + 1
        assert x ** 3 == x * x * x
        assert x ** -2 == (x * x).inverse()


class TestConjugate:
    def test_root(self):
        assert conjugate(zeta(5)) == zeta(5, 4)

    def test_rational_fixed(self):
        assert conjugate(CycloNum.rational(Fraction(3, 7))) == Fraction(3, 7)

    def test_real_element_fixed(self):
        x = make(8, [(1, 1), (7, 1)])
        assert conjugate(x) == x

    def test_involution(self):
        x = make(12, [(1, 2), (5, -3), (0, 1)])
        assert conjugate(conjugate(x)) == x


class TestGalois:
    def test_definition(self):
        assert galois_apply(5, zeta(8)) == zeta(8, 5)

    def test_sqrt2_sign_flip(self):
        x = make(8, [(1, 1), (7, 1)])
        assert galois_apply(5, x) == -x

    def test_rational_fixed(self):
        q = CycloNum.rational(Fraction(-7, 3), order=12)
        for l in (5, 7, 11):
            assert galois_apply(l, q) == q

    def test_noncoprime_rejected(self):
        with pytest.raises(NotCoprimeError):
            galois_apply(2, zeta(8))


class TestCoerce:
    def test_up(self):
        assert coerce(zeta(4), 8) == zeta(8, 2)

    def test_round_trip(self):
        x = make(12, [(0, 1), (1, -2), (3, "1/3")])
        assert coerce(coerce(x, 24), 12) == x

    def test_descent_of_sqrt2(self):
        sqrt2 = make(8, [(1, 1), (7, 1)])
        in24 = coerce(sqrt2, 24)
        assert coerce(in24, 8) == sqrt2

    def test_not_embeddable(self):
        with pytest.raises(NotEmbeddableError):
            coerce(zeta(8), 12)


def _descend_by_solve(x, sub_order):
    """x at the divisor `sub_order` of its order, by Gaussian elimination
    over Q for its coordinates over the power basis of the subfield: the
    oracle of `CycloNum._descend`, which the tests reach through `coerce`."""
    big, small = euler_phi(x.order), euler_phi(sub_order)
    step = x.order // sub_order
    # column j is zeta^(step*j): the previous column times zeta^step
    cols = [[1] + [0] * (big - 1)]
    for _ in range(small - 1):
        cols.append(cyclo._context(x.order).reduce([0] * step + cols[-1]))
    rows = [[Fraction(col[i]) for col in cols] + [Fraction(x.nums[i], x.den)]
            for i in range(big)]
    pivots = []
    for c in range(small):
        pivot = next((i for i in range(len(pivots), big) if rows[i][c]), None)
        if pivot is None:
            continue
        r = len(pivots)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(big):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    if any(row[small] for row in rows[len(pivots):]):
        raise NotEmbeddableError(
            f"element of Q(zeta_{x.order}) is not in Q(zeta_{sub_order})")
    sol = [Fraction(0)] * small
    for i, c in enumerate(pivots):
        sol[c] = rows[i][small]
    den = math.lcm(*(q.denominator for q in sol))
    return CycloNum(sub_order, den, [int(q * den) for q in sol])


def _descent_outcome(descend, x, sub):
    try:
        y = descend(x, sub)
    except NotEmbeddableError as exc:
        return str(exc)
    return y.order, y.den, y.nums


def _outside(big, sub):
    """The digits j < phi(big) with zeta_big^j outside Q(zeta_sub): those
    whose root's order big/gcd(j, big) does not divide lcm(2, sub)."""
    return [j for j in range(euler_phi(big)) if j * math.lcm(2, sub) % big]


@pytest.mark.parametrize("big,sub", [
    (16, 8), (24, 12), (72, 36), (360, 180),
    (24, 8), (30, 2), (60, 4), (105, 1), (360, 8), (420, 35)])
def test_descent_digit_read_matches_the_solve(big, sub):
    # the digit read (every prime of big/sub divides sub) and the steps
    # that drop a prime from the order against the solve, on subfield
    # elements at the big order, alone and with a root outside the
    # subfield added, and on random elements of the big field
    rnd = random.Random(big * sub)

    def element(order):
        return CycloNum(order, rnd.randint(1, 30), [
            rnd.randint(-9, 9) for _ in range(euler_phi(order))])

    cases = []
    for _ in range(12):
        x = coerce(element(sub), big)
        off = list(x.nums)
        off[rnd.choice(_outside(big, sub))] += 1
        cases += [x, CycloNum(big, x.den, off), element(big)]
    expected = [_descent_outcome(_descend_by_solve, x, sub) for x in cases]
    assert [_descent_outcome(coerce, x, sub)
            for x in cases] == expected
    assert sum(isinstance(e, str) for e in expected) == 24


def test_descent_outside_the_subfield_is_none():
    # `_descend` answers None, and only `coerce` raises; the minimal order
    # stops on the None of each prime it cannot drop
    assert CycloNum._descend(zeta(8), 4) is None
    assert CycloNum._descend(coerce(zeta(8), 24), 12) is None
    assert CycloNum._descend(make(24, [(3, 1)]), 8) == zeta(8)
    assert make(72, [(9, 1)]).minimal_order() == 8


@st.composite
def _descents(draw, max_order=420):
    """(x, sub): x at an order up to `max_order` and sub a divisor of it,
    x in Q(zeta_sub), with a root outside it added, or drawn from the
    whole field."""
    big = draw(st.integers(min_value=1, max_value=max_order))
    sub = draw(st.sampled_from(divisors(big)))
    kind = draw(st.sampled_from(["inside", "perturbed", "random"]))
    order = sub if kind != "random" else big
    digits = st.integers(min_value=-9, max_value=9)
    x = coerce(CycloNum(order, draw(st.integers(min_value=1, max_value=30)),
                        draw(st.lists(digits, min_size=euler_phi(order),
                                      max_size=euler_phi(order)))), big)
    outside = _outside(big, sub)
    if kind == "perturbed" and outside:
        off = list(x.nums)
        off[draw(st.sampled_from(outside))] += 1
        x = CycloNum(big, x.den, off)
    return x, sub


@settings(max_examples=120, deadline=None)
@given(_descents())
def test_descent_matches_the_solve_up_to_order_420(case):
    x, sub = case
    assert (_descent_outcome(coerce, x, sub)
            == _descent_outcome(_descend_by_solve, x, sub))


def _fixed_field_minimal_order(x):
    """The least divisor n of the order whose field holds x, by the
    fixed-field test: x is invariant under every zeta -> zeta^j with
    j = 1 (mod n), gcd(j, M) = 1."""
    m = x.order
    return next(n for n in divisors(m) if all(
        x.galois(j) == x for j in range(1 + n, m, n) if math.gcd(j, m) == 1))


@settings(max_examples=120, deadline=None)
@given(_descents(180))
def test_minimal_order_is_the_fixed_field_scan(case):
    x, _ = case
    for y in (x, x + x.conjugate()):
        assert minimal_order(y) == (
            1 if y.is_rational() else _fixed_field_minimal_order(y))


class TestMinimalOrder:
    def test_rational(self):
        assert minimal_order(CycloNum.rational(Fraction(1, 2))) == 1

    def test_sqrt2_inside_24(self):
        assert minimal_order(coerce(make(8, [(1, 1), (7, 1)]), 24)) == 8

    def test_sixth_root_drops_to_three(self):
        # zeta_6 = -zeta_3^2 already lives in the cubic field
        assert minimal_order(zeta(6)) == 3

    def test_invariant_under_coercion(self):
        x = make(8, [(1, 1), (2, 1)])
        assert minimal_order(coerce(x, 40)) == minimal_order(x)


class TestSqrt:
    def test_zero(self):
        assert sqrt_nonneg_rational(0).is_zero()

    def test_perfect_square(self):
        assert sqrt_nonneg_rational(Fraction(9, 4)) == Fraction(3, 2)

    def test_gauss_sum_five(self):
        s5 = sqrt_nonneg_rational(5)
        assert s5 == make(5, [(1, 1), (2, -1), (3, -1), (4, 1)])
        assert s5 * s5 == 5

    def test_negative_rejected(self):
        with pytest.raises(NegativeRadicandError):
            sqrt_nonneg_rational(-1)

    @pytest.mark.parametrize("q", [2, 3, 5, 6, 7, 10, 15,
                                   Fraction(2, 3), Fraction(49, 8)])
    def test_square_and_positive_embedding(self, q):
        x = sqrt_nonneg_rational(q)
        assert x * x == Fraction(q)
        z = embed_complex(x, 10)
        assert z.real > 0 and abs(z.imag) < 1e-10

    def test_prime_root_is_positive(self):
        # sqrt_nonneg_rational takes the sign of each prime's root as given
        primes = [p for p in range(2, 400)
                  if all(p % d for d in range(2, math.isqrt(p) + 1))]
        for p in primes:
            x = cyclo._sqrt_prime(p)
            assert x * x == p, p
            assert x.embed().real > 0, p


class TestRootOfUnity:
    def test_trivial(self):
        assert root_of_unity_exp(0) == 1

    def test_half(self):
        assert root_of_unity_exp(Fraction(1, 2)) == -1

    def test_inverse_pair(self):
        a = root_of_unity_exp(Fraction(-1, 24))
        b = root_of_unity_exp(Fraction(1, 24))
        assert a * b == 1


class TestEmbed:
    def test_i(self):
        assert embed_complex(zeta(4), 10) == complex(0, 1)

    def test_sqrt2(self):
        z = embed_complex(make(8, [(1, 1), (7, 1)]), 10)
        assert z == complex(1.4142135624, 0)

    def test_zero(self):
        assert embed_complex(CycloNum.zero(), 10) == 0

    def test_digit_bound(self):
        with pytest.raises(ValueError):
            embed_complex(zeta(4), MAX_EMBED_DIGITS + 1)


class TestHashing:
    def test_equal_values_hash_equal_across_orders(self):
        a = zeta(4)
        b = coerce(a, 8)
        c = coerce(a, 24)
        assert a == b == c
        assert len({a, b, c}) == 1

    def test_rational_matches_fraction_hash(self):
        x = CycloNum.rational(Fraction(3, 7), order=12)
        assert hash(x) == hash(Fraction(3, 7))


class TestInverseMemo:
    @pytest.mark.parametrize("x", [
        zeta(4), make(12, [(0, "1/2"), (2, -3), (3, "5/7")]),
        sqrt_nonneg_rational(Fraction(2, 5)), CycloNum.rational(-3, 8),
    ], ids=["i", "order-12", "sqrt-2/5", "rational"])
    def test_memo_is_invisible(self, x):
        fresh = CycloNum(x.order, x.den, x.nums)
        before = (hash(x), x.to_obj(), repr(x))
        inv = x.inverse()
        assert x.inverse() is inv
        assert inv == CycloNum(x.order, x.den, x.nums).inverse()
        assert x * inv == 1
        assert x == fresh and fresh == x
        assert (hash(x), x.to_obj(), repr(x)) == before
        assert hash(x) == hash(fresh)
        assert 1 / x == inv and x / x == 1

    def test_zero_still_raises(self):
        z = CycloNum.zero(4)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                z.inverse()


#: Coefficients of a model file: JSON integers, strings of the form p or
#: p/q with signs, leading zeros, non-reduced fractions and zero
#: denominators, and strings that only Fraction reads or refuses (spaces,
#: a plus, decimals, exponents, underscores, non-ASCII digits).
_coefficients = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.builds(
        lambda sign, zeros, p, q: sign + zeros + p + q,
        st.sampled_from(["", "-", "+", "--"]),
        st.sampled_from(["", "0", "00"]),
        st.sampled_from(["0", "1", "7", "12", "360", "99999999999999999999"]),
        st.sampled_from(["", "/1", "/4", "/6", "/0", "/00", "/05", "/-3",
                         "/+2", "/", "/1/2"])),
    st.sampled_from(["1/0", "-0/5", "0/7", "-0", "6/4", "-12/18", " 3",
                     "3 ", "1.5", "-2.5e3", "1e-2", "1_000", "1/2_0",
                     "\u0661\u0662", "\u0661/\u0663", "", "-", "/",
                     "x", "nan", "inf", "0x10", "1 /2"]),
    st.text(alphabet="0123456789-+/. _e", max_size=6),
)


class TestSerialization:
    def test_round_trip(self):
        x = make(12, [(0, "1/2"), (2, -3), (3, "5/7")])
        obj = x.to_obj()
        assert obj["order"] == 12 and len(obj["coeffs"]) == euler_phi(12)
        assert cyclo_from_obj(obj) == x

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            cyclo_from_obj({"order": 8, "coeffs": ["1", "0"]})

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_coefficients, min_size=2, max_size=2))
    def test_coefficients_read_as_fraction_reads_them(self, coeffs):
        # Each JSON integer or string reads as Fraction reads it: the same
        # value, or the message of the first error Fraction raises.
        try:
            values = [Fraction(c) for c in coeffs]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            want = f"malformed cyclotomic number: {type(exc).__name__}: {exc}"
            with pytest.raises(ModelFormatError) as got:
                cyclo_from_obj({"order": 4, "coeffs": coeffs})
            assert str(got.value) == want
            return
        x = cyclo_from_obj({"order": 4, "coeffs": coeffs})
        assert x.coeffs == tuple(values)
        assert x == make(4, enumerate(values))

    @pytest.mark.parametrize("c", [0.1, 1.0, True, False, float("nan")],
                             ids=["0.1", "1.0", "true", "false", "nan"])
    def test_inexact_coefficient_refused(self, c):
        with pytest.raises(ModelFormatError, match="not an integer or a "
                           "rational string"):
            cyclo_from_obj({"order": 4, "coeffs": [c, "1"]})

    @pytest.mark.parametrize("x", [
        CycloNum.one(), make(12, [(0, "1/2"), (2, -3), (3, "5/7")]),
        sqrt_nonneg_rational(Fraction(2, 5)), zeta(12, 5), zeta(3600, 7),
    ], ids=["one", "order-12", "sqrt-2/5", "root-12", "root-3600"])
    def test_pickle_and_deepcopy(self, x):
        x.inverse(), hash(x)
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(twin) is type(x) and twin.exponent == x.exponent
            assert _stored(twin) == _stored(x) and twin == x
            assert hash(twin) == hash(x) and twin * x.inverse() == 1


# -- property tests ------------------------------------------------------

_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 24])
_coeff = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def _elements(order):
    phi = euler_phi(order)
    return st.lists(_coeff, min_size=phi, max_size=phi).map(
        lambda cs: make(order, list(enumerate(cs)))
    )


@st.composite
def _same_order_triple(draw):
    order = draw(_orders)
    els = _elements(order)
    return order, draw(els), draw(els), draw(els)


@settings(max_examples=60, deadline=None)
@given(_same_order_triple())
def test_ring_laws(data):
    _, a, b, c = data
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(_same_order_triple())
def test_canonical_equality(data):
    _, a, b, _ = data
    # equal as field elements iff identical stored data
    assert (a == b) == ((a - b).is_zero())
    assert (a == b) == (a.den == b.den and a.nums == b.nums)


@settings(max_examples=60, deadline=None)
@given(_same_order_triple(), st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60))
def test_galois_multiplicative(data, l, m):
    order, a, b, _ = data
    if math.gcd(l, order) != 1 or math.gcd(m, order) != 1:
        return
    assert galois_apply(l, a * b) == galois_apply(l, a) * galois_apply(l, b)
    assert galois_apply(l, galois_apply(m, a)) == galois_apply(l * m, a)


@settings(max_examples=40, deadline=None)
@given(_same_order_triple(), st.sampled_from([2, 3, 4, 5]))
def test_coerce_round_trip_property(data, k):
    order, a, _, _ = data
    up = coerce(a, k * order)
    assert coerce(up, order) == a
    assert minimal_order(up) == minimal_order(a)


# -- the norm inverse -----------------------------------------------------
# The inverse of a nonzero element is unique and the stored form is unique
# at an order, so order and x * y == 1 pin down every stored coefficient.

_inverse_orders = st.sampled_from(
    [3, 5, 6, 8, 9, 10, 12, 16, 24, 25, 27, 30, 40, 60, 72, 120])


@st.composite
def _dense_elements(draw):
    """An element with every power-basis coefficient nonzero, over a
    denominator above 1, in Q(zeta_sub) for a divisor sub of the order and
    stored at the order."""
    order = draw(_inverse_orders)
    sub = draw(st.sampled_from(
        [d for d in divisors(order) if euler_phi(d) > 1]))
    nums = draw(st.lists(
        st.integers(min_value=-20, max_value=20).filter(bool),
        min_size=euler_phi(sub), max_size=euler_phi(sub)))
    den = draw(st.integers(min_value=2, max_value=60))
    x = coerce(make(sub, [(j, Fraction(n, den)) for j, n in enumerate(nums)]),
               order)
    assume(x.den > 1)
    return x


@settings(max_examples=80, deadline=None)
@given(_dense_elements())
def test_inverse_is_the_unique_inverse(x):
    y = CycloNum(x.order, x.den, x.nums).inverse()
    assert y.order == x.order
    assert x * y == 1


def test_inverse_at_degree_96():
    rnd = random.Random(96)
    x = make(360, [(j, Fraction(rnd.randint(-9, 9), 7)) for j in range(96)])
    assert euler_phi(x.order) == 96 and x.den > 1
    y = x.inverse()
    assert y.order == 360
    assert x * y == 1


def _full_product_inverse(x):
    """1/x as the product of sigma_l(x) over every unit l = 2..M-1, over
    the norm that product times x is: the inverse before repeated
    conjugates were skipped."""
    m = x.order
    cofactor = CycloNum.one(m)
    for l in range(2, m):
        if math.gcd(l, m) == 1:
            cofactor = cofactor * x.galois(l)
    return cofactor * (1 / (cofactor * x).as_fraction())


def _plain(x):
    """x without its memo or its root tag, so inverse() takes the norm."""
    return CycloNum(x.order, x.den, x.nums)


@settings(max_examples=80, deadline=None)
@given(_dense_elements())
def test_inverse_over_distinct_conjugates_is_the_full_product(x):
    want = _stored(_full_product_inverse(_plain(x)))
    assert _stored(_plain(x).inverse()) == want
    real = x + x.conjugate()
    if real:
        assert _stored(_plain(real).inverse()) == _stored(
            _full_product_inverse(_plain(real)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=120), st.integers(min_value=0))
def test_untagged_root_inverse_is_the_full_product(order, e):
    x = _plain(zeta(order, e))
    assert x.exponent is None
    assert _stored(x.inverse()) == _stored(_full_product_inverse(_plain(x)))
    assert _stored(x.inverse()) == _stored(_oracle_root(order, -e))


@pytest.mark.parametrize("order,distinct", [(8, 4), (120, 4), (3600, 4)])
def test_subfield_element_multiplies_its_distinct_conjugates(
        monkeypatch, order, distinct):
    # 1 + 2 zeta_8 has 4 conjugates, each repeated phi(order)/4 times
    x = _plain(coerce(make(8, [(0, 1), (1, 2)]), order))
    if order <= 120:
        want = _stored(_full_product_inverse(_plain(x)))
    products = []
    real_mul = CycloNum.__mul__
    monkeypatch.setattr(
        CycloNum, "__mul__",
        lambda a, b: products.append(b) or real_mul(a, b))
    inv = x.inverse()
    monkeypatch.undo()
    # distinct - 1 conjugates into the cofactor, then x and 1/N(x)
    assert len(products) == distinct + 1
    assert inv.order == order and x * inv == 1
    if order <= 120:
        assert _stored(inv) == want


def test_subfield_element_at_order_3600_takes_few_galois_images(
        monkeypatch):
    # the conjugates are taken at the minimal order 8 of 1 + 2 zeta_8,
    # not over the 959 units above 1 mod 3600
    x = _plain(coerce(make(8, [(0, 1), (1, 2)]), 3600))
    calls = []
    galois = CycloNum.galois
    monkeypatch.setattr(
        CycloNum, "galois", lambda y, l: calls.append(l) or galois(y, l))
    inv = x.inverse()
    monkeypatch.undo()
    assert calls == [3, 5, 7]
    assert inv.order == 3600 and x * inv == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=360), st.integers(min_value=0))
def test_root_of_unity_inverse_is_conjugate(order, e):
    x = zeta(order, e)
    y = x.inverse()
    assert y.order == x.order
    assert y == x.conjugate() and x * y == 1


# -- independent reduction oracle ----------------------------------------


def _oracle_cyclotomic(m):
    """Moebius-formula cyclotomic polynomial: prod (x^d - 1)^mu(m/d)."""

    def mobius(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    def times_binom(p, d):
        # p * (x^d - 1)
        out = [0] * d + list(p)
        for i, c in enumerate(p):
            out[i] -= c
        return out

    def over_binom(p, d):
        # p / (x^d - 1), which must be exact
        q = []
        for i in range(len(p) - d):
            q.append((q[i - d] if i >= d else 0) - p[i])
        assert times_binom(q, d) == list(p)
        return q

    divs = [d for d in range(1, m + 1) if m % d == 0]
    poly = [1]
    for d in divs:
        if mobius(m // d) == 1:
            poly = times_binom(poly, d)
    for d in divs:
        if mobius(m // d) == -1:
            poly = over_binom(poly, d)
    return poly


def _oracle_reduce(coeffs, poly):
    """Remainder of the polynomial `coeffs` (constant first) on long division
    by the monic `poly`."""
    phi = len(poly) - 1
    terms = [(j, c) for j, c in enumerate(poly) if c]
    rem = list(coeffs) + [0] * (phi - len(coeffs))
    for i in range(len(rem) - 1, phi - 1, -1):
        f = rem[i]
        if f:
            for j, c in terms:
                rem[i - phi + j] -= f * c
    return rem[:phi]


def _oracle_checks(m, rnd, dense):
    """Products, Galois images, coercion up and back down, and make() with
    exponents >= phi at order m, each against plain integer polynomial
    arithmetic and long division by the oracle polynomial."""
    phi = euler_phi(m)
    oracle_poly = _oracle_cyclotomic(m)
    assert list(cyclotomic_polynomial(m)) == oracle_poly
    ca = [rnd.randint(-9, 9) for _ in range(phi)]
    if not dense:
        ca = [c if rnd.random() < 8 / phi else 0 for c in ca]
    cb = [rnd.randint(-9, 9) for _ in range(phi)]
    a = make(m, list(enumerate(ca)))
    b = make(m, list(enumerate(cb)))
    prod = [0] * (2 * phi - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                prod[i + j] += x * y
    assert a * b == CycloNum(m, 1, _oracle_reduce(prod, oracle_poly))

    l = rnd.choice([l for l in range(1, m) if math.gcd(l, m) == 1])
    spread = [0] * m
    for j, x in enumerate(cb):
        spread[l * j % m] += x
    assert b.galois(l) == CycloNum(m, 1, _oracle_reduce(spread, oracle_poly))

    # up from n = m / (largest prime of m), then back down
    p = max(d for d in range(2, m + 1)
            if m % d == 0 and all(d % q for q in range(2, d)))
    n = m // p
    cx = [rnd.randint(-9, 9) for _ in range(euler_phi(n))]
    x = CycloNum(n, 1, cx)
    spread = [0] * m
    for j, c in enumerate(cx):
        spread[(m // n) * j] += c
    up = coerce(x, m)
    assert up == CycloNum(m, 1, _oracle_reduce(spread, oracle_poly))
    assert coerce(up, n) == x

    terms = [(rnd.randrange(phi, 2 * m), Fraction(rnd.randint(-9, 9),
                                                    rnd.randint(1, 6)))
             for _ in range(6)]
    den = math.lcm(*(c.denominator for _, c in terms))
    spread = [0] * m
    for e, c in terms:
        spread[e % m] += int(c * den)
    rem = _oracle_reduce(spread, oracle_poly)
    assert make(m, terms).coeffs == tuple(Fraction(r, den) for r in rem)


def test_reduction_against_polynomial_division_oracle():
    """Criterion-9 style check at module level: products, Galois images,
    coercions and make() agree with plain integer polynomial arithmetic
    followed by long division, at random small orders and at orders with
    several primes, prime powers and rad(m) != m."""
    rnd = random.Random(20240811)
    for _ in range(120):
        _oracle_checks(rnd.randint(2, 60), rnd, dense=True)
    for m in (105, 210, 360, 1024, 1155, 2310, 3600):
        _oracle_checks(m, rnd, dense=False)


def test_cyclotomic_polynomial_against_sympy():
    sympy = pytest.importorskip("sympy")
    for m in [*range(1, 401), 2310, 3600, 4096, 9240, 17160]:
        coeffs = sympy.cyclotomic_poly(m, polys=True).all_coeffs()
        assert cyclotomic_polynomial(m) == tuple(reversed(coeffs))


# -- products by roots of unity and by rationals ---------------------------
# A root of unity made by make(m, [(e, 1)]) carries its exponent, and a
# product with it, or with a rational at order 1, moves or scales the other
# factor's coefficients instead of multiplying polynomials.  Each fast path
# is compared with the schoolbook product below: integer polynomial
# arithmetic at the lcm of the orders and long division by the
# Moebius-formula Phi_m, using none of the kernel's placement or reduction.


@functools.lru_cache(maxsize=None)
def _oracle_poly(m):
    return tuple(_oracle_cyclotomic(m))


def _schoolbook(a, b):
    m = math.lcm(a.order, b.order)
    pa = {j * (m // a.order): c for j, c in enumerate(a.nums) if c}
    pb = {j * (m // b.order): c for j, c in enumerate(b.nums) if c}
    prod = [0] * (2 * m)
    for i, x in pa.items():
        for j, y in pb.items():
            prod[i + j] += x * y
    return CycloNum(m, a.den * b.den, _oracle_reduce(prod, _oracle_poly(m)))


def _oracle_root(m, e):
    spread = [0] * m
    spread[e % m] = 1
    return CycloNum(m, 1, _oracle_reduce(spread, _oracle_poly(m)))


def _stored(x):
    # a tagged root must also equal the generic value of its exponent
    if x.exponent is not None:
        assert _stored(_oracle_root(x.order, x.exponent)) == (
            x.order, x.den, x.nums)
    return x.order, x.den, x.nums


def _assert_products(x, y):
    want = _stored(_schoolbook(x, y))
    assert _stored(x * y) == want
    assert _stored(y * x) == want


_root_orders = st.sampled_from(
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24, 30, 36, 45, 60])


@st.composite
def _roots(draw):
    m = draw(_root_orders)
    e = draw(st.one_of(
        st.integers(min_value=-2 * m, max_value=3 * m),
        st.sampled_from([m // 2, euler_phi(m), m - 1])))
    r = make(m, [(e, 1)])
    assert r.exponent == e % m
    return r


@st.composite
def _fractional_elements(draw):
    """Any element over a denominator that is not 1, at any order."""
    m = draw(_root_orders)
    nums = draw(st.lists(st.integers(min_value=-30, max_value=30),
                         min_size=euler_phi(m), max_size=euler_phi(m)))
    den = draw(st.integers(min_value=2, max_value=40))
    return make(m, [(j, Fraction(n, den)) for j, n in enumerate(nums)])


@settings(max_examples=150, deadline=None)
@given(_fractional_elements(), _roots())
def test_root_times_element_is_the_schoolbook_product(x, r):
    _assert_products(x, r)


@settings(max_examples=60, deadline=None)
@given(_roots(), _roots())
def test_root_times_root_is_the_schoolbook_product(a, b):
    _assert_products(a, b)
    assert (a * b).exponent is not None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 4), (5, 8), (7, 9), (9, 20), (15, 16),
                        (4, 45), (1, 7), (16, 15)]),
       st.data())
def test_root_at_a_coprime_order(orders, data):
    m, n = orders
    nums = data.draw(st.lists(st.integers(min_value=-9, max_value=9),
                              min_size=euler_phi(m), max_size=euler_phi(m)))
    x = make(m, [(j, Fraction(c, 6)) for j, c in enumerate(nums)])
    r = make(n, [(data.draw(st.integers(0, 3 * n)), 1)])
    _assert_products(x, r)


@pytest.mark.parametrize("m", [3, 7, 9, 15, 45, 105, 4, 8, 12, 16, 36, 60,
                               120, 360])
def test_root_exponents_at_odd_and_even_orders(m):
    rnd = random.Random(m)
    phi = euler_phi(m)
    x = make(m, [(j, Fraction(rnd.randint(-9, 9), 7)) for j in range(phi)])
    zero = CycloNum.zero(m)
    for e in {0, 1, phi - 1, phi, phi + 1, m // 2, m - 1, m, 2 * m + 3}:
        r = make(m, [(e, 1)])
        assert r.exponent == e % m
        _assert_products(x, r)
        _assert_products(zero, r)
        _assert_products(CycloNum.zero(), r)
        _assert_products(r, r)


@pytest.mark.parametrize("m", [1, 2, 7, 12, 60, 360])
def test_roots_kept_per_context(m):
    # one instance of zeta_m^e per e mod m, whatever builds it
    ctx = cyclo._context(m)
    for e in (0, 1, m // 2, m - 1, 3 * m + 2, -m - 1):
        r = cyclo.root(m, e)
        assert r is cyclo.root(m, e + m) is cyclo.root(m, e - 5 * m)
        assert r is make(m, [(e, 1)]) is ctx.roots[e % m]
        assert r.inverse() is cyclo.root(m, -e)
        for l in (l for l in (1, 5, 7, m - 1) if math.gcd(l, m) == 1):
            assert r.galois(l) is cyclo.root(m, e * l)
        for f in (1, m - 1, m + 3):
            assert r * cyclo.root(m, f) is cyclo.root(m, e + f)
    assert len(ctx.roots) <= m


@settings(max_examples=60, deadline=None)
@given(_roots(), _roots(), _roots())
def test_shared_roots_multiply_as_the_schoolbook_product(a, b, c):
    # a product that lands on a kept root returns it, and the kept roots
    # still equal the schoolbook products
    ab = a * b
    _assert_products(ab, c)
    assert ab is cyclo.root(ab.order, ab.exponent)
    assert (ab * c) is (a * (b * c))
    for r in (a, b, c, ab):
        assert len(cyclo._context(r.order).roots) <= r.order


@pytest.mark.parametrize("q", [0, -3, Fraction(-5, 6), Fraction(7, 4)],
                         ids=["zero", "negative", "neg-fraction", "fraction"])
@pytest.mark.parametrize("m", [1, 2, 9, 12, 35])
def test_rational_at_order_one_scales(q, m):
    rnd = random.Random(m)
    x = make(m, [(j, Fraction(rnd.randint(-9, 9), 5))
                 for j in range(euler_phi(m))])
    rational = CycloNum.rational(q)
    want = _stored(_schoolbook(x, rational))
    for got in (x * rational, rational * x, x * Fraction(q), Fraction(q) * x):
        assert _stored(got) == want
    _assert_products(rational, make(m, [(m - 1, 1)]))
    if q:
        assert _stored(x / Fraction(q)) == _stored(
            _schoolbook(x, CycloNum.rational(1 / Fraction(q))))


@pytest.mark.parametrize("m", [2, 9, 12, 35])
def test_rational_above_order_one_takes_the_generic_product(m, monkeypatch):
    import modata.cyclo as cyclo

    def no_fast_path(*args):
        raise AssertionError("fast path taken")

    monkeypatch.setattr(cyclo, "_scale", no_fast_path)
    monkeypatch.setattr(cyclo, "_shift", no_fast_path)
    rnd = random.Random(m)
    x = make(m, [(j, Fraction(rnd.randint(-6, 6), 7))
                 for j in range(euler_phi(m))])
    for q in (0, -3, Fraction(-5, 6)):
        _assert_products(x, CycloNum.rational(q, order=m))
        _assert_products(x, CycloNum.rational(q, order=3 * m))


@settings(max_examples=80, deadline=None)
@given(_roots(), st.integers(min_value=1, max_value=400))
def test_galois_conjugate_and_inverse_of_a_root(r, l):
    m = r.order
    e = r.exponent
    if math.gcd(l, m) == 1:
        assert _stored(r.galois(l)) == _stored(_oracle_root(m, e * l))
    assert _stored(r.conjugate()) == _stored(_oracle_root(m, -e))
    inv = r.inverse()
    assert _stored(inv) == _stored(_oracle_root(m, -e))
    assert _stored(r * inv) == _stored(CycloNum.one(m))


def test_root_at_order_3600_inverts_by_its_exponent(monkeypatch):
    x = make(3600, [(7, 1)])
    conj = x.conjugate()
    calls = []
    galois = CycloNum.galois

    def counted(self, l):
        calls.append(l)
        return galois(self, l)

    monkeypatch.setattr(CycloNum, "galois", counted)
    inv = x.inverse()
    assert calls == []
    assert _stored(inv) == _stored(conj) == _stored(_oracle_root(3600, -7))


def test_tagged_values_are_invisible():
    for tagged in (make(12, [(5, 1)]), root_of_unity_exp(Fraction(5, 12))):
        plain = CycloNum(12, 1, _oracle_root(12, 5).nums)
        assert tagged.exponent == 5 and plain.exponent is None
        assert tagged == plain and plain == tagged
        assert hash(tagged) == hash(plain)
        assert tagged.to_obj() == plain.to_obj()
        assert repr(tagged) == repr(plain)
