"""Cyclic orbifold sectors: entries, twisted T values, dimensions,
multiplicities, and the cross-consistency reports."""

import math
from fractions import Fraction

import pytest

import modata.orbifold as orb
from modata.cyclo import (
    CycloNum,
    make,
    root_of_unity_exp,
    sqrt_nonneg_rational,
)
from modata.errors import OutOfScopeError
from modata.lambdamat import lambda_hat
from modata.modular_data import builtin_model
from modata.orbifold import (
    OrbLabel,
    OrbSlice,
    charge_invariants,
    consistency_report,
    multiplicity_report,
    multiplicity_trace_oracle,
    mu_scaling_check,
    orb_qdim,
    orb_s_block,
    orb_s_entry,
    orb_t_entry,
    soliton_multiplicity,
)

from word_oracle import cyclo_matrix


@pytest.fixture(scope="module")
def su2_1():
    return builtin_model("su2", 1)


@pytest.fixture(scope="module")
def su2_2():
    return builtin_model("su2", 2)


@pytest.fixture(scope="module")
def slice2(su2_1):
    return OrbSlice(su2_1, 2)


@pytest.mark.parametrize("spec", ["su2:1", "su2:2", "su2:3",
                                  "cyclic_odd:5"])
@pytest.mark.parametrize("n", [2, 3, 5, 15])
def test_t_roots_match_per_label_formula(spec, n):
    """The parent's T^(1/N) entries times one phase, against each label's
    T_lam^(1/N) * exp(2*pi*i*(c - c0)(N - 1/N)/24), orders included."""
    name, param = spec.split(":")
    md = builtin_model(name, int(param))
    sl = OrbSlice(md, n)
    want = [root_of_unity_exp((md.delta[lam] - md.c0 / 24) / n)
            * root_of_unity_exp((md.c - md.c0) * (n - Fraction(1, n)) / 24)
            for lam in range(md.rank)]
    assert [x.to_obj() for x in sl.t_roots] == [x.to_obj() for x in want]
    assert sl.t_roots is sl.t_roots
    assert not hasattr(sl, "_t_roots")


class TestSectors:
    def test_order_bound(self, su2_1):
        with pytest.raises(ValueError):
            OrbSlice(su2_1, 1)


class TestSEntries:
    def test_order_two_formula(self, su2_1, slice2):
        hat_half = lambda_hat(su2_1, Fraction(1, 2))
        for k1 in (0, 1):
            for k2 in (0, 1):
                for lam in (0, 1):
                    for mu in (0, 1):
                        val = orb_s_entry(
                            slice2, OrbLabel(lam, 1, k1), OrbLabel(mu, 1, k2)
                        )
                        expected = (
                            hat_half[lam][mu]
                            * Fraction(1, 2) * (-1) ** (k1 + k2)
                        )
                        assert val == expected

    def test_untwisted_column(self, su2_1):
        sl = OrbSlice(su2_1, 3)
        for charge in range(3):
            val = orb_s_entry(sl, OrbLabel(0, 1, 0), OrbLabel(1, 0, charge))
            expected = make(3, [(-charge, 1)]) * su2_1.s[0][1] * Fraction(1, 3)
            assert val == expected

    def test_symmetry(self, su2_2):
        sl = OrbSlice(su2_2, 5)
        a = OrbLabel(1, 2, 1)
        b = OrbLabel(2, 3, 4)
        assert orb_s_entry(sl, a, b) == orb_s_entry(sl, b, a)

    def test_out_of_scope(self, su2_1):
        sl = OrbSlice(su2_1, 15)
        with pytest.raises(OutOfScopeError):
            orb_s_entry(sl, OrbLabel(0, 3, 0), OrbLabel(0, 5, 0))
        with pytest.raises(OutOfScopeError):
            orb_s_entry(sl, OrbLabel(0, 0, 0), OrbLabel(0, 3, 0))

    def test_even_order_uses_configured_automorphism(self):
        md = builtin_model("su2", 1, tau2=1)
        sl = OrbSlice(md, 2)
        val = orb_s_entry(sl, OrbLabel(0, 1, 0), OrbLabel(0, 0, 0))
        # row label is moved by the order-two automorphism before lookup
        assert val == md.s[1][0] * Fraction(1, 2)


#: Parents for the block oracle: (name, param, tau2); tau2 != 0 moves the
#: rows of the tb = 0 blocks at even N.
ORACLE_PARENTS = [("su2", 1, 0), ("su2", 2, 0), ("su2", 4, 0),
                  ("cyclic_odd", 3, 0), ("trivial", None, 0),
                  ("su2", 1, 1), ("su2", 2, 2), ("su2", 4, 4)]
ORACLE_ORDERS = [2, 3, 4, 5, 6, 7, 9, 15]


def oracle_slices():
    for name, param, tau2 in ORACLE_PARENTS:
        md = builtin_model(name, param, tau2=tau2)
        for order in ORACLE_ORDERS:
            if tau2 == 0 or order % 2 == 0:
                yield pytest.param(md, order,
                                   id=f"{md.name}-tau2={tau2}-N={order}")


def block_entries(block):
    """The entries e(a_i + b_j + c) X_ij of a `Phased` block, as CycloNum
    values."""
    return [[x * root_of_unity_exp(Fraction(a + b + block.c, block.den))
             for b, x in zip(block.b, row)]
            for a, row in zip(block.a, cyclo_matrix(block.x))]


def three_root_t_entry(slice_, a):
    """A twisted T entry as three roots of unity, as `orb_t_entry` formed
    it before it kept the label's part per slice."""
    md, n = slice_.parent, slice_.n
    return (root_of_unity_exp((md.delta[a.base] - md.c0 / 24) / n)
            * make(n, [(a.twist * a.charge, 1)])
            * root_of_unity_exp((md.c - md.c0) * (n - Fraction(1, n)) / 24))


@pytest.mark.parametrize("md,order", oracle_slices())
def test_blocks_and_t_values_match_the_entry_oracle(md, order):
    sl = OrbSlice(md, order)
    units = [t for t in range(1, order) if math.gcd(t, order) == 1]
    for ta in units:
        for tb in [*units, 0]:
            for j1, j2 in ((0, 0), (1, 0), (0, 1), (2, 3)):
                block = block_entries(orb_s_block(sl, ta, tb, j1, j2))
                for lam in range(md.rank):
                    for mu in range(md.rank):
                        assert block[lam][mu] == orb_s_entry(
                            sl, OrbLabel(lam, ta, j1), OrbLabel(mu, tb, j2)
                        ), (ta, tb, j1, j2, lam, mu)
        for lam in range(md.rank):
            for ch in range(order):
                a = OrbLabel(lam, ta, ch)
                assert orb_t_entry(sl, a) == three_root_t_entry(sl, a), a


def test_block_needs_a_unit_row_twist(su2_1):
    sl = OrbSlice(su2_1, 4)
    with pytest.raises(OutOfScopeError):
        orb_s_block(sl, 2, 1, 0, 0)


class TestTEntries:
    def test_vanishing_charge_value(self, slice2):
        # weight zero, matching charges: exp(2 pi i (0 - 1/24) / 2)
        assert orb_t_entry(slice2, OrbLabel(0, 1, 0)) == root_of_unity_exp(
            Fraction(-1, 48)
        )

    def test_charge_shift(self, su2_2):
        sl = OrbSlice(su2_2, 4)
        zeta = make(4, [(1, 1)])
        for lam in range(3):
            base = orb_t_entry(sl, OrbLabel(lam, 1, 0))
            assert orb_t_entry(sl, OrbLabel(lam, 1, 1)) == base * zeta

    def test_trivial_parent_formula(self):
        md = builtin_model("trivial")
        sl = OrbSlice(md, 2)
        expected = root_of_unity_exp(Fraction(-0 - 0, 48)) * root_of_unity_exp(
            (md.c - md.c0) * (2 - Fraction(1, 2)) / 24
        )
        assert orb_t_entry(sl, OrbLabel(0, 1, 0)) == expected

    def test_non_unit_twist_raises(self, su2_1):
        sl = OrbSlice(su2_1, 4)
        with pytest.raises(OutOfScopeError):
            orb_t_entry(sl, OrbLabel(0, 2, 0))


class TestDimensions:
    def test_twisted_order_two(self, slice2):
        assert orb_qdim(slice2, OrbLabel(0, 1, 0)) == sqrt_nonneg_rational(2)
        assert orb_qdim(slice2, OrbLabel(1, 1, 1)) == sqrt_nonneg_rational(2)

    def test_untwisted(self, su2_2):
        sl = OrbSlice(su2_2, 3)
        for lam in range(3):
            assert orb_qdim(sl, OrbLabel(lam, 0, 2)) == su2_2.qdim(lam)

    def test_trivial_parent(self):
        md = builtin_model("trivial")
        sl = OrbSlice(md, 2)
        assert orb_qdim(sl, OrbLabel(0, 1, 1)) == 1

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_mu_scaling(self, su2_1, order):
        sl = OrbSlice(su2_1, order)
        assert all(r.passed for r in mu_scaling_check(sl))

    @pytest.mark.parametrize("order", [2, 3, 5, 9, 15])
    def test_mu_scaling_squares_one_dimension_per_label(
            self, monkeypatch, su2_2, order):
        # against the sum over every unit-twist label, which the check
        # made before: rank * phi(N) * N dimensions
        sl = OrbSlice(su2_2, order)
        units = [OrbLabel(lam, tw, ch) for lam in range(su2_2.rank)
                 for tw in range(order) if math.gcd(tw, order) == 1
                 for ch in range(order)]
        full = sum((orb_qdim(sl, a) ** 2 for a in units), CycloNum.zero())
        calls = []
        monkeypatch.setattr(orb, "orb_qdim",
                            lambda sl, a: calls.append(a) or orb_qdim(sl, a))
        records = mu_scaling_check(sl)
        assert [r.passed for r in records] == [True, True]
        assert len(calls) == su2_2.rank
        mu_n = su2_2.s00_inv() ** (2 * order)
        assert full == mu_n * (len(units) // su2_2.rank)


class TestMultiplicities:
    def test_pair_is_kronecker(self, su2_2):
        for lam in range(3):
            for mu in range(3):
                expected = 1 if su2_2.conj[lam] == mu else 0
                assert soliton_multiplicity(su2_2, (lam, mu)) == expected

    def test_triple_matches_trace_oracle(self, su2_1):
        # genus one: the formula counts fusion-matrix traces, e.g. 2 here
        assert soliton_multiplicity(su2_1, (1, 1, 0)) == 2
        assert multiplicity_trace_oracle(su2_1, (1, 1, 0)) == 2

    @pytest.mark.parametrize("level", [1, 2])
    def test_reports(self, level):
        md = builtin_model("su2", level)
        assert all(r.passed for r in multiplicity_report(md))

    def test_too_few_labels(self, su2_1):
        with pytest.raises(ValueError):
            soliton_multiplicity(su2_1, (0,))

    def test_handle_built_once_per_report(self, monkeypatch):
        md = builtin_model("su2", 4)
        real_matmul = orb._int_matmul
        real_oracle = orb.multiplicity_trace_oracle
        products = []
        values = []

        def counted(a, b):
            products.append(1)
            return real_matmul(a, b)

        def recorded(md_, labels, handle=None):
            value = real_oracle(md_, labels, handle)
            values.append((labels, value))
            return value

        monkeypatch.setattr(orb, "_int_matmul", counted)
        monkeypatch.setattr(orb, "multiplicity_trace_oracle", recorded)
        assert all(r.passed for r in orb.multiplicity_report(md))
        # 125 triples (2 products each), 625 quadruples (3 products and
        # 2 handle insertions each) and one handle of 5 products
        assert len(products) == 125 * 2 + 625 * 5 + 5
        monkeypatch.undo()
        assert len(values) == 25 + 125 + 625
        for labels, value in values:
            assert value == oracle_rebuilding_handle(md, labels), labels


def oracle_rebuilding_handle(md, labels):
    """The fusion-trace oracle with the handle operator rebuilt for every
    label tuple, as it was before the report shared one."""
    n = len(labels)
    genus = (n - 1) * (n - 2) // 2
    if n == 2:
        return 1 if md.conj[labels[0]] == labels[1] else 0
    prod = md.fusion[labels[0]]
    for lam in labels[1:]:
        prod = orb._int_matmul(prod, md.fusion[lam])
    handle = None
    for nu in range(md.rank):
        h = orb._int_matmul(md.fusion[nu], md.fusion[md.conj[nu]])
        handle = h if handle is None else [
            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(handle, h)
        ]
    for _ in range(genus - 1):
        prod = orb._int_matmul(prod, handle)
    return sum(prod[i][i] for i in range(md.rank))


class TestConsistencyReports:
    @pytest.mark.parametrize("order", [2, 3])
    def test_su2_1_small_orders(self, su2_1, order):
        sl = OrbSlice(su2_1, order)
        assert all(r.passed for r in consistency_report(sl))
        assert all(r.passed for r in charge_invariants(sl))

    def test_su2_1_order_fifteen(self, su2_1):
        sl = OrbSlice(su2_1, 15)
        recs = consistency_report(sl)
        assert all(r.passed for r in recs)
        fact = [r for r in recs if r.check == "odd_coprime_factorization"]
        assert fact and fact[0].params == {"k": 3, "n": 5}

    def test_trivial_any_order(self):
        md = builtin_model("trivial")
        for order in (2, 3, 6):
            sl = OrbSlice(md, order)
            assert all(r.passed for r in consistency_report(sl))

    def test_convention_note_present(self, slice2):
        recs = consistency_report(slice2)
        assert recs[0].check == "conventions"
        assert "c0" in recs[0].witness

    def test_orbifold_phase_scales(self, su2_1):
        sl = OrbSlice(su2_1, 15)
        assert sl.c0 == 15 * su2_1.c0
