"""Modular datum validation, fusion, phase class, conductor, builtins."""

import copy
import functools
import itertools
import json
import math
import pickle
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modata import matrixops as mx
from modata import modular_data
from modata.cyclo import (
    CycloNum,
    embed_complex,
    make,
    root_of_unity_exp,
    sqrt_nonneg_rational,
)
from modata.errors import (
    AxiomViolationError,
    ConductorMismatchError,
    NonIntegralFusionError,
    UnsupportedModelError,
)
from modata.modular_data import (
    ModularData,
    builtin_model,
    eigenvalues,
    from_obj,
    loads,
    packed_s,
    phase_sum,
    verlinde_sum,
)
from modata.galois import congruence_suite
from modata.orbifold import soliton_multiplicity
from modata.packed import PackedMatrix, Scaling, integers, pack
from modata.reporting import CheckRecord, first_failure


@pytest.fixture(scope="module")
def su2_1():
    return builtin_model("su2", 1)


@pytest.fixture(scope="module")
def su2_2():
    return builtin_model("su2", 2)


@pytest.fixture(scope="module")
def trivial():
    return builtin_model("trivial")


class TestValidate:
    def test_su2_1_passes(self, su2_1):
        assert all(r.passed for r in su2_1.validation_report)

    def test_one_label_datum(self, trivial):
        assert trivial.rank == 1
        assert trivial.conj == (0,)

    def test_sign_flip_rejected(self, su2_1):
        s = [list(row) for row in su2_1.s]
        s[1][1] = -s[1][1]
        with pytest.raises(AxiomViolationError) as exc:
            ModularData(su2_1.labels, s, su2_1.delta, su2_1.c, su2_1.c0)
        failed = {r.check for r in exc.value.report if not r.passed}
        assert failed  # names the violated identity
        assert failed <= {
            "s_unitary", "s_square_is_conjugation", "sts_twist_relation",
            "fusion_integral_nonnegative",
        }

    def test_empty_rejected(self):
        with pytest.raises(AxiomViolationError):
            ModularData([], [], [], 0, 0)

    def test_wrong_c0_class_rejected(self, su2_1):
        with pytest.raises(AxiomViolationError) as exc:
            ModularData(su2_1.labels, su2_1.s, su2_1.delta, su2_1.c,
                        Fraction(3))
        assert any(
            not r.passed and r.check in ("sts_twist_relation",
                                         "central_charge_residue")
            for r in exc.value.report
        )


class TestTPower:
    def test_zero_is_identity(self, su2_1):
        assert mx.is_identity(mx.diagonal(su2_1.t_entries(0)))

    def test_su2_1_entries(self, su2_1):
        t = su2_1.t_entries(1)
        assert t[0] == make(24, [(-1, 1)])
        assert t[1] == make(24, [(5, 1)])

    def test_group_law(self, su2_2):
        r, s = Fraction(1, 3), Fraction(2, 5)
        lhs = [a * b for a, b in zip(su2_2.t_entries(r), su2_2.t_entries(s))]
        assert list(su2_2.t_entries(r + s)) == lhs

    def test_inverse_is_conjugate(self, su2_2):
        assert list(su2_2.t_entries(-1)) == [
            x.conjugate() for x in su2_2.t_entries(1)
        ]


class TestVerlinde:
    def test_vacuum_column(self, su2_2):
        for mu in range(3):
            for nu in range(3):
                assert su2_2.verlinde(0, mu, nu) == (1 if mu == nu else 0)

    def test_su2_1_fusion(self, su2_1):
        assert su2_1.verlinde(1, 1, 0) == 1
        assert su2_1.verlinde(1, 1, 1) == 0

    def test_su2_2_middle(self, su2_2):
        assert su2_2.verlinde(1, 1, 0) == 1
        assert su2_2.verlinde(1, 1, 1) == 0
        assert su2_2.verlinde(1, 1, 2) == 1

    def test_non_integer_raises(self, su2_1):
        s = [list(row) for row in su2_1.s]
        s[1][1] = s[1][1] * Fraction(1, 3)  # corrupt
        with pytest.raises(NonIntegralFusionError):
            verlinde_sum(mx.mat(s), 1, 1, 0)

    def test_associativity(self):
        for k in (1, 2, 3, 4):
            md = builtin_model("su2", k)
            r = md.rank
            for lam in range(r):
                for mu in range(r):
                    for nu in range(r):
                        for rho in range(r):
                            lhs = sum(
                                md.verlinde(lam, mu, x) * md.verlinde(x, nu, rho)
                                for x in range(r)
                            )
                            rhs = sum(
                                md.verlinde(mu, nu, y) * md.verlinde(lam, y, rho)
                                for y in range(r)
                            )
                            assert lhs == rhs


def _permuted(md, seed):
    """The same datum with its non-vacuum labels shuffled, through a file."""
    perm = [0] + random.Random(seed).sample(range(1, md.rank), md.rank - 1)
    obj = md.to_obj()
    obj["labels"] = [obj["labels"][p] for p in perm]
    obj["S"] = [[obj["S"][p][q] for q in perm] for p in perm]
    obj["delta"] = [obj["delta"][p] for p in perm]
    return perm, loads(json.dumps(obj))


def _verlinde_value(s, lam, mu, nu):
    """The Verlinde sum term by term, as a chain of products and sums."""
    acc = None
    for d in range(len(s)):
        term = s[lam][d] * s[mu][d] * s[nu][d].conjugate() * s[0][d].inverse()
        acc = term if acc is None else acc + term
    return acc


def _full_fusion_table(s):
    def coefficient(lam, mu, nu):
        value = _verlinde_value(s, lam, mu, nu)
        assert value.is_nonneg_integer()
        return value.nums[0]

    r = len(s)
    return tuple(
        tuple(tuple(coefficient(lam, mu, nu) for nu in range(r))
              for mu in range(r))
        for lam in range(r)
    )


def _exact(x):
    return x.order, x.den, x.nums


def _corrupted(md):
    """S of `md` with S[1][2] = S[2][1] divided by 3, as a new matrix."""
    s = [list(row) for row in md.s]
    s[2][1] = s[1][2] = s[2][1] * Fraction(1, 3)
    return mx.mat(s)


# every model of the benchmark's catalog workload
_CATALOG_MODELS = [
    *(("su2", k) for k in (1, 2, 3, 4, 5, 6, 7, 8, 10)),
    *(("cyclic_odd", n) for n in (3, 5, 7, 9, 11)),
]


class TestFusionOrbits:
    """The table built as r matrix products N_lam = S diag(S[lam]/S[0])
    S^dagger against every one of the rank^3 term-by-term sums."""

    @pytest.mark.parametrize("name,param", [
        *(("su2", k) for k in range(1, 9)),
        *(("cyclic_odd", n) for n in (3, 5, 7, 9, 11)),
    ])
    def test_orbit_table_equals_full_table(self, name, param):
        md = builtin_model(name, param)
        assert md.fusion == _full_fusion_table(md.s)
        perm, moved = _permuted(md, param)
        assert moved.fusion == _full_fusion_table(moved.s)
        r = md.rank
        assert all(
            moved.fusion[a][b][c] == md.fusion[perm[a]][perm[b]][perm[c]]
            for a in range(r) for b in range(r) for c in range(r)
        )
        if name == "cyclic_odd":
            assert moved.conj != tuple(range(r))

    @pytest.mark.parametrize("name,param", [
        ("su2", 10), ("cyclic_odd", 9),
    ])
    def test_one_product_per_label(self, monkeypatch, name, param):
        exact, products, reads, scales = [], [], [], []
        real_mul, real_matmul = mx.mat_mul, PackedMatrix.__matmul__
        real_read, real_scale = PackedMatrix.nonneg_integers, PackedMatrix.scale

        def matmul(a, b):
            products.append((a, b))
            return real_matmul(a, b)

        def scale(self, rows=None, cols=None):
            scales.append((self, rows, cols))
            return real_scale(self, rows, cols)

        def read(self):
            reads.append(self)
            return real_read(self)

        def unused(*args):
            raise AssertionError("no eigenvalue is a CycloNum product")

        monkeypatch.setattr(
            mx, "mat_mul", lambda a, b: exact.append(b) or real_mul(a, b))
        monkeypatch.setattr(PackedMatrix, "__matmul__", matmul)
        monkeypatch.setattr(PackedMatrix, "nonneg_integers", read)
        monkeypatch.setattr(PackedMatrix, "scale", scale)
        monkeypatch.setattr(modular_data, "eigenvalues", unused)
        md = builtin_model(name, param)
        r = md.rank
        # S^2 is the one CycloNum product.  Over the field of the S
        # entries, s_unitary takes S S^dagger; over the model's field,
        # S T S takes one product and two scalings, T^-1 S T^-1 one
        # scaling.  Label lam scales the packed vacuum inverses by row lam
        # of S, the eigenvalues, scales rows lam.. of S by them and
        # multiplies those by the same S^dagger, read once; then
        # fusion_diagonalized_by_s takes rows lam.. of N_lam S.
        assert len(exact) == 1
        assert len(products) == 2 * r + 2 and len(reads) == r
        assert len(scales) == 2 * r + 2
        s_dag = products[0][1]
        assert s_dag == pack(mx.dagger(md.s), _s_order(md.s))
        assert products[1][1] is md.packed.s
        fusion, diagonal = products[2:r + 2], products[r + 2:]
        assert [len(a.rows) for a, _ in fusion] == list(range(r, 0, -1))
        assert [len(m.rows) for m in reads] == list(range(r, 0, -1))
        assert all(b is s_dag for _, b in fusion)
        assert [len(a.rows) for a, _ in diagonal] == list(range(r, 0, -1))
        assert all(b is diagonal[0][1] for _, b in diagonal)
        assert diagonal[0][1] == pack(md.s, _s_order(md.s))
        inv = scales[2][0]
        assert inv == pack([[x.inverse() for x in md.s[0]]], _s_order(md.s))
        for lam in range(r):
            ev, sd = scales[2 + 2 * lam], scales[3 + 2 * lam]
            assert ev[0] is inv and ev[1] is None
            assert ev[2].digits == diagonal[0][1].digits()[lam]
            assert len(sd[0].rows) == r - lam and sd[1] is None

    @pytest.mark.parametrize("name,param", _CATALOG_MODELS)
    def test_verlinde_sum_equals_term_sum(self, monkeypatch, name, param):
        md = builtin_model(name, param)
        models = (md, loads(md.dumps()))  # mixed orders, one order

        def unused(*args):
            raise AssertionError("a validated S builds no Verlinde table")

        # each validated S answers from the table validation found
        monkeypatch.setattr(modular_data, "fusion_rows", unused)
        monkeypatch.setattr(modular_data, "packed_s", unused)
        for m in models:
            for lam, mu, nu in itertools.product(range(m.rank), repeat=3):
                value = _verlinde_value(m.s, lam, mu, nu)
                assert value.is_nonneg_integer()
                assert verlinde_sum(m.s, lam, mu, nu) == value.nums[0]

    def test_non_integral_sum_reports_term_sum(self, su2_2):
        s = _corrupted(su2_2)
        failed = 0
        for lam, mu, nu in itertools.product(range(3), repeat=3):
            value = _verlinde_value(s, lam, mu, nu)
            if value.is_nonneg_integer():
                assert verlinde_sum(s, lam, mu, nu) == value.nums[0]
                continue
            failed += 1
            with pytest.raises(NonIntegralFusionError) as exc:
                verlinde_sum(s, lam, mu, nu)
            assert f"is {value!r}, not" in str(exc.value)
        assert failed

    @pytest.mark.parametrize("name,param", [
        ("su2", 2), ("su2", 4), ("su2", 7), ("cyclic_odd", 3),
        ("cyclic_odd", 9),
    ])
    @pytest.mark.parametrize("rejected", [0, 1, 2])
    def test_first_failing_triple(self, monkeypatch, name, param, rejected):
        # Declaring one integer value non-integral in the half-row read
        # (rows mu >= lam of N_lam) fails the table at the first triple, in
        # (lam, mu, nu) order, that holds it: the half rows of the labels
        # before it are all read first.
        table = builtin_model(name, param).fusion
        r = len(table)
        first = next(
            ((lam, mu, nu)
             for lam, mu, nu in itertools.product(range(r), repeat=3)
             if table[lam][mu][nu] == rejected),
            None,
        )
        real = PackedMatrix.nonneg_integers
        read = []

        def half_read(self):
            read.append(len(self.rows))
            return tuple(tuple(None if n == rejected else n for n in row)
                         for row in real(self))

        monkeypatch.setattr(PackedMatrix, "nonneg_integers", half_read)
        if first is None:
            builtin_model(name, param)
            assert read == list(range(r, 0, -1))
            return
        with pytest.raises(AxiomViolationError) as exc:
            builtin_model(name, param)
        assert first[1] >= first[0]
        assert read == list(range(r, r - first[0] - 1, -1))
        record = exc.value.report[-1]
        assert record.check == "fusion_integral_nonnegative"
        assert record.witness == "N({},{};{}) = CycloNum({})".format(
            *first, rejected)

    def test_witness_at_order_of_nonzero_terms(self):
        # `dot` skips zero terms, so a zero entry kept at order 8 no longer
        # lifts the printed value i from Q(zeta_4) to Q(zeta_8).
        s = mx.mat([[CycloNum.one(), CycloNum.one()],
                    [make(4, [(1, 1)]), CycloNum.zero(8)]])
        assert repr(_verlinde_value(s, 1, 0, 0)) == "CycloNum((1)*z8^2)"
        with pytest.raises(NonIntegralFusionError,
                           match=r"is CycloNum\(\(1\)\*z4\^1\), not"):
            verlinde_sum(s, 1, 0, 0)

    def test_eigenvalues_are_ratios(self, su2_2):
        for lam in range(3):
            assert eigenvalues(su2_2.s, lam) == tuple(
                su2_2.s[lam][d] / su2_2.s[0][d] for d in range(3))


def _full_fusion_matrix(s, ps, s_dag, lam):
    """N_lam as one full packed product: S with its columns scaled by the
    CycloNum eigenvalues, packed, times S^dagger, read by nonneg_integers;
    the table the half-row tables replaced."""
    order = ps.packing.order
    ev = pack([eigenvalues(s, lam)], order)
    sd = ps.scale(cols=Scaling(order, ev.digits()[0], ev.den))
    return sd, (sd @ s_dag).nonneg_integers()


def _full_fusion_checks(s, ps, s_dag):
    """The fusion checks on full tables: every label's full product, the
    scan over all (lam, mu, nu), and N_lam S against the whole scaled S."""
    suite = "axioms"
    fusion, scaled = [], []
    witness = ""
    for lam in range(len(s)):
        sd, table = _full_fusion_matrix(s, ps, s_dag, lam)
        bad = next(((mu, nu) for mu, row in enumerate(table)
                    for nu, n in enumerate(row) if n is None), None)
        if bad is not None:
            witness = "N({},{};{}) = {!r}".format(
                lam, *bad, modular_data.verlinde_value(s, lam, *bad))
            break
        fusion.append(table)
        scaled.append(sd)
    records = [CheckRecord(suite, "fusion_integral_nonnegative", not witness,
                           witness=witness)]
    if witness:
        return records, None
    records.append(first_failure(
        suite, "fusion_diagonalized_by_s",
        (f"fusion matrix {lam}" for lam in range(len(s))
         if integers(ps.packing.order, fusion[lam]) @ ps != scaled[lam]),
    ))
    return records, tuple(fusion)


def _scaled_pair(md, i, j, q):
    """S of `md` with S[i][j] = S[j][i] times q, as a new matrix."""
    s = [list(row) for row in md.s]
    s[i][j] = s[j][i] = s[i][j] * q
    return mx.mat(s)


class TestHalfTables:
    """The tables over lam <= mu against the full per-label products, on
    every catalog model, its file, and corrupted S: tables, records and
    witness strings."""

    @pytest.mark.parametrize("name,param", _CATALOG_MODELS)
    def test_matches_full_products(self, name, param):
        md = builtin_model(name, param)
        r = md.rank
        cases = [md.s, loads(md.dumps()).s]
        cases += [_scaled_pair(md, i, j, q)
                  for i, j in ((1, 1), (1, r - 1), (r - 1, r - 1))
                  for q in (Fraction(1, 3), Fraction(-1), Fraction(2))]
        failed = 0
        for s in cases:
            ps, s_dag = packed_s(s)
            got = modular_data._fusion_checks(s, ps, s_dag)
            assert got == _full_fusion_checks(s, ps, s_dag)
            failed += not all(rec.passed for rec in got[0])
        assert modular_data._fusion_checks(
            md.s, *packed_s(md.s))[1] == md.fusion
        assert failed

    def test_diagonalization_failure_matches_full_products(self, monkeypatch):
        # Row mu = 1 of N_1 doubled in the second read, label 1's: the
        # table stays integral, but N_1 S differs from the scaled S in its
        # row 1 alone, the diagonal row lam = mu, which only the check of
        # label 1 compares; both sides name label 1 first.
        md = builtin_model("su2", 3)
        r = md.rank
        ps, s_dag = packed_s(md.s)
        real = PackedMatrix.nonneg_integers
        reads = []

        def read(self):
            reads.append(self)
            table = list(real(self))
            if len(reads) == 2:
                mu = len(table) - (r - 1)  # rows 1.. or all rows
                table[mu] = tuple(2 * n for n in table[mu])
            return tuple(table)

        monkeypatch.setattr(PackedMatrix, "nonneg_integers", read)
        got = modular_data._fusion_checks(md.s, ps, s_dag)[0]
        reads.clear()
        assert got == _full_fusion_checks(md.s, ps, s_dag)[0]
        assert [rec.passed for rec in got] == [True, False]
        assert got[1].witness == "fusion matrix 1"


class TestBuiltinEntries:
    """Builtin S entries built once per value, against one build per
    entry: the same values, and one shared object per value class."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_su2_entries(self, k):
        q = k + 2
        norm = sqrt_nonneg_rational(Fraction(2, q))
        s = modular_data._build_su2(k)[1]
        want = [[norm * modular_data._sin_exact((a + 1) * (b + 1), q)
                 for b in range(q - 1)] for a in range(q - 1)]
        assert [[_exact(x) for x in row] for row in s] == \
            [[_exact(x) for x in row] for row in want]
        keys = {(a + 1) * (b + 1) % (2 * q)
                for a in range(q - 1) for b in range(q - 1)}
        assert len({id(x) for row in s for x in row}) == len(keys)

    @pytest.mark.parametrize("n", range(3, 24, 2))
    def test_cyclic_odd_entries(self, n):
        norm = sqrt_nonneg_rational(Fraction(1, n))
        s = modular_data._build_cyclic_odd(n)[1]
        want = [[norm * make(n, [(2 * j * k, 1)]) for k in range(n)]
                for j in range(n)]
        assert [[_exact(x) for x in row] for row in s] == \
            [[_exact(x) for x in row] for row in want]
        assert len({id(x) for row in s for x in row}) == n

    def test_shared_value_shares_its_inverse(self):
        md = builtin_model("su2", 4)
        a, b = md.s[0][1], md.s[1][0]
        assert a is b and a.inverse() is b.inverse()

    @pytest.mark.parametrize("k,values", [(4, 2), (10, 6)])
    def test_one_inverse_per_vacuum_row_value(self, k, values, monkeypatch):
        # S[0][d] = S[0][k-d]: a build and a load of su2:k each take one
        # norm inverse, and so one minimal-order descent, per distinct
        # irrational value of the vacuum row, in distinct objects or not
        md = builtin_model("su2", k)
        assert len({(x.den, x.nums) for x in md.s[0]
                    if not x.is_rational()}) == values
        calls = []
        descend = CycloNum._at_minimal_order

        def counting(x):
            calls.append(x)
            return descend(x)

        monkeypatch.setattr(CycloNum, "_at_minimal_order", counting)
        builtin_model("su2", k)
        assert len(calls) == values
        del calls[:]
        loaded = loads(md.dumps())
        assert len(calls) == values
        assert len({id(x) for x in loaded.s[0]}) == k + 1


class TestFusionTable:
    """`verlinde_sum` reads the table a validated S carries, and builds N_lam
    for any other S."""

    def test_list_input_is_not_stored(self, monkeypatch, su2_2):
        built = []
        real = modular_data.fusion_rows
        monkeypatch.setattr(
            modular_data, "fusion_rows",
            lambda inv, ps, s_dag, lam, rows: built.append(
                (lam, list(rows))) or real(inv, ps, s_dag, lam, rows))
        rows = [list(row) for row in su2_2.s]
        triples = list(itertools.product(range(3), repeat=3))
        for lam, mu, nu in triples:
            assert verlinde_sum(rows, lam, mu, nu) == su2_2.fusion[lam][mu][nu]
        # each call builds the one row of N_lam it reads
        assert built == [(lam, [mu]) for lam, mu, _ in triples]

    def test_copy_is_computed_fresh(self, su2_2):
        copy = mx.mat(su2_2.s)
        assert copy == su2_2.s and not hasattr(copy, "fusion")
        for lam, mu, nu in itertools.product(range(3), repeat=3):
            assert verlinde_sum(copy, lam, mu, nu) == \
                verlinde_sum(su2_2.s, lam, mu, nu) == su2_2.fusion[lam][mu][nu]

    def test_corrupted_after_valid_raises(self, su2_2):
        for lam, mu, nu in itertools.product(range(3), repeat=3):
            verlinde_sum(su2_2.s, lam, mu, nu)
        bad = _corrupted(su2_2)
        value = modular_data.verlinde_value(bad, 1, 1, 2)
        assert not value.is_nonneg_integer()
        with pytest.raises(NonIntegralFusionError) as exc:
            verlinde_sum(bad, 1, 1, 2)
        assert str(exc.value) == (
            f"fusion (1,1;2) is {value!r}, not a nonnegative integer")

    def test_concurrent_readers(self):
        models = [builtin_model("su2", k) for k in range(1, 6)] + [
            builtin_model("cyclic_odd", n) for n in (3, 5, 7, 9)]
        start = threading.Barrier(4)
        wrong = []

        def read(seed):
            order = random.Random(seed).sample(models, len(models))
            start.wait()
            for md in order * 2:
                for lam, mu, nu in itertools.product(range(md.rank),
                                                     repeat=3):
                    if verlinde_sum(md.s, lam, mu, nu) != \
                            md.fusion[lam][mu][nu]:
                        wrong.append((md.name, lam, mu, nu))

        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        assert not wrong


_SUM_MODELS = [
    *(("su2", k) for k in range(1, 9)),
    *(("cyclic_odd", n) for n in (3, 5, 7, 9, 11)),
]


class TestCharacterSums:
    """Each one-line character sum against the term-by-term chain it
    replaced, in order, denominator and numerators."""

    @pytest.mark.parametrize("name,param", _SUM_MODELS)
    def test_mu_index_and_phase_sum(self, name, param):
        md = builtin_model(name, param)
        for m in (md, loads(md.dumps())):  # mixed orders, one order
            mu = aa = None
            for lam in range(m.rank):
                d = m.s[0][lam] / m.s[0][0]
                d2 = d * d
                term = d2 * root_of_unity_exp(m.delta[lam]).conjugate()
                mu = d2 if mu is None else mu + d2
                aa = term if aa is None else aa + term
            assert _exact(m.mu_index()) == _exact(mu)
            assert _exact(phase_sum(m.s, m.delta)) == _exact(aa)

    @pytest.mark.parametrize("name,param", [
        *(("su2", k) for k in range(1, 5)),
        ("cyclic_odd", 3),
    ])
    def test_soliton_multiplicity(self, monkeypatch, name, param):
        md = builtin_model(name, param)
        seen = []
        real = CycloNum.is_nonneg_integer
        monkeypatch.setattr(CycloNum, "is_nonneg_integer",
                            lambda self: seen.append(self) or real(self))
        for n in (2, 3, 4):
            inv_power = n + (n - 1) * (n - 2) - 2
            for labels in itertools.product(range(md.rank), repeat=n):
                acc = None
                for d in range(md.rank):
                    term = md.s0_inv(d) ** inv_power
                    for lam in labels:
                        term = term * md.s[lam][d]
                    acc = term if acc is None else acc + term
                assert soliton_multiplicity(md, labels) == acc.nums[0]
                assert _exact(seen[-1]) == _exact(acc)


def _s_order(s):
    """The field of the S entries, where validation packs S and S^dagger
    for s_unitary and the fusion checks."""
    return math.lcm(*(x.order for row in s for x in row))


def _cyclonum_unitary_and_twist(s, delta, c0):
    """s_unitary and sts_twist_relation as the CycloNum products they
    replaced: S S^dagger, and S T S against T^-1 S T^-1 with T a CycloNum
    diagonal applied by scaled rows and columns."""
    t = [root_of_unity_exp(d - c0 / 24) for d in delta]
    t_inv = [x.conjugate() for x in t]
    found = {
        "s_unitary": mx.first_mismatch(mx.mat_mul(s, mx.dagger(s)),
                                       mx.identity(len(s))),
        "sts_twist_relation": mx.first_mismatch(
            mx.mat_mul(mx.scale_cols(s, t), s),
            mx.scale_cols(mx.scale_rows(t_inv, s), t_inv)),
    }
    return {check: CheckRecord("axioms", check, mm is None,
                               witness="" if mm is None else f"entry {mm[:2]}")
            for check, mm in found.items()}


def _cyclonum_fusion_checks(s):
    """The CycloNum fusion loop the packed one replaced: one scale_cols and
    one mat_mul per label, each entry tested with is_nonneg_integer, then
    N_lam S against S diag(eigenvalues) as CycloNum products."""
    suite = "axioms"
    rank = len(s)
    s_dag = mx.dagger(s)
    ratios = [eigenvalues(s, lam) for lam in range(rank)]
    fusion = []
    witness = ""
    for lam in range(rank):
        n_lam = mx.mat_mul(mx.scale_cols(s, ratios[lam]), s_dag)
        witness = next(
            (f"N({lam},{mu};{nu}) = {x!r}"
             for mu, row in enumerate(n_lam) for nu, x in enumerate(row)
             if not x.is_nonneg_integer()),
            "",
        )
        if witness:
            break
        fusion.append(tuple(tuple(x.nums[0] for x in row) for row in n_lam))
    records = [CheckRecord(suite, "fusion_integral_nonnegative", not witness,
                           witness=witness)]
    if witness:
        return records, None
    records.append(first_failure(
        suite, "fusion_diagonalized_by_s",
        (f"fusion matrix {lam}" for lam in range(rank)
         if mx.first_mismatch(
             mx.mat_mul(mx.mat([[CycloNum.rational(n) for n in row]
                                for row in fusion[lam]]), s),
             mx.scale_cols(s, ratios[lam]),
         )),
    ))
    return records, tuple(fusion)


def _cyclonum_c0_consistency(md):
    """c0_consistency with the fused phase of every (lam, mu) a CycloNum
    sum over the nonzero coefficients of the fusion table."""
    suite = "c0"
    omega = [root_of_unity_exp(d) for d in md.delta]
    aa = phase_sum(md.s, md.delta)
    records = [
        CheckRecord(suite, "phase_norm", aa * aa.conjugate() == md.mu_index(),
                    witness=""),
        CheckRecord(suite, "phase_matches_c0",
                    aa * root_of_unity_exp(md.c0 / 8) == md.s00_inv(),
                    params={"c0": md.c0}),
    ]

    def fused_phase(lam, mu):
        return sum(
            (n * omega[lam] * omega[mu] / omega[nu] * md.qdim(nu)
             for nu, n in enumerate(md.fusion[lam][mu]) if n),
            CycloNum.zero(),
        )

    records.append(first_failure(
        suite, "fusion_phase_matrix",
        (f"entry ({lam},{mu})"
         for lam in range(md.rank) for mu in range(md.rank)
         if fused_phase(lam, mu) * md.s[0][0] != md.s[lam][mu]),
    ))
    return records


@functools.cache
def _diff_model(spec):
    return builtin_model(*spec)


@st.composite
def corrupted_data(draw):
    """A model's data with S corrupted one to three times: a symmetric pair
    or the whole matrix scaled by a nonzero rational, a row and its column
    negated, or two labels swapped in S and delta; delta shifted by a constant (with c and
    c0, so T is unchanged); and an optional changed fusion coefficient."""
    md = _diff_model(draw(st.sampled_from([
        ("su2", 2), ("su2", 3), ("su2", 4), ("cyclic_odd", 3),
        ("cyclic_odd", 5)])))
    r = md.rank
    s = [list(row) for row in md.s]
    delta = list(md.delta)
    label = st.integers(0, r - 1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["scale", "overall", "negate", "swap"]))
        i, j = draw(label), draw(label)
        q = Fraction(draw(st.sampled_from([-3, -1, 1, 2, 3, 4])),
                     draw(st.integers(1, 4)))
        if kind == "scale":
            s[i][j] = s[j][i] = s[i][j] * q
        elif kind == "overall":
            s = [[x * q for x in row] for row in s]
        elif kind == "negate":
            s[i] = [-x for x in s[i]]
            for row in s:
                row[i] = -row[i]
        else:
            perm = list(range(r))
            perm[i], perm[j] = j, i
            s = [[s[a][b] for b in perm] for a in perm]
            delta = [delta[a] for a in perm]
    shift = draw(st.sampled_from([Fraction(0), Fraction(1, 5),
                                  Fraction(2, 7), Fraction(1, 2)]))
    fusion_change = draw(st.none() | st.tuples(label, label, label,
                                               st.integers(0, 2)))
    return (md, mx.mat(s), [d + shift for d in delta], md.c + 24 * shift,
            md.c0 + 24 * shift, fusion_change)


class TestPackedValidation:
    """The packed fusion, unitarity and twist checks against the CycloNum
    products they replaced, on corrupted S matrices: records, witnesses
    and tables."""

    @pytest.mark.parametrize("spec", [
        ("trivial", None), *(("su2", k) for k in range(1, 11)),
        *(("cyclic_odd", n) for n in (3, 5, 7, 9, 11)),
    ])
    def test_unitary_and_twist_match_cyclonum(self, spec):
        # the stored delta, and the last one moved by 1/2, which negates
        # one T entry and breaks S T S = T^-1 S T^-1
        md = _diff_model(spec)
        moved = (*md.delta[:-1], md.delta[-1] + Fraction(1, 2))
        for delta in (md.delta, moved):
            got = modular_data._axiom_checks(md.labels, md.s, delta, md.c,
                                             md.c0, 0)[0]
            oracle = _cyclonum_unitary_and_twist(md.s, delta, md.c0)
            checked = [r for r in got if r.check in oracle]
            assert checked == [oracle["s_unitary"],
                               oracle["sts_twist_relation"]]
        assert not checked[1].passed

    def test_twist_relation_on_file_model(self):
        # su2:3 read back from its file, every S entry at the stored order
        md = loads(_diff_model(("su2", 3)).dumps())
        assert len({x.order for row in md.s for x in row}) == 1
        got = modular_data._axiom_checks(md.labels, md.s, md.delta, md.c,
                                         md.c0, 0)[0]
        oracle = _cyclonum_unitary_and_twist(md.s, md.delta, md.c0)
        assert oracle["sts_twist_relation"].passed
        assert [r for r in got if r.check == "sts_twist_relation"] == [
            oracle["sts_twist_relation"]]

    @settings(max_examples=200, deadline=None)
    @given(corrupted_data())
    def test_matches_cyclonum_loop(self, case):
        md, s, delta, c, c0, fusion_change = case
        order = _s_order(s)
        if all(s[0]):  # both loops divide by the vacuum row
            assert modular_data._fusion_checks(
                s, pack(s, order), pack(mx.dagger(s), order)
            ) == _cyclonum_fusion_checks(s)
        got = modular_data._axiom_checks(md.labels, s, delta, c, c0, 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modular_data, "_fusion_checks",
                       lambda s, ps, s_dag: _cyclonum_fusion_checks(s))
            want = modular_data._axiom_checks(md.labels, s, delta, c, c0, 0)
        assert got[0] == want[0]
        oracle = _cyclonum_unitary_and_twist(s, delta, c0)
        assert [r for r in got[0] if r.check in oracle] == [
            oracle[r.check] for r in got[0] if r.check in oracle]
        assert got[1].get("fusion") == want[1].get("fusion")
        if not all(r.passed for r in got[0]):
            return
        built = ModularData(md.labels, s, delta, c, c0)
        if fusion_change is not None:
            lam, mu, nu, n = fusion_change
            table = [[list(row) for row in rows] for rows in built.fusion]
            table[lam][mu][nu] = n
            built.fusion = tuple(tuple(map(tuple, rows)) for rows in table)
        assert built.c0_consistency() == _cyclonum_c0_consistency(built)


class TestQdimMu:
    def test_vacuum_dimension(self, su2_2, trivial):
        assert su2_2.qdim(0) == 1
        assert trivial.qdim(0) == 1

    def test_sqrt2_dimension(self, su2_2):
        assert su2_2.qdim(1) == sqrt_nonneg_rational(2)

    def test_mu_su2_1(self, su2_1):
        assert su2_1.mu_index() == 2

    def test_mu_matches_s00(self, su2_2):
        assert su2_2.mu_index() == su2_2.s00_inv() ** 2

    def test_eigenvector_property(self):
        # fusion matrix applied to the dimension vector rescales it
        md = builtin_model("su2", 3)
        dims = [md.qdim(l) for l in range(md.rank)]
        for lam in range(md.rank):
            for mu in range(md.rank):
                acc = None
                for nu in range(md.rank):
                    n = md.verlinde(lam, mu, nu)
                    if n:
                        term = n * dims[nu]
                        acc = term if acc is None else acc + term
                assert acc == md.qdim(lam) * dims[mu]

    def test_mu_closed_form_numeric(self):
        import math
        for k in range(1, 9):
            md = builtin_model("su2", k)
            z = embed_complex(md.mu_index(), 10)
            expected = (k + 2) / (2 * math.sin(math.pi / (k + 2)) ** 2)
            assert abs(z.real - expected) < 1e-10 and abs(z.imag) < 1e-10


class TestC0Consistency:
    def test_su2_1_phase(self, su2_1):
        # statistical sum is 1 - i, so the class is 1 mod 8
        assert all(r.passed for r in su2_1.c0_consistency())
        assert su2_1.c0 == 1

    def test_trivial(self, trivial):
        assert trivial.c0 == 0
        assert all(r.passed for r in trivial.c0_consistency())

    def test_wrong_c0_fails_report(self, su2_1):
        md = builtin_model("su2", 1, c0_override=Fraction(9))  # same class
        bad = ModularData.__new__(ModularData)
        bad.__dict__.update(md.__dict__)
        bad.c0 = Fraction(3)  # wrong residue, report-level only
        bad._t_cache = {}
        recs = bad.c0_consistency()
        assert any(not r.passed for r in recs)


class TestConductor:
    @pytest.mark.parametrize(
        "k,n,n0,e,n0c",
        [(1, 24, 4, 6, 4), (2, 16, 16, 1, 24)],
    )
    def test_su2_values(self, k, n, n0, e, n0c):
        md = builtin_model("su2", k)
        info, records = md.conductor()
        assert (info.n, info.n0, info.e) == (n, n0, e)
        assert info.n0 * md.c == n0c
        assert all(r.passed for r in records)

    def test_trivial(self, trivial):
        info, _ = trivial.conductor()
        assert (info.n, info.n0, info.e) == (1, 1, 1)

    def test_mismatch_detected(self, su2_1):
        md = builtin_model("su2", 1)
        bad = ModularData.__new__(ModularData)
        bad.__dict__.update(md.__dict__)
        bad.delta = (Fraction(0), Fraction(1, 4))
        bad.c0 = Fraction(0)  # order of T becomes 8; sqrt2 needs 24... still 8-ok
        bad._conductor = None
        bad._conductor_records = None
        bad._t_cache = {}
        # entries of S live in Q(zeta_8); with c0=0 the T order is 4
        with pytest.raises(ConductorMismatchError):
            bad.conductor()


class TestAutomorphismAction:
    def test_vacuum_ratios(self, su2_1):
        assert all(r == 1 for r in su2_1.automorphism_ratios(0))

    def test_su2_1_sign(self, su2_1):
        ratios = su2_1.automorphism_ratios(1)
        assert ratios[0] == 1 and ratios[1] == -1

    def test_su2_2_signs(self, su2_2):
        recs = su2_2.automorphism_action_check(2)
        assert all(r.passed for r in recs)
        assert all(r in (1, -1) for r in su2_2.automorphism_ratios(2))

    def test_non_automorphism_rejected(self, su2_2):
        with pytest.raises(ValueError):
            su2_2.automorphism_ratios(1)


class TestBuiltins:
    def test_su2_1_matrix(self, su2_1):
        inv_sqrt2 = sqrt_nonneg_rational(Fraction(1, 2))
        assert su2_1.s[0][0] == inv_sqrt2
        assert su2_1.s[1][1] == -inv_sqrt2
        assert su2_1.delta == (Fraction(0), Fraction(1, 4))
        assert su2_1.c == 1 and su2_1.c0 == 1

    def test_su2_2_dimensions(self, su2_2):
        dims = [su2_2.qdim(l) for l in range(3)]
        assert dims[0] == 1 and dims[2] == 1
        assert dims[1] == sqrt_nonneg_rational(2)

    def test_trivial_shape(self, trivial):
        assert trivial.s == ((CycloNum.one(),),)

    def test_cyclic_odd_group_fusion(self):
        md = builtin_model("cyclic_odd", 5)
        for j in range(5):
            for k in range(5):
                for l in range(5):
                    assert md.verlinde(j, k, l) == (1 if (j + k) % 5 == l else 0)

    def test_unknown_rejected(self):
        with pytest.raises(UnsupportedModelError):
            builtin_model("su3", 1)
        with pytest.raises(UnsupportedModelError):
            builtin_model("cyclic_odd", 4)

    def test_c0_override_class_checked(self):
        md = builtin_model("su2", 1, c0_override=Fraction(-7))
        assert md.c0 == -7
        with pytest.raises(ValueError):
            builtin_model("su2", 1, c0_override=Fraction(2))

    def test_tau2_configurable(self):
        md = builtin_model("su2", 1, tau2=1)
        assert md.tau2 == 1
        assert all(r.passed for r in md.validation_report)


class TestSerialization:
    def test_round_trip(self, su2_2):
        text = su2_2.dumps()
        again = loads(text)
        assert again.labels == su2_2.labels
        assert mx.mat_eq(again.s, su2_2.s)
        assert again.delta == su2_2.delta
        assert again.dumps() == text  # bit-reproducible

    def test_tau2_preserved(self):
        md = builtin_model("su2", 2, tau2=2)
        assert from_obj(md.to_obj()).tau2 == 2


class TestCopies:
    """A validated model survives pickle and deepcopy, before and after its
    packed model is read: the copy has the same serialized form, its S
    still carries the fusion table, its T entries stay tagged roots, and
    the congruence suite passes on it."""

    @pytest.mark.parametrize("name,param", _CATALOG_MODELS)
    def test_pickle_and_deepcopy(self, name, param):
        md = builtin_model(name, param)
        t = md.t_entries(1)
        for packed_read in (False, True):
            if packed_read:
                md.packed
            for twin in (pickle.loads(pickle.dumps(md)), copy.deepcopy(md)):
                assert twin.dumps() == md.dumps()
                assert twin.s == md.s and twin.s.fusion == md.fusion
                assert ("packed" in vars(twin)) == packed_read
                assert [(x.order, x.exponent) for x in twin.t_entries(1)] \
                    == [(x.order, x.exponent) for x in t]
                assert all(r.passed for r in congruence_suite(twin, 2, 1))
