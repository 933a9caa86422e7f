"""The witness a failing check reports.

Each case forces one check to fail, through a monkeypatch that is a pure
function of its arguments or through a corrupted cache entry or table, and
pins the whole report it lands in: the failing record, its first witness,
and the records around it.  The congruence case also pins the checks that
run after a failing scan, whose witnesses depend on the position in the
shared random stream.
"""

from fractions import Fraction

import pytest

import modata.cli as cli
import modata.galois as galois
import modata.matrixops as mx
import modata.orbifold as orb
from modata.errors import AxiomViolationError
from modata.modular_data import ModularData, builtin_model
from modata.packed import PackedMatrix, Phased, from_digits


def lines(records):
    return [r.human_line() for r in records]


@pytest.fixture(scope="module")
def su2_1():
    return builtin_model("su2", 1)


def doubled(block, hit=lambda lam, mu: True):
    """The `Phased` block with each entry (lam, mu) that satisfies `hit`
    doubled."""
    x = block.x
    digits = [[[c * 2 for c in d] if hit(lam, mu) else d
               for mu, d in enumerate(row)]
              for lam, row in enumerate(x.digits())]
    return Phased(block.pm, from_digits(x.packing.order, x.den, digits),
                   block.den, block.a, block.b, block.c)


def perturb_s_entry(monkeypatch, hit):
    """Double every orbifold S entry whose labels satisfy `hit`, in the
    blocks that `orb_s_block` builds."""
    real = orb.orb_s_block

    def block(slice_, ta, tb, j1, j2):
        return doubled(real(slice_, ta, tb, j1, j2), lambda lam, mu: hit(
            orb.OrbLabel(lam, ta, j1), orb.OrbLabel(mu, tb, j2)))

    monkeypatch.setattr(orb, "orb_s_block", block)


def conventions(n):
    return (f"pass  orbifold.conventions  n={n}  [distinguished automorphism "
            f"= label '0' (theorem), orbifold c0 = {n}]")


class TestOrbifold:
    def test_hat_closure(self, monkeypatch, su2_1):
        perturb_s_entry(monkeypatch, lambda a, b: (
            (a.base, b.base, b.twist, a.charge) == (1, 0, 2, 0)))
        assert lines(orb.consistency_report(orb.OrbSlice(su2_1, 3))) == [
            conventions(3),
            "FAIL  orbifold.hat_closure  n=3  [i=2, entry (1,0)]",
            "pass  orbifold.route_independence  n=3",
            "pass  orbifold.odd_coprime_factorization  n=3  "
            "[no odd coprime split of 3]",
            "pass  orbifold.hat_unitary  n=3",
        ]

    def test_route_independence(self, monkeypatch, su2_1):
        perturb_s_entry(monkeypatch, lambda a, b: (
            (a.base, b.base, a.twist, b.twist, a.charge) == (0, 1, 2, 1, 1)))
        assert lines(orb.consistency_report(orb.OrbSlice(su2_1, 5))) == [
            conventions(5),
            "pass  orbifold.hat_closure  n=5",
            "FAIL  orbifold.route_independence  n=5  "
            "[twists (2,1), entry (0,1)]",
            "pass  orbifold.odd_coprime_factorization  n=5  "
            "[no odd coprime split of 5]",
            "pass  orbifold.hat_unitary  n=5",
        ]

    def test_odd_coprime_factorization(self, monkeypatch, su2_1):
        real = orb._factorization_entry
        monkeypatch.setattr(orb, "_factorization_entry", lambda sl, a, b: (
            real(sl, a, b) * (3 if (a.base, b.base) == (1, 1) else 1)))
        assert lines(orb.consistency_report(orb.OrbSlice(su2_1, 15))) == [
            conventions(15),
            "pass  orbifold.hat_closure  n=15",
            "pass  orbifold.route_independence  n=15",
            "FAIL  orbifold.odd_coprime_factorization  k=3 n=5  "
            "[entry (1,1)]",
            "pass  orbifold.hat_unitary  n=15",
        ]

    def test_hat_unitary_from_corrupted_cache(self, su2_1):
        sl = orb.OrbSlice(su2_1, 5)
        sl._hat_cache[3] = mx.scalar_mul(2, sl.hat(3))
        sl._hat_blocks[3] = doubled(sl.hat_block(3))
        assert lines(orb.consistency_report(sl)) == [
            conventions(5),
            "pass  orbifold.hat_closure  n=5",
            "FAIL  orbifold.route_independence  n=5  "
            "[twists (1,2), entry (0,0)]",
            "pass  orbifold.odd_coprime_factorization  n=5  "
            "[no odd coprime split of 5]",
            "FAIL  orbifold.hat_unitary  n=5  [i=3]",
        ]

    def test_charge_transport(self, monkeypatch, su2_1):
        perturb_s_entry(monkeypatch, lambda a, b: (
            (a.base, b.base, a.charge, b.charge % 5, b.twist)
            == (1, 0, 2, 3, 2)))
        assert lines(orb.charge_invariants(orb.OrbSlice(su2_1, 5))) == [
            "FAIL  orbifold.charge_transport  n=5  "
            "[twists (1,2) charges (2,3) entry (1,0)]",
            "pass  orbifold.t_charge_shift  n=5",
        ]

    def test_t_charge_shift(self, monkeypatch, su2_1):
        real = orb.orb_t_entry
        monkeypatch.setattr(orb, "orb_t_entry", lambda sl, a: (
            real(sl, a) * (-1 if (a.base, a.twist, a.charge) == (1, 3, 2)
                           else 1)))
        assert lines(orb.charge_invariants(orb.OrbSlice(su2_1, 5))) == [
            "pass  orbifold.charge_transport  n=5",
            "FAIL  orbifold.t_charge_shift  n=5  "
            "[twist 3, label 1, charge 1]",
        ]


@pytest.mark.parametrize("factor,below", [(3, "FAIL"), (Fraction(6, 5), "pass")])
def test_index_sum_below_scaled_total(monkeypatch, su2_1, factor, below):
    # Scaling every dimension by f scales the unit-twist sum 2*3*mu^3 by f^2,
    # which exceeds the total 9*mu^3 at f = 3 and stays below it at f = 6/5.
    real = orb.orb_qdim
    monkeypatch.setattr(orb, "orb_qdim", lambda sl, a: real(sl, a) * factor)
    assert lines(orb.mu_scaling_check(orb.OrbSlice(su2_1, 3))) == [
        "FAIL  orbifold.unit_twist_index_sum  n=3 phi_n=2",
        f"{below}  orbifold.index_sum_below_scaled_total  n=3  "
        "[coprime part phi(N)*N*mu^N of the total N^2*mu^N]",
    ]


def test_congruence_witnesses_and_later_stream(monkeypatch, su2_1):
    real = galois.rep_evaluate_packed

    def rep(md, m, l=1):
        if abs(m.b) % 7 == 3:  # breaks level-n and word samples
            d = real(md, m, l)
            rows = tuple(tuple(-v for v in row) for row in d.rows)
            return PackedMatrix(d.packing, d.den, rows, d.bits, d.norm)
        if m.b % 24 == 10:  # makes some intermediate samples act trivially
            return md.packed.identity()
        return real(md, m, l)

    monkeypatch.setattr(galois, "rep_evaluate_packed", rep)
    assert lines(galois.congruence_suite(su2_1, 12, 3, (5, 7, 11))) == [
        "FAIL  congruence.level_subgroup_in_kernel  n=24 samples=12  "
        "[sample 4: [-143, -3216, -96, -2159]]",
        "FAIL  congruence.frobenius_equivariance  l=5 n=24 samples=12  "
        "[sample 1: [-14, 3, -5, 1]]",
        "FAIL  congruence.frobenius_equivariance  l=7 n=24 samples=12  "
        "[sample 0: [-86, -15, 23, 4]]",
        "FAIL  congruence.frobenius_equivariance  l=11 n=24 samples=12  "
        "[sample 9: [65, -14, 14, -3]]",
        "FAIL  congruence.intermediate_subgroup  n=24 samples=12  "
        "[sample 7: [284689, 1750498, -561576, -3453023]]",
    ]


def test_kernel_criterion_witness(monkeypatch, capsys):
    real = galois.kernel_test

    def kernel_test(md, m):
        res = real(md, m)
        if m.a % 5 == 2:
            return galois.KernelTestResult(
                res.direct, not res.criterion, res.sigma_factorization)
        return res

    monkeypatch.setattr(cli, "kernel_test", kernel_test)
    code = cli.main(["galois", "--model", "su2:1", "--l", "5,7",
                     "--samples", "8", "--seed", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[-6:] == [
        "FAIL  galois.kernel_criterion_equivalence  samples=8  "
        "[matrix [11087, 1932, -2898, -505]]",
        "pass  congruence.level_subgroup_in_kernel  n=24 samples=8",
        "pass  congruence.frobenius_equivariance  l=5 n=24 samples=8",
        "pass  congruence.frobenius_equivariance  l=7 n=24 samples=8",
        "pass  congruence.intermediate_subgroup  n=24 samples=8",
        "11 checks, 1 failed",
    ]


class TestModularData:
    def test_fusion_phase_matrix_from_corrupted_table(self):
        md = builtin_model("su2", 2)
        fusion = [[list(row) for row in rows] for rows in md.fusion]
        fusion[1][1][2] = 2
        md.fusion = tuple(tuple(tuple(r) for r in rows) for rows in fusion)
        assert lines(md.c0_consistency()) == [
            "pass  c0.phase_norm  ",
            "pass  c0.phase_matches_c0  c0=3/2",
            "FAIL  c0.fusion_phase_matrix    [entry (1,1)]",
        ]

    def test_ratio_constant_per_column_from_corrupted_s(self):
        md = builtin_model("su2", 2)
        s = [list(row) for row in md.s]
        s[2][0] = s[2][0] * 3
        md.s = mx.mat(s)
        assert lines(md.automorphism_action_check(2)) == [
            "FAIL  automorphism.ratio_constant_per_column  tau=2  "
            "[column 0, row 1]",
            "FAIL  automorphism.ratios_are_roots_of_unity  order=2 tau=2",
        ]


AXIOMS_BEFORE_FUSION = [
    "pass  axioms.shape  ",
    "pass  axioms.s_symmetric  ",
    "pass  axioms.s_unitary  ",
    "pass  axioms.s_square_is_conjugation  ",
    "pass  axioms.vacuum_row_real_positive  ",
    "pass  axioms.sts_twist_relation  ",
    "pass  axioms.t_conjugation_invariant  ",
    "pass  axioms.central_charge_residue    [c - c0 = 0]",
]


class TestAxioms:
    def test_vacuum_row_sign(self, su2_1):
        s = [list(row) for row in su2_1.s]
        s[0][1] = -s[0][1]
        s[1][0] = -s[1][0]
        with pytest.raises(AxiomViolationError) as info:
            ModularData(su2_1.labels, s, su2_1.delta, su2_1.c, su2_1.c0)
        assert lines(info.value.report) == AXIOMS_BEFORE_FUSION[:4] + [
            "FAIL  axioms.vacuum_row_real_positive    [S[0][1]]",
        ]

    def test_fusion_integral_witness(self, monkeypatch):
        real = PackedMatrix.nonneg_integers
        monkeypatch.setattr(
            PackedMatrix, "nonneg_integers",
            lambda self: tuple(tuple(n or None for n in row)
                               for row in real(self)))
        with pytest.raises(AxiomViolationError) as info:
            builtin_model("su2", 2)
        assert lines(info.value.report) == AXIOMS_BEFORE_FUSION + [
            "FAIL  axioms.fusion_integral_nonnegative    "
            "[N(0,0;1) = CycloNum(0)]",
        ]

    def test_fusion_diagonalized_by_s(self, monkeypatch):
        real = PackedMatrix.nonneg_integers

        def read(self):
            # Doubles the half-row reads of N_1 and N_2, rows mu >= lam of
            # the tables with N(lam,0;0) = 0: fewer rows than the rank.
            table = real(self)
            if len(table) < 3:
                return tuple(tuple(2 * n for n in row) for row in table)
            return table

        monkeypatch.setattr(PackedMatrix, "nonneg_integers", read)
        with pytest.raises(AxiomViolationError) as info:
            builtin_model("su2", 2)
        assert lines(info.value.report) == AXIOMS_BEFORE_FUSION + [
            "pass  axioms.fusion_integral_nonnegative  ",
            "FAIL  axioms.fusion_diagonalized_by_s    [fusion matrix 1]",
            "pass  axioms.vacuum_fusion_identity  ",
        ]
