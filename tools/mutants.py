"""Mutation checks for the fast paths: every mutant in the table must be
caught by the tests it names.

Each entry of ``MUTANTS`` is (file under ``src/``, exact old text,
replacement, pytest node ids).  The old text must occur exactly once in
the file; text that no longer matches, or matches twice, is an error, so
an edit to the code cannot turn a mutant into a silent skip.

The named tests first run on an unmutated copy of ``src/`` and must pass
there.  Then, for each mutant, ``src/`` is copied to a temporary directory,
the old text is replaced, and the named tests run against the copy with
``-x``.  A mutant is caught when that run fails (pytest exit code 1, or 2
when the mutant breaks collection); it survives when the run passes.

Run from anywhere, stdlib only (the tests need pytest and hypothesis):

    python3 tools/mutants.py    # exit 0 when every mutant is caught,
                                # 1 when one survives, 2 on an error
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MUTANTS = [
    (
        "modata/packed.py",
        "acc = acc.scale(cols=self.t_power(last_t))",
        "acc = acc.scale(cols=self.t_power(last_t + 1))",
        ["tests/test_galois.py::TestScalingSeams::"
         "test_level_subgroup_in_kernel_su2_2"],
    ),
    (
        # the criterion is symmetric under this swap (S and sigma_d(S) are
        # symmetric, so the swapped sides are the transposes of the true
        # ones); the factorization's S^-1 scaling is not
        "modata/galois.py",
        "pk.s_inv.scale(pk.t_power(m.b), pk.t_power(-m.e))",
        "pk.s_inv.scale(pk.t_power(-m.e), pk.t_power(m.b))",
        ["tests/test_galois.py::TestScalingSeams::"
         "test_kernel_criterion_equivalence"],
    ),
    (
        "modata/modular_data.py",
        "(pm.scale(cols=t) @ pm)",
        "(pm.scale(rows=t) @ pm)",
        ["tests/test_modular_data.py::TestPackedValidation::"
         "test_twist_relation_on_file_model"],
    ),
    (
        "modata/packed.py",
        "bits = a.bits + _clog2(l1 * p.reduce_growth)",
        "bits = a.bits + _clog2(l1)",
        ["tests/test_packed.py::test_scale_by_monomials_at_every_exponent"],
    ),
    (
        # a two-sided scaling that turns entry (i, j) by x^(a_i - b_j)
        "modata/packed.py",
        "(a + b) % order",
        "(a - b) % order",
        ["tests/test_packed.py::test_scale_by_monomials_at_every_exponent"],
    ),
    (
        # the fold of the upper half of an even order without its sign
        "modata/cyclo.py",
        "acc[k - half] -= c",
        "acc[k - half] += c",
        ["tests/test_cyclo.py::test_root_times_element_is_the_schoolbook_product",
         "tests/test_cyclo.py::test_root_exponents_at_odd_and_even_orders"],
    ),
    (
        # a placement that does not take the exponent mod m
        "modata/cyclo.py",
        "k = (step * j + offset) % m",
        "k = step * j + offset",
        ["tests/test_cyclo.py::test_root_times_element_is_the_schoolbook_product",
         "tests/test_cyclo.py::test_root_exponents_at_odd_and_even_orders"],
    ),
    (
        # models that differ only in T would share their T^k S syllables
        "modata/packed.py",
        "s.rows, md.conj, weights)",
        "s.rows, md.conj)",
        ["tests/test_packed.py::TestSharedModels::"
         "test_c0_shift_gets_its_own_packed_model"],
    ),
    (
        # every build gets a new model with empty caches
        "modata/packed.py",
        "model = _models.pop(key, None)",
        "model = None",
        ["tests/test_packed.py::TestSharedModels::"
         "test_second_galois_request_builds_nothing"],
    ),
    (
        "modata/modrep.py",
        "a, b, e, d = a * k + b, -a, e * k + d, -e",
        "a, b, e, d = a * k + d, -a, e * k + b, -e",
        ["tests/test_modrep.py::TestSampling::"
         "test_random_word_matrix_on_four_ints"],
    ),
    (
        # a zero term's orders enter the lcm of a product entry
        "modata/modrep.py",
        "if x and y for o in (ox, oy)",
        "for o in (ox, oy)",
        ["tests/test_modrep.py::TestSyllableCache::"
         "test_matches_token_by_token"],
    ),
    (
        # a bare s read as T^0 S: S's zero entries drop to order 1
        "modata/modrep.py",
        "steps.append(q or None)",
        "steps.append(q)",
        ["tests/test_modrep.py::TestSyllableCache::"
         "test_matches_token_by_token"],
    ),
    (
        # -I permutes the values but leaves the orders of S^2 out
        "modata/modrep.py",
        "[[x.order for x in row] for row in md.chat]",
        "[[1] * rank for _ in md.chat]",
        ["tests/test_modrep.py::TestSyllableCache::"
         "test_matches_token_by_token"],
    ),
    (
        # a tie a/e = q + 1/2 rounds up: another word for the same matrix
        "modata/modrep.py",
        "if 2 * abs(r) > abs(e):",
        "if 2 * abs(r) >= abs(e):",
        ["tests/test_modrep.py::TestDecompose::"
         "test_syllables_match_token_walk"],
    ),
    (
        # the charge phase of an orbifold S block with its sign flipped
        "modata/orbifold.py",
        "t(scalar=Fraction(-(j1 * tb + j2 * ta), n_cyc))",
        "t(scalar=Fraction(j1 * tb + j2 * ta, n_cyc))",
        ["tests/test_orbifold.py::"
         "test_blocks_and_t_values_match_the_entry_oracle"],
    ),
    (
        # the hat at ta * tb^-1 / N, the transpose-dual of the right one
        "modata/orbifold.py",
        "slice_.hat_block(tb * pow(ta, -1, n_cyc))",
        "slice_.hat_block(ta * pow(tb, -1, n_cyc))",
        ["tests/test_orbifold.py::"
         "test_blocks_and_t_values_match_the_entry_oracle"],
    ),
    (
        # the untwisted column without the distinguished automorphism
        "modata/orbifold.py",
        "base = Phased(pm, s)",
        "base = Phased(pm, pm.s)",
        ["tests/test_orbifold.py::"
         "test_blocks_and_t_values_match_the_entry_oracle"],
    ),
    (
        # the subfield's digits read one digit off their places
        "modata/cyclo.py",
        "self.nums[::read]",
        "self.nums[1::read]",
        ["tests/test_cyclo.py::test_descent_digit_read_matches_the_solve"],
    ),
    (
        # a fold round of a slot product that leaves the high digits of
        # every slot signed, so the next round's masks borrow
        "modata/packed.py",
        " * fold + high_up",
        " * fold",
        ["tests/test_packed.py::TestSlotProducts::"
         "test_slot_step_matches_matmul"],
    ),
    (
        # the high digits folded in with their offset still on them
        "modata/packed.py",
        "& top) - high) * fold",
        "& top)) * fold",
        ["tests/test_packed.py::TestSlotProducts::"
         "test_slot_step_matches_matmul"],
    ),
    (
        # the sparse round at an even order folding x^(M/2) = 1
        "modata/packed.py",
        "sign = -1 if order % 2 == 0 else 1",
        "sign = 1 if order % 2 == 0 else 1",
        ["tests/test_packed.py::TestSchedule::"
         "test_reduce_matches_the_context"],
    ),
    (
        # the sparse round leaving the offset of digits phi .. h - 1 on
        # them, for the dense rounds to fold in
        "modata/packed.py",
        "self._start = low + (sign * (self._offset - low) << width * h)",
        "self._start = low",
        ["tests/test_packed.py::TestSchedule::"
         "test_reduce_matches_the_context"],
    ),
    (
        # h = M at an even order: x^M = 1 holds, but no product reaches
        # x^M, so no sparse round is taken
        "modata/packed.py",
        "(rad // 2, -1)",
        "(rad, -1)",
        ["tests/test_packed.py::test_fold_constants_on_the_radical",
         "tests/test_packed.py::TestSchedule::"
         "test_one_sparse_and_one_dense_round"],
    ),
    (
        # a slot product taken at a bound of exactly the width
        "modata/packed.py",
        "p.stage_growth) < width",
        "p.stage_growth) <= width",
        ["tests/test_packed.py::TestSlotProducts::"
         "test_chain_widens_at_the_bound"],
    ),
    (
        # sigma_l(D(m)) with T^last_t where sigma_l(T^k) = T^(l*k)
        "modata/packed.py",
        "last_t *= l",
        "last_t *= 1",
        ["tests/test_packed.py::test_sigma_word_is_sigma_of_the_word"],
    ),
    (
        # sigma_l syllables of different l sharing one cache entry
        "modata/packed.py",
        "self._sigma_syllables, (l, k),",
        "self._sigma_syllables, k,",
        ["tests/test_packed.py::test_sigma_word_is_sigma_of_the_word",
         "tests/test_packed.py::test_sigma_syllables_cached_per_unit"],
    ),
    (
        # a fusion coefficient read off N_0 whatever lam
        "modata/modular_data.py",
        "s.fusion[lam][mu]",
        "s.fusion[0][mu]",
        ["tests/test_modular_data.py::TestFusionOrbits::"
         "test_verlinde_sum_equals_term_sum"],
    ),
    (
        # x itself in the cofactor of its inverse: c*x is no longer the norm
        "modata/cyclo.py",
        "seen = {(x.den, x.nums)}",
        "seen = set()",
        ["tests/test_cyclo.py::"
         "test_inverse_over_distinct_conjugates_is_the_full_product",
         "tests/test_cyclo.py::"
         "test_subfield_element_multiplies_its_distinct_conjugates"],
    ),
    (
        # N_lam read transposed: equal only when the conjugation is trivial
        "modata/modular_data.py",
        "return s.fusion[lam][mu][nu]",
        "return s.fusion[lam][nu][mu]",
        ["tests/test_modular_data.py::TestFusionOrbits::"
         "test_verlinde_sum_equals_term_sum"],
    ),
    (
        # -sqrt(p) for p = 3 mod 4: the Gauss sum i*sqrt(p) times i, not -i
        "modata/cyclo.py",
        "return g * make(4, [(1, -1)])",
        "return g * make(4, [(1, 1)])",
        ["tests/test_cyclo.py::TestSqrt::test_prime_root_is_positive"],
    ),
    (
        # a dropped prime's value B_0 without subtracting B_(p-1)
        "modata/cyclo.py",
        "return minus_last(0)",
        "return reduce(parts[0])",
        ["tests/test_cyclo.py::test_descent_digit_read_matches_the_solve"],
    ),
    (
        # a dropped prime's middle parts left unchecked: elements outside
        # the subfield descend
        "modata/cyclo.py",
        "for t in range(1, p - 1)",
        "for t in range(1, 1)",
        ["tests/test_cyclo.py::test_descent_digit_read_matches_the_solve"],
    ),
    (
        # zeta_kp split as zeta_k^v zeta_p^u, the inverses swapped
        "modata/cyclo.py",
        "u, v = pow(p, -1, k), pow(k, -1, p)",
        "v, u = pow(p, -1, k), pow(k, -1, p)",
        ["tests/test_cyclo.py::test_descent_digit_read_matches_the_solve"],
    ),
    (
        # e(p/den) at an odd order M without the sign of zeta_2M^j
        "modata/packed.py",
        "return (-1) ** j, j * (order + 1) // 2 % order",
        "return 1, j * (order + 1) // 2 % order",
        ["tests/test_lambdamat.py::TestEqualityRule::test_odd_order_sign"],
    ),
    (
        # a conjugate that keeps its row phases
        "modata/packed.py",
        "tuple(-self.a[p] for p in perm)",
        "tuple(self.a[p] for p in perm)",
        ["tests/test_lambdamat.py::TestIdentitySuite::test_su2_1_half"],
    ),
    (
        # a turn by x^k, k >= phi, at the width of a shift
        "modata/packed.py",
        "turn = bits + _clog2(l1 * a.packing.stage_growth)",
        "turn = bits + _clog2(a.packing.stage_growth)",
        ["tests/test_packed.py::TestBounds::test_phased_turn_width"],
    ),
    (
        # a block divided by N that keeps its den
        "modata/packed.py",
        "Phased(self.pm, self.x.over(n), self.den,",
        "Phased(self.pm, self.x, self.den,",
        ["tests/test_orbifold.py::"
         "test_blocks_and_t_values_match_the_entry_oracle"],
    ),
    (
        # a product whose middle roots of unity are dropped
        "modata/packed.py",
        "if any(root != (1, 0) for root in middle):",
        "if not middle:",
        ["tests/test_lambdamat.py::TestEqualityRule::"
         "test_product_middle_phase"],
    ),
    (
        # the half tables from row lam + 1: row lam of N_lam never computed
        "modata/modular_data.py",
        "fusion_rows(inv, ps, s_dag, lam, range(lam, rank))",
        "fusion_rows(inv, ps, s_dag, lam, range(lam + 1, rank))",
        ["tests/test_modular_data.py::TestHalfTables::"
         "test_matches_full_products"],
    ),
    (
        # the diagonalization from row lam + 1: row lam of N_lam S, which
        # no other label compares, left out (the last check is empty)
        "modata/modular_data.py",
        "fusion[lam][lam:]) @ ps != scaled[lam]",
        "fusion[lam][lam + 1:]) @ ps\n"
        "         != scaled[lam].take_rows(range(1, rank - lam))",
        ["tests/test_modular_data.py::TestHalfTables::"
         "test_diagonalization_failure_matches_full_products"],
    ),
    (
        # a file's coefficients over the first denominator, not the lcm
        "modata/cyclo.py",
        "den = math.lcm(*(q for _, q in coeffs))",
        "den = coeffs[0][1]",
        ["tests/test_cyclo.py::TestSerialization::"
         "test_coefficients_read_as_fraction_reads_them"],
    ),
    (
        # su2 entries shared per (a+1)(b+1) mod q: sin(pi*m/q) changes
        # sign under m -> m + q
        "modata/modular_data.py",
        "entry((a + 1) * (b + 1) % (2 * q))",
        "entry((a + 1) * (b + 1) % q)",
        ["tests/test_modular_data.py::TestBuiltinEntries::test_su2_entries"],
    ),
    (
        # the cofactor of a comparison applied to one side only: x / dx and
        # y / dy compare as x * (dy/g) against y * dx
        "modata/packed.py",
        "return dy // g, dx // g",
        "return dy // g, dx",
        ["tests/test_packed.py::test_mismatches_over_unequal_dens"],
    ),
    (
        # the unrolled reciprocity without its alternating sign
        "modata/lambdamat.py",
        "n, k, sign = k, n % k, -sign",
        "n, k, sign = k, n % k, sign",
        ["tests/test_lambdamat.py::TestPhase::test_is_the_recursion"],
    ),
    (
        # the root cache looked up before the exponent is reduced
        "modata/cyclo.py",
        "e %= order\n    r = ctx.roots.get(e)",
        "r = ctx.roots.get(e)\n    e %= order",
        ["tests/test_cyclo.py::test_roots_kept_per_context"],
    ),
]


class TableError(Exception):
    """The table no longer matches the code or the tests."""


def replace_once(text: str, file: str, old: str, new: str) -> str:
    count = text.count(old)
    if count != 1:
        raise TableError(f"{file}: old text found {count} times: {old!r}")
    return text.replace(old, new)


def run_tests(src: Path, ids) -> int:
    """pytest's exit code for the tests `ids`, importing modata from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *ids],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def copy_src(tmp: str) -> Path:
    """A fresh copy of src/ under `tmp`, replacing the last one."""
    dest = Path(tmp) / "src"
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def main() -> int:
    start = time.perf_counter()
    survived = 0
    try:
        for file, old, new, _ in MUTANTS:  # the whole table matches first
            replace_once((SRC / file).read_text(), file, old, new)
        with tempfile.TemporaryDirectory() as tmp:
            ids = sorted({node for *_, nodes in MUTANTS for node in nodes})
            code = run_tests(copy_src(tmp), ids)
            if code != 0:
                raise TableError(
                    f"the named tests do not pass unmutated (exit {code})")
            for file, old, new, nodes in MUTANTS:
                src = copy_src(tmp)
                path = src / file
                path.write_text(replace_once(path.read_text(), file, old, new))
                code = run_tests(src, nodes)
                if code not in (0, 1, 2):
                    raise TableError(f"pytest exit {code} on {file}: {old!r}")
                survived += code == 0
                print(f"{'SURVIVED' if code == 0 else 'caught  '}  {file}: "
                      f"{old!r} -> {new!r}", flush=True)
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(MUTANTS)} mutants, {survived} survived, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
