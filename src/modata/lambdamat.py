"""Fractional modular matrices and their scalar phase correction.

For a reduced rational r = k/n, a Bezout pair k*x - n*y = 1 gives a
determinant-one matrix m = [[k, y], [n, x]] and the dual argument r* = x/n.
The fractional matrix is the diagonal-twisted representation value

    L(r) = T^-r  D(m)  T^-r*

(T to fractional powers always meaning the diagonal convention), which is
independent of the Bezout choice and periodic in r.  The hatted variant
multiplies by exp(2*pi*i*g(r)) with g the Q/Z-valued function fixed by
g(0) = 0, periodicity, and the reciprocity

    g(k/n) + g(n/k) = -(c - c0) (3nk - (n^2+k^2+1)/(nk)) / 24   (mod Z),

well defined whenever c - c0 lies in 4Z.  At integer arguments the hatted
matrix is S itself.

`lambda_mat` and `lambda_hat` build CycloNum matrices: the orders of their
entries reach the `lambda --json` report, and the Galois suite and
`OrbSlice.hat` read them.  Their D(m) is `modrep.rep_evaluate`, the packed
product read at the orders of the CycloNum chain.  `lambda_phased` and
`hat_phased` build the same matrices as `packed.Phased` values over the
model's single field Q(zeta_M): D(m) is evaluated there, and every
fractional T power, and the phase of the hat, is carried as a phase
exponent of the rows, the columns or the whole matrix, never as a matrix
over a larger field.  The identity suite `verify_lambda_identities`,
`hat_functional_equation_check` and the orbifold blocks test equalities
only, so they read these.
"""

import functools
import math
from fractions import Fraction

from . import matrixops as mx
from .cyclo import root_of_unity_exp
from .errors import PhaseConstraintError
from .modrep import SL2ZMat, rep_evaluate, rep_evaluate_packed, t_gen
from .modular_data import ModularData
from .packed import Phased
from .reporting import CheckRecord, notice


def bezout(r) -> SL2ZMat:
    """The canonical Bezout matrix [[k, y], [n, x]] of the reduced fraction
    r = k/n, k*x - n*y = 1, its dual r* = x/n; m * t_gen(t) is another,
    with (x + n*t, y + k*t)."""
    k, n = _ratio(r)
    if n == 1:
        return SL2ZMat(k, -1, 1, 0)
    x = pow(k % n, -1, n)
    return SL2ZMat(k, (k * x - 1) // n, n, x)


def _ratio(x) -> tuple[int, int]:
    """(p, q) with x = p / q in lowest terms, q > 0, for an int, a Fraction,
    or anything else `Fraction` reads."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def phase_g(c, c0, r) -> Fraction:
    """The phase exponent g(r), represented in [0, 1).

    With r = k/n reduced into [0, 1), the reciprocity gives g(k/n) =
    rhs(k, n) - g(n/k) (mod 1), and periodicity g(n/k) = g((n mod k)/k),
    so the recursion follows the Euclid steps (k, n) -> (n mod k, k),
    which end at k = 0 where g(0) = 0 (k and n stay coprime).  Unrolled,

        g(k/n) = sum_i (-1)^i rhs(k_i, n_i)   (mod 1)

    over the steps (k_i, n_i) with k_i > 0.  With q = (c - c0)/24 = m/6,
    m = (c - c0)/4 an integer, each term is

        rhs(k, n) = -q (3nk - (n^2+k^2+1)/(nk))
                  = (m (n^2+k^2+1) - 3m (nk)^2) / (6nk),

    so the sum is one integer numerator over the lcm of the 6nk, reduced
    mod 1 after each step, and one `Fraction` is built at the end.
    """
    (cp, cq), (dp, dq) = _ratio(c), _ratio(c0)
    quarter = 4 * cq * dq  # c - c0 = (cp*dq - dp*cq) / (cq*dq)
    diff = cp * dq - dp * cq
    if diff % quarter:
        raise PhaseConstraintError(
            f"c - c0 = {Fraction(diff, cq * dq)} is not a multiple of 4")
    m = diff // quarter
    k, n = _ratio(r)
    k %= n
    num, den, sign = 0, 1, 1
    while k:
        step = 6 * n * k
        lcm = math.lcm(den, step)
        term = m * (n * n + k * k + 1 - 3 * (n * k) ** 2)
        num = (num * (lcm // den) + sign * term * (lcm // step)) % lcm
        den = lcm
        n, k, sign = k, n % k, -sign
    return Fraction(num, den)


def lambda_mat(md: ModularData, r) -> mx.Matrix:
    """The fractional modular matrix L(r) = T^-r D(m) T^-r*."""
    r = Fraction(r)
    m = bezout(r)
    d = rep_evaluate(md, m)
    return mx.scale_cols(
        mx.scale_rows(md.t_entries(-r), d), md.t_entries(Fraction(-m.d, m.e))
    )


def lambda_hat(md: ModularData, r) -> mx.Matrix:
    """The hatted matrix exp(2*pi*i*g(r)) L(r); S at integer arguments."""
    r = Fraction(r)
    if r.denominator == 1:
        return md.s
    phase = root_of_unity_exp(phase_g(md.c, md.c0, r))
    return mx.scalar_mul(phase, lambda_mat(md, r))


def lambda_phased(md: ModularData, m: SL2ZMat) -> Phased:
    """L(r) = T^-r D(m) T^-r* at the Bezout matrix m of r, as a `Phased`
    value."""
    return Phased(md.packed, rep_evaluate_packed(md, m)).t(
        Fraction(-m.a, m.e), Fraction(-m.d, m.e))


def hat_phased(md: ModularData, q) -> Phased:
    """e(g(q)) L(q) as a `Phased` value, g = `phase_g`; S at integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return Phased(md.packed, md.packed.s)
    return lambda_phased(md, bezout(q)).t(
        scalar=phase_g(md.c, md.c0, q))


def verify_lambda_identities(md: ModularData, r) -> list[CheckRecord]:
    """The identity suite at one argument: periodicity, the 1/n closed form,
    the functional equation, transpose/conjugation symmetries for both the
    plain and hatted matrices, unitarity, Bezout independence, and the two
    derived phase symmetries.

    The matrices are those of `lambda_mat` and `lambda_hat`, held as
    `Phased` values: D(m) and the products of S are packed over the
    model's field (`md.packed`) and every fractional T power, and the
    phase of the hat, is a phase exponent."""
    suite = "lambda"
    r = Fraction(r)
    bz = bezout(r)
    dual = Fraction(bz.d, bz.e)
    pm = md.packed
    g = functools.cache(lambda q: phase_g(md.c, md.c0, q))
    lam = functools.partial(lambda_phased, md)
    records = []

    def check(name, ok, **params):
        records.append(CheckRecord(suite, name, ok, params=params))

    here = lam(bz)
    check("periodic", lam(bezout(r + 1)) == here, r=r)

    n = r.denominator
    rhs = Phased(pm, pm.s_inv.scale(cols=pm.t_power(-n)) @ pm.s).t(
        Fraction(-1, n), Fraction(-1, n))
    check("one_over_n_word", lam(bezout(Fraction(1, n))) == rhs, n=n)

    k = r.numerator
    if k == 0:
        records.append(notice(suite, "functional_equation",
                              "skipped at r = 0", r=r))
    else:
        # T^(n/k) S T^r L(r) T^(1/kn), where T^r L(r) = D(m) T^-r*
        rhs = (Phased(pm, pm.s) @ here.t(rows=r)).t(
            Fraction(n, k), Fraction(1, k * n))
        check("functional_equation", lam(bezout(Fraction(-n, k))) == rhs,
              r=r)

    check("transpose_dual", lam(bezout(dual)) == here.transpose(), r=r)
    check("conjugate_reflection",
          lam(bezout(-r)) == here.conjugate(md.conj), r=r)

    hat_here = here.t(scalar=g(r))  # equal to S at integers, as L(r) is
    check("hat_transpose_dual",
          hat_phased(md, dual) == hat_here.transpose(), r=r)
    check("hat_conjugate_reflection",
          hat_phased(md, 1 - r) == hat_here.conjugate(md.conj), r=r)
    check("hat_unitary",
          hat_here @ hat_here.conjugate().transpose()
          == Phased(pm, pm.identity()), r=r)

    for t in (1, -3):
        check("bezout_independence", lam(bz * t_gen(t)) == here, r=r, t=t)

    check("phase_dual_invariant", g(r) == g(dual), r=r)
    check("phase_odd", (g(r) + g(-r)) % 1 == 0, r=r)
    return records


def hat_functional_equation_check(md: ModularData, k: int, n: int) -> CheckRecord:
    """The spliced functional equation for the hatted matrices at the
    coprime pair (k, n):

        hat((k-n)/k) = exp(2 pi i R) T^(n/k) S T^(k/n) hat((k-n)/n) T^(1/kn)

    with R = (c - c0)(3nk - (n^2+k^2+1)/(nk))/24, on `Phased` matrices:
    T^(k/n) hat((k-n)/n) has the row phases of T^1, so S multiplies at M.
    """
    if math.gcd(k, n) != 1:
        raise ValueError("k and n must be coprime")
    big_r = (md.c - md.c0) * (3 * n * k - Fraction(n * n + k * k + 1, n * k)) / 24
    lhs = hat_phased(md, Fraction(k - n, k))
    inner = hat_phased(md, Fraction(k - n, n)).t(Fraction(k, n),
                                                 Fraction(1, k * n))
    rhs = (Phased(md.packed, md.packed.s) @ inner).t(Fraction(n, k),
                                                      scalar=big_r)
    return CheckRecord("lambda", "hat_functional_equation", lhs == rhs,
                       params={"k": k, "n": n})
