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
entries reach the `lambda --json` report, and the orbifold and Galois
suites read them.  Their D(m) is `modrep.rep_evaluate`, the packed product
read at the orders of the CycloNum chain.  The identity suite
`verify_lambda_identities` and `hat_functional_equation_check` test
equalities only, so they run on the model's packed matrices over its
single field Q(zeta_M) (`modata.packed`):
D(m) is evaluated there, and every fractional T power, and the phase of
the hat, is carried as a phase exponent of the rows, the columns or the
whole matrix (`_Phased`), never as a matrix over a larger field.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import matrixops as mx
from .cyclo import _context, root_of_unity_exp
from .errors import PhaseConstraintError
from .modrep import SL2ZMat, rep_evaluate, rep_evaluate_packed
from .modular_data import ModularData
from .packed import PackedMatrix, Scaling, _fit
from .reporting import CheckRecord, notice


@dataclass(frozen=True)
class ReducedFraction:
    """k/n in lowest terms plus Bezout data k*x - n*y = 1, dual x/n."""

    k: int
    n: int
    x: int
    y: int

    def __post_init__(self):
        if self.k * self.x - self.n * self.y != 1:
            raise ValueError("Bezout pair does not satisfy k*x - n*y = 1")

    @property
    def value(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def dual(self) -> Fraction:
        return Fraction(self.x, self.n)

    def matrix(self) -> SL2ZMat:
        return SL2ZMat(self.k, self.y, self.n, self.x)

    def shifted(self, t: int) -> "ReducedFraction":
        """Another valid Bezout pair: (x + n*t, y + k*t)."""
        return ReducedFraction(self.k, self.n, self.x + self.n * t,
                               self.y + self.k * t)


def bezout(r) -> ReducedFraction:
    """Canonical Bezout data for the reduced fraction r."""
    r = Fraction(r)
    k, n = r.numerator, r.denominator
    if n == 1:
        return ReducedFraction(k, 1, 0, -1)
    x = pow(k % n, -1, n)
    y = (k * x - 1) // n
    return ReducedFraction(k, n, x, y)


def phase_g(c, c0, r) -> Fraction:
    """The phase exponent g(r), represented in [0, 1).

    Computed by the Euclid-style recursion: reduce r into [0, 1); at k/n the
    reciprocity expresses g(k/n) through g(n/k), whose argument reduces by
    periodicity to (n mod k)/k, so coprimality drives the recursion to zero.
    """
    c, c0, r = Fraction(c), Fraction(c0), Fraction(r)
    diff = c - c0
    if diff.denominator != 1 or diff.numerator % 4 != 0:
        raise PhaseConstraintError(f"c - c0 = {diff} is not a multiple of 4")
    q = diff / 24

    def rec(x: Fraction) -> Fraction:
        x = x - math.floor(x)
        if x == 0:
            return Fraction(0)
        k, n = x.numerator, x.denominator
        rhs = -q * (3 * n * k - Fraction(n * n + k * k + 1, n * k))
        val = rhs - rec(Fraction(n, k))
        return val - math.floor(val)

    return rec(r)


def lambda_mat(md: ModularData, r) -> mx.Matrix:
    """The fractional modular matrix L(r) = T^-r D(m) T^-r*."""
    r = Fraction(r)
    bez = bezout(r)
    d = rep_evaluate(md, bez.matrix())
    return mx.scale_cols(
        mx.scale_rows(md.t_entries(-r), d), md.t_entries(-bez.dual)
    )


def lambda_hat(md: ModularData, r) -> mx.Matrix:
    """The hatted matrix exp(2*pi*i*g(r)) L(r); S at integer arguments."""
    r = Fraction(r)
    if r.denominator == 1:
        return md.s
    phase = root_of_unity_exp(phase_g(md.c, md.c0, r))
    return mx.scalar_mul(phase, lambda_mat(md, r))


def _field_root(p: int, den: int, order: int) -> tuple[int, int] | None:
    """exp(2*pi*i*p/den) as (sign, k), the value sign * zeta_order^k, when
    it lies in Q(zeta_order); else None.

    The roots of unity of Q(zeta_M) are the M-th ones for even M and the
    2M-th ones for odd M, where zeta_2M = -zeta_M^((M+1)/2)."""
    big = order if order % 2 == 0 else 2 * order
    if p * big % den:
        return None
    j = p * big // den % big
    if big == order:
        return 1, j
    return (-1) ** j, j * (order + 1) // 2 % order


def _times_root(ctx, digits, root) -> list[int]:
    """The reduced digits of sign * zeta^k * x, for the digits of x."""
    sign, k = root
    return [sign * c for c in ctx.substitute(digits, 1, k)]


class _Phased:
    """The matrix e(a_i + b_j + c) X_ij, e(q) = exp(2*pi*i*q), of a model
    packed as `pm` (a `PackedModel`): X is packed over the model's field
    Q(zeta_M), and the row phases a, the column phases b and the scalar
    phase c are integer numerators over one denominator `den`.

    T to a fractional power is a diagonal of roots of unity outside that
    field, so it is carried in the phases: T^u (e(c) X) T^v has the phases
    u*w_i and v*w_j, with T = diag(e(w_i)).  Transposes, conjugates and row
    permutations act on X and move or negate the phases; a product is taken
    at M, and `mismatches` compares entries as the one exact rule of
    equality.
    """

    __slots__ = ("pm", "x", "den", "a", "b", "c")

    def __init__(self, pm, x: PackedMatrix, den: int = 1, a=None, b=None,
                 c: int = 0):
        self.pm = pm
        self.x = x
        self.den = den
        zero = (0,) * pm.rank
        self.a = zero if a is None else a
        self.b = zero if b is None else b
        self.c = c

    def t(self, rows=0, cols=0, scalar=0) -> "_Phased":
        """T^rows e(scalar) (this matrix) T^cols, for rational exponents."""
        rows, cols, scalar = Fraction(rows), Fraction(cols), Fraction(scalar)
        order = self.pm.order
        den = math.lcm(self.den, rows.denominator * order,
                       cols.denominator * order, scalar.denominator)
        f = den // self.den
        u = rows.numerator * (den // (rows.denominator * order))
        v = cols.numerator * (den // (cols.denominator * order))
        w = self.pm.t_weights
        return _Phased(self.pm, self.x, den,
                       tuple(f * p + u * q for p, q in zip(self.a, w)),
                       tuple(f * p + v * q for p, q in zip(self.b, w)),
                       f * self.c + scalar.numerator * (den // scalar.denominator))

    def transpose(self) -> "_Phased":
        return _Phased(self.pm, self.x.transpose(), self.den, self.b, self.a,
                       self.c)

    def conjugate(self, perm=None) -> "_Phased":
        """The complex conjugate, its row p taken from row perm[p]."""
        perm = perm or range(self.pm.rank)
        x = self.x.sigma(self.pm.order - 1).take_rows(perm)
        return _Phased(self.pm, x, self.den, tuple(-self.a[p] for p in perm),
                       tuple(-q for q in self.b), -self.c)

    def dagger(self) -> "_Phased":
        return self.conjugate().transpose()

    def __matmul__(self, other: "_Phased") -> "_Phased":
        """The product, multiplied at M: the middle phases b_l + a'_l must
        lie in Q(zeta_M), and scale the rows of the right factor."""
        order = self.pm.order
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        middle = [_field_root(f * p + g * q, den, order)
                  for p, q in zip(self.b, other.a)]
        if None in middle:
            raise ValueError("a middle phase lies outside Q(zeta_M)")
        right = other.x
        if any(root != (1, 0) for root in middle):
            right = right.scale(Scaling(order, [
                _times_root(_context(order), [1], root) for root in middle]))
        return _Phased(self.pm, self.x @ right, den,
                       tuple(f * p for p in self.a),
                       tuple(g * q for q in other.b),
                       f * self.c + g * other.c)

    def mismatches(self, other: "_Phased"):
        """The (i, j) of the entries where this matrix and `other` differ,
        in row-major order.

        Entry (i, j) of each side is equal when X_ij e(d_ij) == Y_ij, d_ij
        the difference of their phases.  When e(d_ij) lies in Q(zeta_M), it
        is sign * zeta_M^k, and the sides compare as sign * zeta_M^k * x *
        den_y == y * den_x, the root applied as an exponent shift of the
        digits of x; otherwise both entries lie in the field and e(d_ij)
        does not, so they are equal only when both are zero."""
        order = self.pm.order
        ctx = _context(order)
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        da = [f * p - g * q for p, q in zip(self.a, other.a)]
        db = [f * p - g * q for p, q in zip(self.b, other.b)]
        dc = f * self.c - g * other.c
        # one width at which x * dy - y * dx has no carry, as in
        # `PackedMatrix.mismatches`; a shifted entry is compared unpacked
        xm, ym = _fit(lambda a, b: max(a.bits + b.den.bit_length(),
                                       b.bits + a.den.bit_length()),
                      self.x, other.x)
        dx, dy = xm.den, ym.den
        unpack = xm.packing.unpack
        for i, (ai, xr, yr) in enumerate(zip(da, xm.rows, ym.rows)):
            for j, (bj, x, y) in enumerate(zip(db, xr, yr)):
                root = _field_root(ai + bj + dc, den, order)
                if root is None:
                    if x or y:
                        yield i, j
                elif root == (1, 0):
                    if x * dy != y * dx:
                        yield i, j
                elif any(p * dy != q * dx for p, q in zip(
                        _times_root(ctx, unpack(x), root), unpack(y))):
                    yield i, j

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Phased):
            return NotImplemented
        return next(self.mismatches(other), None) is None

    __hash__ = None


def _lam(md: ModularData, bez: ReducedFraction) -> _Phased:
    """L(r) = T^-r D(m) T^-r* at the Bezout data of r."""
    return _Phased(md.packed, rep_evaluate_packed(md, bez.matrix())).t(
        -bez.value, -bez.dual)


def _hat(md: ModularData, q, g) -> _Phased:
    """e(g(q)) L(q), g the phase function; S at integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return _Phased(md.packed, md.packed.s)
    return _lam(md, bezout(q)).t(scalar=g(q))


def verify_lambda_identities(md: ModularData, r) -> list[CheckRecord]:
    """The identity suite at one argument: periodicity, the 1/n closed form,
    the functional equation, transpose/conjugation symmetries for both the
    plain and hatted matrices, unitarity, Bezout independence, and the two
    derived phase symmetries.

    The matrices are those of `lambda_mat` and `lambda_hat`, held as
    `_Phased` values: D(m) and the products of S are packed over the
    model's field (`md.packed`) and every fractional T power, and the
    phase of the hat, is a phase exponent."""
    suite = "lambda"
    r = Fraction(r)
    bz = bezout(r)
    pm = md.packed
    g = functools.cache(lambda q: phase_g(md.c, md.c0, q))
    records = []

    here = _lam(md, bz)
    records.append(CheckRecord(
        suite, "periodic", _lam(md, bezout(r + 1)) == here, params={"r": r}))

    n = r.denominator
    rhs = _Phased(pm, pm.s_inv.scale(cols=pm.t_power(-n)) @ pm.s).t(
        Fraction(-1, n), Fraction(-1, n))
    records.append(CheckRecord(
        suite, "one_over_n_word", _lam(md, bezout(Fraction(1, n))) == rhs,
        params={"n": n}))

    k = r.numerator
    if k == 0:
        records.append(notice(suite, "functional_equation",
                              "skipped at r = 0", r=r))
    else:
        # T^(n/k) S T^r L(r) T^(1/kn), where T^r L(r) = D(m) T^-r*
        rhs = (_Phased(pm, pm.s) @ here.t(rows=r)).t(
            Fraction(n, k), Fraction(1, k * n))
        records.append(CheckRecord(
            suite, "functional_equation",
            _lam(md, bezout(Fraction(-n, k))) == rhs, params={"r": r}))

    records.append(CheckRecord(
        suite, "transpose_dual",
        _lam(md, bezout(bz.dual)) == here.transpose(), params={"r": r}))

    records.append(CheckRecord(
        suite, "conjugate_reflection",
        _lam(md, bezout(-r)) == here.conjugate(md.conj), params={"r": r}))

    hat_here = here.t(scalar=g(r))  # equal to S at integers, as L(r) is
    records.append(CheckRecord(
        suite, "hat_transpose_dual",
        _hat(md, bz.dual, g) == hat_here.transpose(), params={"r": r}))

    records.append(CheckRecord(
        suite, "hat_conjugate_reflection",
        _hat(md, 1 - r, g) == hat_here.conjugate(md.conj), params={"r": r}))

    records.append(CheckRecord(
        suite, "hat_unitary",
        hat_here @ hat_here.dagger() == _Phased(pm, pm.identity()),
        params={"r": r}))

    for t in (1, -3):
        records.append(CheckRecord(
            suite, "bezout_independence",
            _lam(md, bz.shifted(t)) == here, params={"r": r, "t": t}))

    records.append(CheckRecord(
        suite, "phase_dual_invariant", g(r) == g(bz.dual), params={"r": r}))
    records.append(CheckRecord(
        suite, "phase_odd", (g(r) + g(-r)) % 1 == 0, params={"r": r}))

    return records


def hat_functional_equation_check(md: ModularData, k: int, n: int) -> CheckRecord:
    """The spliced functional equation for the hatted matrices at the
    coprime pair (k, n):

        hat((k-n)/k) = exp(2 pi i R) T^(n/k) S T^(k/n) hat((k-n)/n) T^(1/kn)

    with R = (c - c0)(3nk - (n^2+k^2+1)/(nk))/24, on `_Phased` matrices:
    T^(k/n) hat((k-n)/n) has the row phases of T^1, so S multiplies at M.
    """
    if math.gcd(k, n) != 1:
        raise ValueError("k and n must be coprime")
    big_r = (md.c - md.c0) * (3 * n * k - Fraction(n * n + k * k + 1, n * k)) / 24
    g = functools.partial(phase_g, md.c, md.c0)
    lhs = _hat(md, Fraction(k - n, k), g)
    inner = _hat(md, Fraction(k - n, n), g).t(Fraction(k, n),
                                              Fraction(1, k * n))
    rhs = (_Phased(md.packed, md.packed.s) @ inner).t(Fraction(n, k),
                                                      scalar=big_r)
    return CheckRecord("lambda", "hat_functional_equation", lhs == rhs,
                       params={"k": k, "n": n})
