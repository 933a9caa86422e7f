"""Galois action on modular data.

The Frobenius zeta -> zeta^l acts entrywise on S as a signed permutation of
columns and on T as T -> T^l.  This module extracts the signed permutation,
machine-checks the conjugation and word formulas for it, tests membership in
the representation kernel against the arithmetic criterion, runs the
congruence-subgroup sampling suites, and extracts the diagonal phase
matrices relating Frobenius images of the fractional modular matrices.

The signed permutation G acts as an index map, never as a matrix product:
G^-1 X is row i = signs[i] * row perm[i] of X, and G^-1 diag(d) G is
diag(d[perm[i]]).  Only the generator-word check compares with G as a
matrix, an integer one.

`parity_decompose`, the generator word, the congruence sampling checks and
`kernel_test` run on the model's packed S, with T powers as scalings: S,
S^-1, D(m) and T lie in one field Q(zeta_M), M the lcm of the conductor
and the stored S orders, so identity and equality tests and sigma_l build
no CycloNum.  sigma_l acts on Q(zeta_M) through a lift l' = l (mod n)
coprime to M, the same automorphism on the conductor field that holds
every entry.  The Frobenius check evaluates sigma_l(D(m)) as the word of
m in sigma_l syllables (`rep_evaluate_packed(md, m, l')`), so it takes no
sigma of a product; `kernel_test` keeps sigma_d(D(m)), which measured no
slower than a second word.  `sigma_matrix` remains for one row of T and
`z_matrix`.

Applying sigma_l to a matrix whose entries live at mixed ambient orders uses
a lift l' = l (mod the field modulus that determines the action) chosen
coprime to the working order; existence is guaranteed because every prime of
the working order either divides the modulus (where l is already a unit) or
can be dodged by shifting l by multiples of the modulus.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import matrixops as mx
from .cyclo import root_of_unity_exp
from .errors import (
    LiftNotFoundError,
    NoMonomialStructureError,
    NotCoprimeError,
    NotDiagonalError,
)
from .lambdamat import bezout, lambda_hat
from .modrep import (
    Lcg,
    SL2ZMat,
    in_gamma,
    in_gamma1,
    lift_to_sl2z,
    random_word_matrix,
    rep_evaluate_packed,
    sample_gamma,
    t_gen,
    tau_l,
)
from .modular_data import ModularData
from .packed import integers
from .reporting import CheckRecord, first_failure, notice


@dataclass(frozen=True)
class MonomialSignedPerm:
    """A signed permutation: as a matrix, G[i][j] = signs[j]*delta(i, perm[j])."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def inverse_times(self, m: mx.Matrix) -> mx.Matrix:
        """G^-1 m: row i is signs[i] times row perm[i] of m."""
        return tuple(m[p] if e > 0 else tuple(-x for x in m[p])
                     for p, e in zip(self.perm, self.signs))

    def conjugate_diagonal(self, entries) -> tuple:
        """The diagonal of G^-1 diag(entries) G: entry i is entries[perm[i]]."""
        return tuple(entries[p] for p in self.perm)

    def compose(self, other: "MonomialSignedPerm") -> "MonomialSignedPerm":
        perm = tuple(self.perm[other.perm[j]] for j in range(len(self.perm)))
        signs = tuple(
            self.signs[other.perm[j]] * other.signs[j]
            for j in range(len(self.perm))
        )
        return MonomialSignedPerm(perm, signs)


def coprime_lift(l: int, modulus: int, working_order: int) -> int:
    """The smallest l' >= 1 with l' = l (mod modulus), gcd(l', working) = 1."""
    if math.gcd(l, modulus) != 1:
        raise NotCoprimeError(f"gcd({l}, {modulus}) != 1")
    base = l % modulus
    if base == 0:  # modulus == 1
        base = 1
        modulus = 1
    cand = base if base else modulus
    for _ in range(4 * working_order + 8):
        if math.gcd(cand, working_order) == 1:
            return cand
        cand += modulus
    raise LiftNotFoundError(
        f"no unit lift of {l} mod {modulus} against order {working_order}"
    )


def sigma_matrix(l: int, m: mx.Matrix, modulus: int) -> mx.Matrix:
    """Apply the Frobenius determined by l mod `modulus` to every entry."""
    working = 1
    for row in m:
        for x in row:
            working = math.lcm(working, x.order)
    lp = coprime_lift(l, modulus, working)
    return tuple(tuple(x.galois(lp % x.order) for x in row) for row in m)


def parity_decompose(md: ModularData, l: int) -> MonomialSignedPerm:
    """The signed column permutation with sigma_l(S) = S G, read off by
    matching columns (so S G holds by construction), then checked against
    the left factorization sigma_l(S) = G^-1 S row by row, both on the
    packed S: S and sigma_l(S) share one denominator, so at one width two
    entries are equal exactly when their packed ints are."""
    pk = md.packed
    lp = coprime_lift(l, md.conductor_n(), pk.order)
    pair = pk.s, pk.sigma_s(lp)
    width = max(m.packing.width for m in pair)
    s, sig = (m if m.packing.width == width else m.lift(width) for m in pair)
    cols_s = list(zip(*s.rows))
    perm, signs = [], []
    for mu, col in enumerate(zip(*sig.rows)):
        matches = [(nu, e) for nu, other in enumerate(cols_s) for e in (1, -1)
                   if all(x == e * y for x, y in zip(col, other))]
        if len(matches) != 1:
            raise NoMonomialStructureError(
                f"column {mu} has {len(matches)} signed matches under l={l}"
            )
        perm.append(matches[0][0])
        signs.append(matches[0][1])
    if sorted(perm) != list(range(md.rank)):
        raise NoMonomialStructureError("column matches are not a permutation")
    if any(row != tuple(e * x for x in s.rows[p])
           for row, p, e in zip(sig.rows, perm, signs)):
        raise NoMonomialStructureError("left factorization failed")
    return MonomialSignedPerm(tuple(perm), tuple(signs))


def verify_galois_identities(md: ModularData, l: int) -> list[CheckRecord]:
    """Frobenius on T, its conjugation by the signed permutation, and the
    generator-word formula for the signed permutation itself, the word
    S^-1 T^l S T^lhat S T^l taken as packed products."""
    suite = "galois"
    n = md.conductor_n()
    if math.gcd(l, n) != 1:
        raise NotCoprimeError(f"gcd({l}, {n}) != 1")
    records = []
    sig_t = sigma_matrix(l, (md.t_entries(1),), n)
    records.append(
        CheckRecord(suite, "t_frobenius_power",
                    mx.mat_eq(sig_t, (md.t_entries(l),)),
                    params={"l": l})
    )
    g = parity_decompose(md, l)
    records.append(
        CheckRecord(suite, "t_conjugation_l_squared",
                    g.conjugate_diagonal(md.t_entries(1))
                    == md.t_entries(l * l),
                    params={"l": l})
    )
    lhat = pow(l % n, -1, n) if n > 1 else 0
    pk = md.packed
    word = pk.s_inv @ pk.product((l, lhat), l, False)
    g_rows = [[e if p == i else 0 for p, e in zip(g.perm, g.signs)]
              for i in range(md.rank)]
    records.append(
        CheckRecord(suite, "g_generator_word",
                    word == integers(pk.order, g_rows),
                    params={"l": l, "lhat": lhat})
    )
    return records


def g_multiplicative_check(md: ModularData, l: int, m: int) -> CheckRecord:
    g_l = parity_decompose(md, l)
    g_m = parity_decompose(md, m)
    g_lm = parity_decompose(md, l * m)
    ok = g_l.compose(g_m) == g_lm
    return CheckRecord("galois", "g_multiplicative", ok,
                       params={"l": l, "m": m})


@dataclass(frozen=True)
class KernelTestResult:
    """Direct kernel membership, the arithmetic criterion (when the lower
    right entry is a unit mod the conductor), and the Frobenius
    factorization identity for the represented matrix."""

    direct: bool
    criterion: bool | None
    sigma_factorization: bool | None


def kernel_test(md: ModularData, m: SL2ZMat) -> KernelTestResult:
    """D(m) == I, and for d a unit mod n the criterion sigma_d(S) T^b ==
    T^e S and the factorization sigma_d(D(m)) == T^b S^-1 T^-e sigma_d(S),
    with the T powers as scalings (the criterion's two sides are symmetric,
    so it holds with rows and columns swapped) and sigma_d(S) cached."""
    n = md.conductor_n()
    dm = rep_evaluate_packed(md, m)
    direct = dm.is_identity()
    criterion = factorization = None
    if math.gcd(m.d, n) == 1:
        pk = md.packed
        lp = coprime_lift(m.d, n, pk.order)
        sig_s = pk.sigma_s(lp)
        criterion = (sig_s.scale(cols=pk.t_power(m.b))
                     == pk.s.scale(rows=pk.t_power(m.e)))
        rhs = pk.s_inv.scale(pk.t_power(m.b), pk.t_power(-m.e)) @ sig_s
        factorization = dm.sigma(lp) == rhs
    return KernelTestResult(direct, criterion, factorization)


def congruence_suite(md: ModularData, samples: int, seed: int,
                     ls: tuple[int, ...] = (5, 7, 11)) -> list[CheckRecord]:
    """Sampling checks: level-n elements act trivially, the Frobenius
    intertwines the representation with the entry-rescaling automorphism,
    and elements of the intermediate subgroup act trivially exactly when
    they lie in the principal congruence subgroup."""
    suite = "congruence"
    n = md.conductor_n()
    rng = Lcg(seed)
    records = []

    # Each scan stops at its first witness, so every sample is drawn before
    # the scan starts: later checks then see the same stream of draws.
    drawn = [sample_gamma(n, rng) for _ in range(samples)]
    records.append(first_failure(
        suite, "level_subgroup_in_kernel",
        (f"sample {i}: {m.to_obj()}" for i, m in enumerate(drawn)
         if not rep_evaluate_packed(md, m).is_identity()),
        n=n, samples=samples,
    ))

    for l in ls:
        if math.gcd(l, n) != 1:
            records.append(
                notice(suite, "equivariance_skipped",
                       f"l={l} shares a factor with n={n}", l=l, n=n)
            )
            continue
        drawn = [random_word_matrix(rng) for _ in range(samples)]
        lp = coprime_lift(l, n, md.packed.order)
        records.append(first_failure(
            suite, "frobenius_equivariance",
            (f"sample {i}: {m.to_obj()}" for i, m in enumerate(drawn)
             for lifted in [lift_to_sl2z(n, tau_l(m, l, n))]
             if rep_evaluate_packed(md, m, lp)
             != rep_evaluate_packed(md, lifted)),
            l=l, n=n, samples=samples,
        ))

    if n == 1:
        records.append(
            notice(suite, "intermediate_subgroup", "vacuous at level 1", n=n)
        )
        return records
    drawn = [  # b is drawn before the two level-n elements
        sample_gamma(n, rng) * t_gen(b) * sample_gamma(n, rng)
        for _ in range(samples) for b in [rng.int_in(1, n - 1)]
    ]
    records.append(first_failure(
        suite, "intermediate_subgroup",
        (f"sample {i}: {m.to_obj()}" for i, m in enumerate(drawn)
         if not in_gamma1(n, m)
         or in_gamma(n, m)
         or rep_evaluate_packed(md, m).is_identity()),
        n=n, samples=samples,
    ))
    return records


# -- diagonal phase matrices for the fractional modular matrices --------


def _entry_modulus(md: ModularData, *args: Fraction) -> int:
    # Entries of the hatted matrix at argument s are scalar phases times
    # elements of Q(zeta_{n*den(s)}) (the diagonal powers contribute n*den,
    # the represented word stays inside the conductor field), so the exact
    # field modulus is that times the order of each scalar phase.
    from .lambdamat import phase_g

    n = md.conductor_n()
    modulus = n
    for s in args:
        modulus = math.lcm(modulus, n * s.denominator)
        modulus = math.lcm(modulus, phase_g(md.c, md.c0, s).denominator)
    return modulus


def z_matrix(md: ModularData, l: int, r) -> mx.Matrix:
    """The diagonal matrix Z_l(r), extracted from the Frobenius image of the
    hatted fractional matrix at the dual argument; raises NotDiagonalError
    when extraction fails."""
    r = Fraction(r)
    m = bezout(r)
    rstar = Fraction(m.d, m.e)
    lr = l * rstar
    modulus = _entry_modulus(md, rstar, lr)
    if math.gcd(l, modulus) != 1:
        raise NotCoprimeError(f"gcd({l}, {modulus}) != 1")
    hat_r = lambda_hat(md, rstar)
    hat_lr = lambda_hat(md, lr)
    g = parity_decompose(md, l)
    z = g.inverse_times(
        mx.mat_mul(mx.dagger(hat_lr), sigma_matrix(l, hat_r, modulus)))
    if not mx.is_diagonal(z):
        raise NotDiagonalError(f"extraction at l={l}, r={r} is not diagonal")
    for x in mx.diag_entries(z):
        if x ** r.denominator != 1:
            raise NotDiagonalError(
                f"diagonal entry {x!r} has order not dividing {r.denominator}"
            )
    return z


def z_suite(md: ModularData, l: int, m: int, r) -> list[CheckRecord]:
    """Diagonality/order of Z_l(r) plus its cocycle and power laws."""
    suite = "zmatrix"
    r = Fraction(r)
    den = r.denominator
    records = []
    z_l = z_matrix(md, l, r)
    records.append(
        CheckRecord(suite, "diagonal_with_bounded_order", True,
                    params={"l": l, "r": r})
    )
    records.append(
        CheckRecord(suite, "argument_zero_is_identity",
                    mx.is_identity(z_matrix(md, l, Fraction(0))),
                    params={"l": l})
    )
    records.append(
        CheckRecord(suite, "argument_periodic",
                    mx.mat_eq(z_matrix(md, l, r + 1), z_l),
                    params={"l": l, "r": r})
    )
    g_l = parity_decompose(md, l)
    lhat = pow(l % den, -1, den) if den > 1 else 0
    lhs = g_l.conjugate_diagonal(mx.diag_entries(z_matrix(md, m, lhat * r)))
    rhs = tuple(x * y ** (-m) for x, y in zip(
        mx.diag_entries(z_matrix(md, l * m, r)), mx.diag_entries(z_l)))
    records.append(
        CheckRecord(suite, "cocycle", lhs == rhs,
                    params={"l": l, "m": m, "r": r})
    )
    power_ok = mx.mat_eq(
        mx.diagonal(tuple(x ** m for x in mx.diag_entries(z_l))),
        z_matrix(md, l, m * r),
    )
    records.append(
        CheckRecord(suite, "power_law", power_ok,
                    params={"l": l, "n": m, "r": r})
    )
    # conjugating a fractional T power by G_l picks up the l-th power of
    # the phase matrix and an explicit central-charge phase
    lhs = g_l.conjugate_diagonal(md.t_entries(r))
    phase = root_of_unity_exp(-(l * l - 1) * (md.c - md.c0) * r / 24)
    rhs = tuple(phase * (t * x ** l) for t, x in zip(
        md.t_entries(l * l * r), mx.diag_entries(z_l)))
    records.append(
        CheckRecord(suite, "fractional_t_conjugation", lhs == rhs,
                    params={"l": l, "r": r})
    )
    return records
