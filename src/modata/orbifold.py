"""Cyclic permutation-orbifold sector data.

Sectors of the order-N cyclic orbifold are labeled by triples
(parent label, twist n mod N, charge k mod N).  Entries of the orbifold
S matrix are determined when at least one twist is a unit mod N:

    S[(lam, n, k), (mu, m, l)] = (1/N) zeta_N^-(k*m + l*n) hat_{lam,mu}(m n^ / N)

with n^ the mod-N inverse of the unit twist, hat the phase-corrected
fractional modular matrix of the parent, and, for untwisted columns, the
parent S with the distinguished order-two automorphism acting on the row
label.  Entries where neither twist is a unit are out of scope and raise,
matching what the construction determines; the module therefore never
assembles a full orbifold datum, it exposes entries and reports only.

The distinguished automorphism is the vacuum for odd N (a theorem), and the
configurable tau2 of the parent datum for even N; every report states which
convention was active.  The orbifold phase representative scales as
c0(orbifold) = N * c0(parent).

`orb_s_entry` builds one entry as a CycloNum.  The consistency and charge
reports instead compare whole blocks: `orb_s_block` holds the rank x rank
entries of one pair of twists and charges as one `packed.Phased` value,
the `lambdamat.hat_phased` hat over the parent's field Q(zeta_M), divided
by N with `Phased.over`, its phases kept as exponents, so a check costs
rank^2 packed comparisons per block rather than rank^2 CycloNum products at
orders up to lcm(M, N).  Each block check yields its witnesses in the
order of the entry loop it replaces.  The unitarity of each hat is still
checked on the CycloNum `OrbSlice.hat`, and `orb_s_entry` is the oracle of
the blocks in the tests.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import matrixops as mx
from .cyclo import CycloNum, root, root_of_unity_exp
from .errors import NonIntegralMultiplicityError, OutOfScopeError
from .lambdamat import hat_phased, lambda_hat
from .modular_data import ModularData, is_real_positive
from .packed import Phased
from .reporting import CheckRecord, first_failure, notice


@dataclass(frozen=True)
class OrbLabel:
    """One orbifold sector: parent label index, twist and charge mod N."""

    base: int
    twist: int
    charge: int

    def to_obj(self, parent: ModularData) -> dict:
        return {
            "base": parent.labels[self.base],
            "twist": self.twist,
            "charge": self.charge,
        }


class OrbSlice:
    """The computable slice of one cyclic orbifold; immutable."""

    def __init__(self, parent: ModularData, order: int):
        if order < 2:
            raise ValueError("cycle order must be at least 2")
        self.parent = parent
        self.n = order
        self.c0 = parent.c0 * order
        self.tau = parent.tau2 if order % 2 == 0 else 0
        self._hat_cache: dict[int, mx.Matrix] = {}
        self._hat_blocks: dict[int, Phased] = {}
        self._t_roots: dict[int, CycloNum] = {}

    def zeta(self, e: int) -> CycloNum:
        """zeta_N^e: the one instance the context of N keeps per e mod N."""
        return root(self.n, e)

    def hat(self, i: int) -> mx.Matrix:
        i %= self.n
        cached = self._hat_cache.get(i)
        if cached is None:
            cached = lambda_hat(self.parent, Fraction(i, self.n))
            self._hat_cache[i] = cached
        return cached

    def hat_block(self, i: int) -> Phased:
        """`hat(i)` as one packed `Phased` value over the parent's field,
        its phases kept as exponents; built once per i mod N."""
        i %= self.n
        cached = self._hat_blocks.get(i)
        if cached is None:
            cached = self._hat_blocks[i] = hat_phased(
                self.parent, Fraction(i, self.n))
        return cached

    def t_root(self, lam: int) -> CycloNum:
        """T_lam^(1/N) * exp(2*pi*i*(c - c0)(N - 1/N)/24), the part of a
        twisted-sector T entry that does not depend on twist and charge;
        built once per label."""
        value = self._t_roots.get(lam)
        if value is None:
            parent, n = self.parent, self.n
            value = self._t_roots[lam] = root_of_unity_exp(
                (parent.delta[lam] - parent.c0 / 24) / n
            ) * root_of_unity_exp(
                (parent.c - parent.c0) * (n - Fraction(1, n)) / 24)
        return value

    @functools.cached_property
    def twist_dim(self) -> CycloNum:
        """The factor (1/S_00)^(N-1) of every unit-twist dimension."""
        return self.parent.s00_inv() ** (self.n - 1)

    def convention_note(self, suite: str) -> CheckRecord:
        tau_name = self.parent.labels[self.tau]
        return notice(
            suite,
            "conventions",
            f"distinguished automorphism = label {tau_name!r} "
            f"({'theorem' if self.n % 2 else 'configured'}), "
            f"orbifold c0 = {self.c0}",
            n=self.n,
        )


def orb_s_entry(slice_: OrbSlice, a: OrbLabel, b: OrbLabel) -> CycloNum:
    """One orbifold S entry; requires a unit twist on at least one side."""
    n_cyc = slice_.n
    if math.gcd(a.twist, n_cyc) != 1:
        if math.gcd(b.twist, n_cyc) != 1:
            raise OutOfScopeError(
                f"both twists {a.twist}, {b.twist} are non-units mod {n_cyc}"
            )
        a, b = b, a
    parent = slice_.parent
    tw_a, ch_a = a.twist % n_cyc, a.charge % n_cyc
    tw_b, ch_b = b.twist % n_cyc, b.charge % n_cyc
    phase = slice_.zeta(-(ch_a * tw_b + ch_b * tw_a))
    if tw_b == 0:
        row = parent.fuse_auto(slice_.tau, a.base) if slice_.tau else a.base
        base = parent.s[row][b.base]
    else:
        nhat = pow(tw_a, -1, n_cyc)
        base = slice_.hat(tw_b * nhat)[a.base][b.base]
    return phase * base * Fraction(1, n_cyc)


def orb_s_block(slice_: OrbSlice, ta: int, tb: int, j1: int, j2: int
                ) -> Phased:
    """The S entries [(lam, ta, j1), (mu, tb, j2)] over all parent labels
    lam, mu, for a unit twist ta, as one packed `Phased` value: the hat
    at tb * ta^-1 / N, or for tb = 0 the parent S with the distinguished
    automorphism acting on the rows, over N and at the scalar phase
    -(j1 * tb + j2 * ta) / N.  Entry (lam, mu) is the `orb_s_entry` of
    those labels."""
    n_cyc = slice_.n
    if math.gcd(ta, n_cyc) != 1:
        raise OutOfScopeError(f"twist {ta} is not a unit mod {n_cyc}")
    tb %= n_cyc
    if tb == 0:
        parent = slice_.parent
        pm = parent.packed
        s = pm.s
        if slice_.tau:
            s = s.take_rows([parent.fuse_auto(slice_.tau, lam)
                             for lam in range(parent.rank)])
        base = Phased(pm, s)
    else:
        base = slice_.hat_block(tb * pow(ta, -1, n_cyc))
    return base.over(n_cyc).t(scalar=Fraction(-(j1 * tb + j2 * ta), n_cyc))


def orb_t_entry(slice_: OrbSlice, a: OrbLabel) -> CycloNum:
    """One twisted-sector T entry, for unit twist:
    zeta_N^(n*k) * T_lam^(1/N) * exp(2*pi*i*(c - c0)(N - 1/N)/24)."""
    n_cyc = slice_.n
    if math.gcd(a.twist, n_cyc) != 1:
        raise OutOfScopeError(f"twist {a.twist} is not a unit mod {n_cyc}")
    return slice_.t_root(a.base) * slice_.zeta(a.twist * a.charge)


def orb_qdim(slice_: OrbSlice, a: OrbLabel) -> CycloNum:
    """Quantum dimension: the parent value for untwisted sectors, scaled by
    the (N-1)-th power of the square root of the parent total index for
    unit twists."""
    parent = slice_.parent
    if a.twist % slice_.n == 0:
        return parent.qdim(a.base)
    if math.gcd(a.twist, slice_.n) != 1:
        raise OutOfScopeError(f"twist {a.twist} is not a unit mod {slice_.n}")
    return parent.qdim(a.base) * slice_.twist_dim


def mu_scaling_check(slice_: OrbSlice) -> list[CheckRecord]:
    """Sum of squared dimensions over unit-twist sectors, against the scaled
    total index of the orbifold (a partial sum, since non-unit twists are
    out of scope)."""
    suite = "orbifold"
    n_cyc = slice_.n
    parent = slice_.parent
    phi_n = sum(1 for t in range(n_cyc) if math.gcd(t, n_cyc) == 1)
    # a unit-twist dimension depends on the label only, so the phi(N) unit
    # twists and N charges of a label share one square
    total = sum(
        (d * d for d in (orb_qdim(slice_, OrbLabel(lam, 1 % n_cyc, 0))
                         for lam in range(parent.rank))),
        CycloNum.zero(),
    ) * (phi_n * n_cyc)
    mu_pow = parent.s00_inv() ** (2 * n_cyc)  # parent total index to the N
    expected = mu_pow * (phi_n * n_cyc)
    scaled_total = mu_pow * (n_cyc * n_cyc)
    records = [
        CheckRecord(
            suite, "unit_twist_index_sum",
            total == expected,
            params={"n": n_cyc, "phi_n": phi_n},
        ),
        CheckRecord(
            suite, "index_sum_below_scaled_total",
            is_real_positive(scaled_total - total),
            params={"n": n_cyc},
            witness="coprime part phi(N)*N*mu^N of the total N^2*mu^N",
        ),
    ]
    return records


def soliton_multiplicity(md: ModularData, labels) -> int:
    """Multiplicity of a parent-label tuple in the n-th power of the basic
    cyclic soliton: the genus-(n-1)(n-2)/2 character sum over S columns.

    Must evaluate to a nonnegative integer; anything else raises."""
    labels = tuple(labels)
    n = len(labels)
    if n < 2:
        raise ValueError("need at least two labels")
    genus = (n - 1) * (n - 2) // 2
    inv_power = n + 2 * genus - 2  # vacuum-row inverse appears to this power
    acc = sum(
        (math.prod((md.s[lam][d] for lam in labels),
                   start=md.s0_inv(d) ** inv_power)
         for d in range(md.rank)),
        CycloNum.zero(),
    )
    if not acc.is_nonneg_integer():
        raise NonIntegralMultiplicityError(
            f"multiplicity of {labels} is {acc!r}, not a nonnegative integer"
        )
    return acc.nums[0]


def _factorization_entry(slice_: OrbSlice, a: OrbLabel, b: OrbLabel) -> CycloNum:
    # Entry with twists the two parts of an odd coprime split N = k*n:
    # both distinguished automorphisms are the vacuum (odd orders), leaving
    # (1/N) * charge phase * parent S.
    parent = slice_.parent
    phase = slice_.zeta(-(a.charge * b.twist + b.charge * a.twist))
    return phase * parent.s[a.base][b.base] * Fraction(1, slice_.n)


def consistency_report(slice_: OrbSlice) -> list[CheckRecord]:
    """Cross-checks of the entry constructor: definitional closure against
    the hatted matrices, two-route path independence, the odd coprime
    factorization entry, and unitarity of every hatted matrix used."""
    suite = "orbifold"
    n_cyc = slice_.n
    parent = slice_.parent
    rank = parent.rank
    records = [slice_.convention_note(suite)]
    units = [t for t in range(1, n_cyc) if math.gcd(t, n_cyc) == 1]

    records.append(first_failure(
        suite, "hat_closure",
        (f"i={i}, entry ({lam},{mu})"
         for i in units
         for lam, mu in orb_s_block(slice_, 1, i, 0, 0).mismatches(
             slice_.hat_block(i).over(n_cyc))),
        n=n_cyc,
    ))

    records.append(first_failure(
        suite, "route_independence",
        (f"twists ({ta},{tb}), entry ({lam},{mu})"
         for ta in units for tb in units
         for lam, mu in orb_s_block(slice_, ta, tb, 1, 2 % n_cyc).mismatches(
             orb_s_block(slice_, tb, ta, 2 % n_cyc, 1).transpose())),
        n=n_cyc,
    ))

    split = next(((k, n_cyc // k) for k in range(3, n_cyc, 2)
                  if n_cyc % k == 0 and n_cyc // k % 2 == 1 and n_cyc // k > 1
                  and math.gcd(k, n_cyc // k) == 1), None)
    if split is None:
        records.append(
            notice(suite, "odd_coprime_factorization",
                   f"no odd coprime split of {n_cyc}", n=n_cyc)
        )
    else:
        k, n2 = split
        records.append(first_failure(
            suite, "odd_coprime_factorization",
            (f"entry ({lam},{mu})"
             for lam in range(rank) for mu in range(rank)
             for a in [OrbLabel(lam, n2, 0)] for b in [OrbLabel(mu, k, 0)]
             for expected in [parent.s[lam][mu] * Fraction(1, n_cyc)]
             if _factorization_entry(slice_, a, b) != expected
             or _factorization_entry(slice_, b, a) != expected),
            k=k, n=n2,
        ))

    records.append(first_failure(
        suite, "hat_unitary",
        (f"i={i}" for i in units for hat in [slice_.hat(i)]
         if not mx.is_identity(mx.mat_mul(hat, mx.dagger(hat)))),
        n=n_cyc,
    ))
    return records


def charge_invariants(slice_: OrbSlice) -> list[CheckRecord]:
    """Charge-transport of S entries, symmetry, and the T charge shift,
    by direct recomputation."""
    suite = "orbifold"
    n_cyc = slice_.n
    rank = slice_.parent.rank
    units = [t for t in range(1, n_cyc) if math.gcd(t, n_cyc) == 1]
    pairs = ((1, 0), (0, 1), (2, 3))
    # per twist pair, every failing entry with its charge pair, ordered
    # by entry first and charge pair second
    charge_transport = first_failure(
        suite, "charge_transport",
        (f"twists ({ta},{tb}) charges ({j1},{j2}) entry ({lam},{mu})"
         for ta in units for tb in [*units, 0]
         for base in [orb_s_block(slice_, ta, tb, 0, 0)]
         for lam, mu, k in sorted(
             (lam, mu, k) for k, (j1, j2) in enumerate(pairs)
             for lam, mu in orb_s_block(slice_, ta, tb, j1, j2).mismatches(
                 base.t(scalar=Fraction(-(ta * j2 + tb * j1), n_cyc))))
         for j1, j2 in [pairs[k]]),
        n=n_cyc,
    )
    t_charge_shift = first_failure(
        suite, "t_charge_shift",
        (f"twist {ta}, label {lam}, charge {ch}"
         for ta in units for lam in range(rank) for ch in range(n_cyc)
         for one in [orb_t_entry(slice_, OrbLabel(lam, ta, ch))]
         if orb_t_entry(slice_, OrbLabel(lam, ta, ch + 1))
         != one * slice_.zeta(ta)),
        n=n_cyc,
    )
    return [charge_transport, t_charge_shift]


def _int_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def handle_operator(md: ModularData) -> list[list[int]]:
    """The integer matrix sum over nu of N_nu N_conj(nu), which one handle
    inserts into the fusion trace; it depends on the model only."""
    handle = None
    for nu in range(md.rank):
        h = _int_matmul(md.fusion[nu], md.fusion[md.conj[nu]])
        handle = h if handle is None else [
            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(handle, h)
        ]
    return handle


def multiplicity_trace_oracle(md: ModularData, labels, handle=None) -> int:
    """Independent integer oracle for the soliton multiplicity: the trace of
    the product of fusion matrices, with one handle operator sum(N_v N_vbar)
    inserted per genus beyond the first.  Pass `handle_operator(md)` as
    `handle` to share it between calls; it is built here only when the
    genus needs it and none is passed."""
    labels = tuple(labels)
    n = len(labels)
    genus = (n - 1) * (n - 2) // 2
    if n == 2:
        return 1 if md.conj[labels[0]] == labels[1] else 0
    prod = md.fusion[labels[0]]
    for lam in labels[1:]:
        prod = _int_matmul(prod, md.fusion[lam])
    if genus >= 2 and handle is None:
        handle = handle_operator(md)
    for _ in range(genus - 1):
        prod = _int_matmul(prod, handle)
    return sum(prod[i][i] for i in range(md.rank))


MAX_FACTORS = 4
FULL_RANK_BOUND = 6


def multiplicity_report(md: ModularData, sample_seed: int = 1
                        ) -> list[CheckRecord]:
    """Integrality of the soliton multiplicities for 2..MAX_FACTORS labels,
    each value checked against the independent fusion-trace oracle; full
    enumeration up to FULL_RANK_BOUND parent rank, seeded sampling beyond."""
    from .modrep import Lcg

    suite = "orbifold"
    rank = md.rank
    records = []
    rng = Lcg(sample_seed)
    handle = handle_operator(md)  # four labels have genus 3

    def tuples(n):
        if rank <= FULL_RANK_BOUND:
            yield from itertools.product(range(rank), repeat=n)
        else:
            for _ in range(200):
                yield tuple(rng.below(rank) for _ in range(n))

    for n in range(2, MAX_FACTORS + 1):
        ok = True
        witness = ""
        count = 0
        for labs in tuples(n):
            count += 1
            try:
                m = soliton_multiplicity(md, labs)
            except NonIntegralMultiplicityError as exc:
                ok = False
                witness = str(exc)
                break
            expected = multiplicity_trace_oracle(md, labs, handle)
            if m != expected:
                ok = False
                witness = f"labels {labs}: {m} != oracle {expected}"
                break
        records.append(
            CheckRecord(suite, f"multiplicity_{n}_factors", ok,
                        params={"tuples": count}, witness=witness)
        )
    return records
