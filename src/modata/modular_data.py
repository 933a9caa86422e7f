"""Modular data: exact S matrix, conformal weights and central charges.

A ModularData instance is validated on construction: the S matrix must be
symmetric, unitary, square to an order-two conjugation permutation, satisfy
the twist relation S T S = T^-1 S T^-1 with the diagonal T built from the
conformal weights and c0, have a positive vacuum row, and produce nonnegative
integer fusion coefficients simultaneously diagonalized by S.  Everything
downstream (Galois suites, fractional modular matrices, orbifold sectors)
consumes validated instances only.

The fractional power T^r always means the diagonal matrix with entries
exp(2*pi*i*(delta_lam - c0/24)*r); no logarithm branches exist anywhere.

Validation runs on S packed as one matrix type (see `modata.packed`),
with T and the phases as scalings of it.  Over the field of the S
entries, which comes before any T entry can push the order past
MODATA_MAX_ORDER, S and S^dagger (sigma_-1(S) transposed) are packed once
(`packed_s`) and S S^dagger is compared with the identity; when no T
entry widens that field, this packed S is the model's (`packed`).  The
vacuum row is inverted once and packed (`vacuum_inverses`); the
eigenvalues S[lam][d] / S[0][d] of a label are that packed row scaled by
S's packed row lam, with no CycloNum product.  The Verlinde sum is
symmetric in lam and mu, so label lam computes only rows mu >= lam of N_lam = S
diag(S[lam][d] / S[0][d]) S^dagger (`fusion_rows`: rows of S with scaled
columns times S^dagger, read off the packed ints) and reads the others off
the tables before it; rows mu >= lam of N_lam S are compared with those
rows of the scaled S, which checks every equality of the full comparison
(`_fusion_checks` proves both).  S T S == T^-1 S T^-1 and
c0_consistency's fusion-phase check run over the model's single field.  A
failing packed comparison's witness is its first (i, j); a failing fusion
entry's is one `verlinde_value`, a `cyclo.dot` of r terms held at the lcm
of the orders of its nonzero terms.

The builtin S entries depend on few values: su2:k's on (a+1)(b+1) mod
2(k+2), cyclic_odd:n's on 2jk mod n.  Each value is built once and shared,
with the inverse it memoises.  A model file's numbers are read by
`cyclo.exact_rational` and `cyclo.cyclo_from_obj`, which refuse JSON
floats and bools.

S^2 is the one CycloNum product of validation: the conjugation `conj`
is read off it, and it is then dropped.  Neither the packed model nor
`rep_evaluate` reads it again; the order rule of `rep_evaluate` takes
the entry orders of S^2 from S itself.
The scalar character sums (the total index, the statistical phase sum,
the soliton multiplicity) are `sum(terms, CycloNum.zero())`: each term is
a product of three or more factors (or a square), which `dot` cannot
fuse, and each sum runs once per check over at most rank terms, so `+`
keeps them one line each at the value, order included, of the
term-by-term chain.
"""

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import matrixops as mx
from .cyclo import (
    CycloNum,
    cyclo_from_obj,
    dot,
    exact_rational,
    make,
    root_of_unity_exp,
    sqrt_nonneg_rational,
)
from .errors import (
    AxiomViolationError,
    ConductorMismatchError,
    ModelFormatError,
    NonIntegralFusionError,
    UnsupportedModelError,
)
from .packed import (
    PackedMatrix,
    PackedModel,
    Scaling,
    field_order,
    identity,
    integers,
    pack,
    packed_model,
    roots,
    t_weights,
)
from .reporting import CheckRecord, first_failure

_POSITIVITY_MARGIN = 1e-12


def is_real_positive(x: CycloNum) -> bool:
    """x is exactly real, and positive beyond a floating margin under the
    embedding zeta_M -> exp(2*pi*i/M)."""
    return x.conjugate() == x and x.embed().real > _POSITIVITY_MARGIN


@dataclass(frozen=True)
class ConductorInfo:
    """Order data of the diagonal part: full order n, weight order n0,
    and their ratio e = n / n0."""

    n: int
    n0: int
    e: int


def eigenvalues(s: mx.Matrix, lam: int) -> tuple[CycloNum, ...]:
    """S[lam][d] / S[0][d] over the columns d: the eigenvalues of the fusion
    matrix N_lam, whose eigenvector for d is column d of S.  `verlinde_value`
    takes them once per witness; the fusion tables read the same ratios off
    packed rows (`fusion_rows`).  The vacuum-row entries keep their
    inverses (see `CycloNum.inverse`)."""
    return tuple(s[lam][d] * s[0][d].inverse() for d in range(len(s)))


def verlinde_value(s: mx.Matrix, lam: int, mu: int, nu: int) -> CycloNum:
    """The Verlinde character sum over S columns d of
    S[mu][d] (S[lam][d] / S[0][d]) conj(S[nu][d]), as one `dot`: the
    (mu, nu) entry of S diag(eigenvalues(s, lam)) S^dagger, as the witness
    of an entry that is not a nonnegative integer.  Its terms are pairwise
    products, which `dot` fuses; the scalar character sums, whose terms
    have more factors, use `sum` (see the module docstring)."""
    return dot(
        [x * e for x, e in zip(s[mu], eigenvalues(s, lam))],
        [x.conjugate() for x in s[nu]],
    )


def packed_s(s: mx.Matrix) -> tuple[PackedMatrix, PackedMatrix]:
    """S packed over the field of its entries, and S^dagger there
    (sigma_-1(S) transposed): the two factors of every Verlinde table."""
    order = math.lcm(*(x.order for row in s for x in row))
    ps = pack(s, order)
    return ps, ps.sigma(order - 1).transpose()


def vacuum_inverses(s: mx.Matrix, order: int) -> PackedMatrix:
    """The row of the inverses 1 / S[0][d], packed over Q(zeta_order) once.
    Each entry is read as the first entry of the row with its stored
    (order, den, nums), whose inverse is memoised, so one norm inverse is
    taken per distinct value: su2:k's row holds each value twice
    (S[0][d] = S[0][k-d]), in distinct objects when read from a file."""
    first = {}
    row = [first.setdefault((x.order, x.den, x.nums), x) for x in s[0]]
    return pack([[x.inverse() for x in row]], order)


def fusion_rows(inv: PackedMatrix, ps: PackedMatrix, s_dag: PackedMatrix,
                lam: int, rows) -> tuple[PackedMatrix, tuple]:
    """Rows `rows` of S diag(S[lam][d] / S[0][d]), and those rows of
    N_lam = S diag(S[lam][d] / S[0][d]) S^dagger read by `nonneg_integers`,
    None at each entry that is not a nonnegative integer.  `inv` is
    `vacuum_inverses`, and `ps` and `s_dag` the factors of `packed_s`: the
    eigenvalues are the row `inv` with its columns scaled by S's packed row
    lam, which takes no CycloNum product, and they scale the columns of
    the rows `rows` of S.  Validation takes rows lam.. of each label (see
    `_fusion_checks`); `verlinde_sum` on any other S the one row it
    reads."""
    order = ps.packing.order
    ev = inv.scale(cols=Scaling(order, ps.digits()[lam], ps.den))
    sd = ps.take_rows(rows).scale(cols=Scaling(order, ev.digits()[0], ev.den))
    return sd, (sd @ s_dag).nonneg_integers()


class _ValidatedS(tuple):
    """The S of a validated model: the tuple of tuples `mx.mat` gives,
    carrying the fusion table validation found as `fusion`."""

    def __new__(cls, s, fusion):
        self = super().__new__(cls, s)
        self.fusion = fusion
        return self

    def __reduce__(self):
        return _ValidatedS, (tuple(self), self.fusion)


def verlinde_sum(s: mx.Matrix, lam: int, mu: int, nu: int) -> int:
    """One fusion coefficient: entry (mu, nu) of N_lam.  The S of a
    `ModularData` carries the table validation found; any other S gets row
    mu of N_lam from `fusion_rows`, built for this call.

    Raises NonIntegralFusionError, with the `verlinde_value` of the entry,
    when it is not a nonnegative integer, which signals corrupt input data.
    """
    if isinstance(s, _ValidatedS):
        return s.fusion[lam][mu][nu]
    ps, s_dag = packed_s(s)
    n = fusion_rows(vacuum_inverses(s, ps.packing.order), ps, s_dag, lam,
                   [mu])[1][0][nu]
    if n is None:
        raise NonIntegralFusionError(
            f"fusion ({lam},{mu};{nu}) is {verlinde_value(s, lam, mu, nu)!r},"
            " not a nonnegative integer"
        )
    return n


def phase_sum(s: mx.Matrix, delta) -> CycloNum:
    """The statistical phase sum over lam of d_lam^2 exp(-2*pi*i*delta_lam),
    with d_lam = S[0][lam] / S[0][0]."""
    dims = [x / s[0][0] for x in s[0]]
    return sum(
        (d * d * root_of_unity_exp(-dl) for d, dl in zip(dims, delta)),
        CycloNum.zero(),
    )


class ModularData:
    """Validated modular datum; treat as immutable after construction."""

    def __init__(self, labels, s, delta, c, c0, tau2=0, name="model"):
        labels = tuple(str(x) for x in labels)
        delta = tuple(Fraction(x) for x in delta)
        c = Fraction(c)
        c0 = Fraction(c0)
        tau2 = int(tau2)
        records, derived = _axiom_checks(labels, s, delta, c, c0, tau2)
        if not all(r.passed for r in records):
            raise AxiomViolationError(records)
        self.name = name
        self.labels = labels
        self.rank = len(labels)
        self.s = _ValidatedS(derived["s"], derived["fusion"])
        self.delta = delta
        self.c = c
        self.c0 = c0
        self.tau2 = tau2
        self.conj = derived["conj"]
        self.fusion = derived["fusion"]  # fusion[lam][mu][nu] -> int
        self.validation_report = records
        self._packed_s = derived["packed_s"]
        self._t_cache: dict[Fraction, tuple[CycloNum, ...]] = {}
        self._conductor: ConductorInfo | None = None
        self._conductor_records: list[CheckRecord] | None = None

    # -- basic derived quantities -------------------------------------

    def t_entries(self, r) -> tuple[CycloNum, ...]:
        """Diagonal entries of T^r: exp(2*pi*i*(delta - c0/24)*r)."""
        r = Fraction(r)
        cached = self._t_cache.get(r)
        if cached is None:
            cached = tuple(
                root_of_unity_exp((d - self.c0 / 24) * r) for d in self.delta
            )
            self._t_cache[r] = cached
        return cached

    @functools.cached_property
    def packed(self) -> PackedModel:
        """This model over the single field Q(zeta_M) of `modata.packed`,
        with its T^k S syllables: on first read, the process's one
        `PackedModel` for this content (`packed.packed_model`, which keeps
        the last `MODEL_TABLE_SIZE`) around the S matrix packed by
        validation, so a model built again finds its caches full."""
        return packed_model(self, self._packed_s)

    def verlinde(self, lam: int, mu: int, nu: int) -> int:
        return self.fusion[lam][mu][nu]

    def qdim(self, lam: int) -> CycloNum:
        return self.s[0][lam] / self.s[0][0]

    def mu_index(self) -> CycloNum:
        """The total index: the sum of the squared quantum dimensions."""
        return sum(
            (d * d for d in map(self.qdim, range(self.rank))),
            CycloNum.zero(),
        )

    def s00_inv(self) -> CycloNum:
        """1/S_00, the real positive square root of the total index."""
        return self.s[0][0].inverse()

    def s0_inv(self, idx: int) -> CycloNum:
        """1/S_0idx, the inverse of a vacuum-row entry."""
        return self.s[0][idx].inverse()

    def fuse_auto(self, tau: int, lam: int) -> int:
        """The unique product label of an automorphism with lam."""
        row = self.fusion[tau][lam]
        hits = [nu for nu, n in enumerate(row) if n]
        if len(hits) != 1 or row[hits[0]] != 1:
            raise ValueError(f"label {tau} does not fuse as an automorphism")
        return hits[0]

    # -- verification suites ------------------------------------------

    def c0_consistency(self) -> list[CheckRecord]:
        """The statistical phase sum against the stored c0, plus the fusion
        formula for the unnormalized S matrix."""
        suite = "c0"
        aa = phase_sum(self.s, self.delta)
        records = [
            CheckRecord(
                suite,
                "phase_norm",
                aa * aa.conjugate() == self.mu_index(),
                witness="",
            ),
            CheckRecord(
                suite,
                "phase_matches_c0",
                aa * root_of_unity_exp(self.c0 / 8) == self.s00_inv(),
                params={"c0": self.c0},
            ),
        ]

        # omega_lam omega_mu F[lam][mu] == S[lam][mu] with F[lam][mu] =
        # sum_nu N(lam,mu;nu) conj(omega_nu) S[0][nu], N from `self.fusion`:
        # entry mu of w N_lam^T, w the row S[0] conj(Omega), against row lam
        # of the symmetric conj(Omega) S conj(Omega).  S is packed again over
        # a field holding the omegas when delta_0 is not an integer (in no
        # builtin).
        ps = self._packed_s
        order = math.lcm(ps.packing.order,
                         *(d.denominator for d in self.delta))
        s = ps if order == ps.packing.order else pack(self.s, order)
        omega_bar = roots(order, [int(-d * order) for d in self.delta])
        target = s.scale(omega_bar, omega_bar)
        w = s.take_rows([0]).scale(cols=omega_bar)
        records.append(first_failure(
            suite, "fusion_phase_matrix",
            (f"entry ({lam},{mu})"
             for lam in range(self.rank)
             for _, mu in (w @ integers(order, zip(*self.fusion[lam])))
             .mismatches(target.take_rows([lam]))),
        ))
        return records

    def conductor(self) -> tuple[ConductorInfo, list[CheckRecord]]:
        """Order of T, the weight order n0, their ratio, and the arithmetic
        facts tied to them; raises ConductorMismatchError when some S entry
        escapes the field cut out by the T order."""
        if self._conductor is not None:
            return self._conductor, list(self._conductor_records)
        suite = "conductor"
        n = 1
        for d in self.delta:
            n = math.lcm(n, (d - self.c0 / 24).denominator)
        for i in range(self.rank):
            for j in range(i, self.rank):
                mo = self.s[i][j].minimal_order()
                if n % mo != 0:
                    raise ConductorMismatchError(
                        f"S[{i}][{j}] generates Q(zeta_{mo}), "
                        f"outside Q(zeta_{n})"
                    )
        n0 = 1
        for d in self.delta:
            n0 = math.lcm(n0, d.denominator)
        records = [
            CheckRecord(suite, "s_entries_inside_t_field", True,
                        params={"n": n}),
        ]
        e_ok = n % n0 == 0
        e = n // n0 if e_ok else 0
        records.append(
            CheckRecord(suite, "weight_order_divides", e_ok,
                        params={"n": n, "n0": n0})
        )
        records.append(
            CheckRecord(suite, "ratio_divides_12", e_ok and 12 % e == 0,
                        params={"e": e})
        )
        records.append(
            CheckRecord(
                suite, "ratio_weight_gcd", e_ok and math.gcd(e, n0) in (1, 2),
                params={"e": e, "n0": n0},
            )
        )
        n0c = n0 * self.c
        records.append(
            CheckRecord(
                suite,
                "weight_order_times_c_even",
                n0c.denominator == 1 and n0c.numerator % 2 == 0,
                params={"n0c": n0c},
            )
        )
        info = ConductorInfo(n, n0, e)
        self._conductor = info
        self._conductor_records = records
        return info, list(records)

    def conductor_n(self) -> int:
        return self.conductor()[0].n

    def automorphism_ratios(self, tau: int) -> tuple[CycloNum, ...]:
        """Per-column ratio S[tau.lam][mu] / S[lam][mu], which must be
        independent of lam when tau is an automorphism."""
        if self.qdim(tau) != 1:
            raise ValueError(f"label {tau} has quantum dimension != 1")
        perm = [self.fuse_auto(tau, lam) for lam in range(self.rank)]
        ratios = []
        for mu in range(self.rank):
            lam0 = next(
                lam for lam in range(self.rank) if not self.s[lam][mu].is_zero()
            )
            ratios.append(self.s[perm[lam0]][mu] / self.s[lam0][mu])
        return tuple(ratios)

    def automorphism_action_check(self, tau: int) -> list[CheckRecord]:
        suite = "automorphism"
        perm = [self.fuse_auto(tau, lam) for lam in range(self.rank)]
        ratios = self.automorphism_ratios(tau)
        records = [first_failure(
            suite, "ratio_constant_per_column",
            (f"column {mu}, row {lam}"
             for mu in range(self.rank) for lam in range(self.rank)
             if self.s[perm[lam]][mu] != ratios[mu] * self.s[lam][mu]),
            tau=tau,
        )]
        # ratios are roots of unity of order dividing the fusion order of tau
        order = 1
        p = perm
        ident = list(range(self.rank))
        while p != ident:
            p = [perm[i] for i in p]
            order += 1
            if order > self.rank + 1:
                break
        unit_ok = all(r ** (2 * order) == 1 for r in ratios)
        records.append(
            CheckRecord(suite, "ratios_are_roots_of_unity", unit_ok,
                        params={"tau": tau, "order": order})
        )
        return records

    # -- serialization --------------------------------------------------

    def ambient_order(self) -> int:
        order = 1
        for row in self.s:
            for x in row:
                order = math.lcm(order, x.order)
        return order

    def to_obj(self) -> dict:
        w = self.ambient_order()
        return {
            "name": self.name,
            "labels": list(self.labels),
            "order": w,
            "S": [[x.coerce(w).to_obj() for x in row] for row in self.s],
            "delta": [str(d) for d in self.delta],
            "c": str(self.c),
            "c0": str(self.c0),
            "tau2": self.tau2,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        return f"ModularData({self.name!r}, rank={self.rank})"


def _axiom_checks(labels, s, delta, c, c0, tau2):
    suite = "axioms"
    records: list[CheckRecord] = []
    derived: dict = {}

    def rec(check, passed, witness=""):
        records.append(CheckRecord(suite, check, passed, witness=witness))
        return passed

    rank = len(labels)
    shaped = (
        rank >= 1
        and len(s) == rank
        and all(len(row) == rank for row in s)
        and len(delta) == rank
        and 0 <= tau2 < rank
    )
    if not rec("shape", shaped):
        return records, derived
    s = mx.mat(s)
    derived["s"] = s

    sym = mx.first_mismatch(s, mx.transpose(s))
    rec("s_symmetric", sym is None, "" if sym is None else f"entry {sym[:2]}")

    # over the field of the S entries (see the module docstring)
    ps, s_dag = packed_s(s)
    uni = next((ps @ s_dag).mismatches(identity(ps.packing.order, rank)),
               None)
    if not rec("s_unitary", uni is None,
               "" if uni is None else f"entry {uni}"):
        return records, derived

    # S^2 is the matrix of an involution conj: row i holds one nonzero
    # entry, a 1, at column conj[i], and conj[conj[i]] is i (conj[i] is -1
    # at a row of another form)
    hits = [[(j, x) for j, x in enumerate(row) if x]
            for row in mx.mat_mul(s, s)]
    conj = tuple(h[0][0] if len(h) == 1 and h[0][1] == 1 else -1
                 for h in hits)
    if not rec("s_square_is_conjugation",
               all(j >= 0 and conj[j] == i for i, j in enumerate(conj))):
        return records, derived
    derived["conj"] = conj

    records.append(first_failure(
        suite, "vacuum_row_real_positive",
        (f"S[0][{lam}]" for lam in range(rank)
         if not is_real_positive(s[0][lam])),
    ))
    if not records[-1].passed:
        return records, derived

    # S T S == T^-1 S T^-1 over the model's single field, with T the
    # diagonal of exp(2*pi*i*(delta - c0/24)), as scalings of S.
    order = field_order(s, delta, c0)
    pm = ps if order == ps.packing.order else pack(s, order)
    weights = t_weights(delta, c0, order)
    t, t_inv = roots(order, weights), roots(order, [-w for w in weights])
    mm = next((pm.scale(cols=t) @ pm).mismatches(pm.scale(t_inv, t_inv)),
              None)
    rec("sts_twist_relation", mm is None, "" if mm is None else f"entry {mm}")

    rec("t_conjugation_invariant",  # e(x) == e(y) when x - y is in Z
        all((delta[lam] - delta[conj[lam]]).denominator == 1
            for lam in range(rank)))

    res = c - c0
    rec("central_charge_residue", res.denominator == 1 and res % 4 == 0,
        f"c - c0 = {res}")

    if not all(r.passed for r in records):
        return records, derived

    derived["packed_s"] = pm
    fusion_records, fusion = _fusion_checks(s, ps, s_dag)
    records.extend(fusion_records)
    if fusion is None:
        return records, derived
    derived["fusion"] = fusion

    vacuum_ok = all(
        fusion[0][mu][nu] == (1 if mu == nu else 0)
        for mu in range(rank) for nu in range(rank)
    )
    rec("vacuum_fusion_identity", vacuum_ok)

    if tau2 != 0:
        tau_ok = (
            s[0][tau2] == s[0][0] and fusion[tau2][tau2][0] == 1
        )
        rec("tau2_is_order_two_automorphism", tau_ok, f"tau2={tau2}")

    return records, derived


def _fusion_checks(s: mx.Matrix, ps: PackedMatrix, s_dag: PackedMatrix):
    """The fusion table of S and its two checks, on the factors `ps` and
    `s_dag` of `packed_s`.  Returns the records, the second only when the
    table is integral, and the table or None.

    The Verlinde sum N(lam,mu;nu) = sum_d S[lam][d] S[mu][d] conj(S[nu][d])
    / S[0][d] is symmetric in lam and mu for any S, so label lam computes
    only rows mu >= lam (`fusion_rows`) and reads row mu < lam of N_lam as
    row lam of N_mu.  The scan over (lam, mu, nu) in lexicographic order
    stops at the first entry that is not a nonnegative integer, whose
    `verlinde_value` is the witness.  It finds the entry the scan of full
    tables finds: that entry has mu >= lam, since for mu < lam its equal
    (mu, lam, nu) comes first; and every entry the scan passes before it
    comes before it in that order too.

    fusion_diagonalized_by_s compares rows mu >= lam of N_lam S and of
    S diag(S[lam][d] / S[0][d]).  Row mu < lam of the full comparison is
    sum_nu N(lam,mu;nu) S[nu][d] == S[mu][d] S[lam][d] / S[0][d], which is
    row lam of the comparison of mu entry for entry, N(lam,mu;nu) being
    N(mu,lam;nu) in the table.  So the equalities checked are those of the
    full comparison, and the first failing label is the same: if the full
    comparison of lam first fails at a row mu < lam, that of mu < lam
    fails at row lam."""
    suite = "axioms"
    order, rank = ps.packing.order, len(s)
    inv = vacuum_inverses(s, order)
    fusion, scaled = [], []
    witness = ""
    for lam in range(rank):
        sd, half = fusion_rows(inv, ps, s_dag, lam, range(lam, rank))
        bad = next(((lam + i, nu) for i, row in enumerate(half)
                    for nu, n in enumerate(row) if n is None), None)
        if bad is not None:
            witness = "N({},{};{}) = {!r}".format(
                lam, *bad, verlinde_value(s, lam, *bad))
            break
        fusion.append(tuple(fusion[mu][lam] for mu in range(lam)) + half)
        scaled.append(sd)
    records = [CheckRecord(suite, "fusion_integral_nonnegative", not witness,
                           witness=witness)]
    if witness:
        return records, None
    records.append(first_failure(
        suite, "fusion_diagonalized_by_s",
        (f"fusion matrix {lam}" for lam in range(rank)
         if integers(order, fusion[lam][lam:]) @ ps != scaled[lam]),
    ))
    return records, tuple(fusion)


# -- builtin exact models -----------------------------------------------


def _compute_c0(s: mx.Matrix, delta) -> Fraction:
    """Representative in [0, 8) of the statistical phase class."""
    aa = phase_sum(s, delta)
    u = aa * s[0][0]  # aa / |aa|, a root of unity
    m = u.order
    for j in range(m):
        zj = make(m, [(j, 1)])
        if u == zj:
            return (Fraction(-8 * j, m)) % 8
        if u == -zj:
            return (Fraction(-8 * j, m) - 4) % 8
    raise ArithmeticError("statistical phase is not a root of unity")


def _sin_exact(m: int, q: int) -> CycloNum:
    """sin(pi*m/q) as (zeta_2q^m - zeta_2q^-m) / (2i), exactly."""
    num = make(2 * q, [(m, 1), (-m, -1)])
    return num * make(4, [(1, -1)]) * Fraction(1, 2)


def _build_su2(k: int) -> tuple:
    q = k + 2
    norm = sqrt_nonneg_rational(Fraction(2, q))

    @functools.cache
    def entry(m):  # sin(pi*m/q) has period 2q in m: one value per class
        return norm * _sin_exact(m, q)

    s = [
        [entry((a + 1) * (b + 1) % (2 * q)) for b in range(q - 1)]
        for a in range(q - 1)
    ]
    delta = [Fraction(a * (a + 2), 4 * q) for a in range(q - 1)]
    c = Fraction(3 * k, q)
    labels = [str(a) for a in range(q - 1)]
    return labels, s, delta, c


def _build_cyclic_odd(n: int) -> tuple:
    norm = sqrt_nonneg_rational(Fraction(1, n))

    @functools.cache
    def entry(e):  # one value per exponent mod n
        return norm * make(n, [(e, 1)])

    s = [[entry(2 * j * k % n) for k in range(n)] for j in range(n)]
    delta = [Fraction(j * (n - j), n) for j in range(n)]
    c = Fraction(n - 1)
    labels = [str(j) for j in range(n)]
    return labels, s, delta, c


def builtin_model(name: str, param: int | None = None,
                  c0_override=None, tau2: int = 0) -> ModularData:
    """Exact built-in data: trivial, su2(k >= 1), cyclic_odd(odd n >= 3).

    c0_override replaces the computed c0 representative; it must lie in the
    same class mod 8 (which also keeps c - c0 in 4Z).
    """
    if name == "trivial":
        if param is not None:
            raise UnsupportedModelError("trivial takes no parameter")
        labels, s, delta, c = (
            ["0"], [[CycloNum.one()]], [Fraction(0)], Fraction(0)
        )
        model_name = "trivial"
    elif name == "su2":
        if param is None or param < 1:
            raise UnsupportedModelError("su2 requires a level k >= 1")
        labels, s, delta, c = _build_su2(param)
        model_name = f"su2:{param}"
    elif name == "cyclic_odd":
        if param is None or param < 3 or param % 2 == 0:
            raise UnsupportedModelError("cyclic_odd requires an odd n >= 3")
        labels, s, delta, c = _build_cyclic_odd(param)
        model_name = f"cyclic_odd:{param}"
    else:
        raise UnsupportedModelError(f"unknown builtin model {name!r}")
    c0 = _compute_c0(mx.mat(s), delta)
    if c0_override is not None:
        c0_override = Fraction(c0_override)
        if (c0_override - c0) % 8 != 0:
            raise ValueError(
                f"c0 override {c0_override} is not congruent to {c0} mod 8"
            )
        c0 = c0_override
    return ModularData(labels, s, delta, c, c0, tau2=tau2, name=model_name)


def from_obj(obj: dict) -> ModularData:
    """Load a modular datum from its serialized form (validates); raises
    ModelFormatError when `obj` does not have that form."""
    if not isinstance(obj, dict):
        raise ModelFormatError(
            f"a model is a JSON object, not {type(obj).__name__}"
        )
    missing = [k for k in ("labels", "S", "delta", "c", "c0") if k not in obj]
    if missing:
        raise ModelFormatError(f"model lacks {', '.join(missing)}")
    if not all(isinstance(obj[k], list) for k in ("labels", "S", "delta")):
        raise ModelFormatError("labels, S and delta must be lists")
    if not all(isinstance(row, list) for row in obj["S"]):
        raise ModelFormatError("S must be a list of rows")
    try:
        delta = [exact_rational(d, "delta") for d in obj["delta"]]
        c = exact_rational(obj["c"], "c")
        c0 = exact_rational(obj["c0"], "c0")
        tau2 = obj.get("tau2", 0)
        if not isinstance(tau2, int) or isinstance(tau2, bool):
            raise TypeError(f"tau2 {tau2!r} is not an integer")
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ModelFormatError(
            f"malformed model field: {type(exc).__name__}: {exc}"
        ) from None
    s = [[cyclo_from_obj(x) for x in row] for row in obj["S"]]
    return ModularData(
        obj["labels"], s, delta, c, c0, tau2=tau2,
        name=obj.get("name", "file"),
    )


def loads(text: str) -> ModularData:
    return from_obj(json.loads(text))
