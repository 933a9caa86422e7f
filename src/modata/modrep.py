"""SL(2,Z) elements, generator words, and the modular representation.

Conventions: s = [[0,-1],[1,0]], t = [[1,1],[0,1]], and the lower-left
entry of a matrix is written `e` (the letter c is taken by the central
charge).  The representation sends s -> S, t -> T and the central -I to
the conjugation permutation S^2.

One walk reads a matrix as its word (`syllables`: Euclidean reduction on
the left column, each step a syllable t^k s, then the final t^k and the
sign), and one engine multiplies it: the packed matrices of the model over
its single field Q(zeta_M) (see `modata.packed`), each product by `@`,
which takes the slot product where entries are narrow, -I permuting rows.
`rep_evaluate_packed` returns that product, or its image under sigma_l as
a word of sigma_l syllables, for the checks that need only identity and
equality tests and sigma_l: the congruence and kernel
sampling checks, the lambda identity suite and the spliced functional
equation.  `rep_evaluate` reads the same product as CycloNum entries, each
at the order the CycloNum chain of S, T powers and S^2 gives it (the order
rule in its docstring), because those orders reach the `lambda --json`
report; `lambdamat.lambda_mat` uses it for the printed matrix and for the
hatted matrices of the orbifold and Galois suites.

Sampling is reproducible: a fixed 64-bit linear congruential generator
(multiplier 6364136223846793005, increment 1442695040888963407, state and
outputs mod 2^64) is stepped once per draw; `below(n)` reduces the output
mod n.  Identical seeds give identical samples on any platform.
"""

import math
from dataclasses import dataclass

from . import matrixops as mx
from .cyclo import CycloNum
from .errors import LiftNotFoundError, NotCoprimeError
from .modular_data import ModularData
from .packed import PackedMatrix


@dataclass(frozen=True)
class SL2ZMat:
    """Integer matrix [[a, b], [e, d]] with determinant one."""

    a: int
    b: int
    e: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.e != 1:
            raise ValueError("determinant must be 1")

    def __mul__(self, other: "SL2ZMat") -> "SL2ZMat":
        return SL2ZMat(
            self.a * other.a + self.b * other.e,
            self.a * other.b + self.b * other.d,
            self.e * other.a + self.d * other.e,
            self.e * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2ZMat":
        return SL2ZMat(self.d, -self.b, -self.e, self.a)

    def __neg__(self) -> "SL2ZMat":
        return SL2ZMat(-self.a, -self.b, -self.e, -self.d)

    def mod(self, n: int) -> tuple[int, int, int, int]:
        return (self.a % n, self.b % n, self.e % n, self.d % n)

    def to_obj(self) -> list[int]:
        return [self.a, self.b, self.e, self.d]


IDENTITY = SL2ZMat(1, 0, 0, 1)
S_GEN = SL2ZMat(0, -1, 1, 0)


def t_gen(k: int = 1) -> SL2ZMat:
    return SL2ZMat(1, k, 0, 1)


@dataclass(frozen=True)
class GenWord:
    """A word in the generators: tokens ("s", 1) and ("t", k), plus a sign
    for the central -I factor.  Evaluating the word over the integers
    reproduces the source matrix exactly."""

    tokens: tuple[tuple[str, int], ...]
    sign: int

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Syllables:
    """A generator word read as the factors of its representation matrix:
    one T^k S per syllable t^k s (k is None for a bare s), then T^last_t
    for a final t^k, then the conjugation S^2 when the word carries -I."""

    steps: tuple[int | None, ...]
    last_t: int | None
    central: bool


def syllables(m: SL2ZMat) -> Syllables:
    """The word of m, by Euclidean reduction on the left column.

    Each step left-multiplies by s^-1 t^-q, q the quotient a/e rounded to
    nearest, until the lower-left entry is zero; the word gains t^q s (a
    bare s when q = 0).  What remains is [[a, b], [0, a]] with a = +/-1:
    the final t^(a*b), and -I when a < 0."""
    steps = []
    a, b, e, d = m.a, m.b, m.e, m.d
    while e != 0:
        q, r = divmod(a, e)
        if 2 * abs(r) > abs(e):  # round to nearest for shorter words
            q += 1
        a, b, e, d = e, d, q * e - a, q * d - b
        steps.append(q or None)
    return Syllables(tuple(steps), a * b or None, a < 0)


def decompose(m: SL2ZMat) -> GenWord:
    """The word of `syllables` as tokens: t^k (when k is not None) and s
    per step, then the final t^k; -I as the sign."""
    w = syllables(m)
    tokens = []
    for k in w.steps:
        if k is not None:
            tokens.append(("t", k))
        tokens.append(("s", 1))
    if w.last_t is not None:
        tokens.append(("t", w.last_t))
    return GenWord(tuple(tokens), -1 if w.central else 1)


def _product_orders(a, a_orders, b, b_orders) -> list[list[int]]:
    """The entry orders of the product of a and b (rows of values, true
    when nonzero) as `cyclo.dot` gives them: entry (i, j) at the lcm of the
    orders of a_ik and b_kj over the k where both are nonzero, else 1."""
    cols = list(zip(*b))
    col_orders = list(zip(*b_orders))
    return [[math.lcm(*(o for x, y, ox, oy in zip(row, col, ro, co)
                        if x and y for o in (ox, oy)))
             for col, co in zip(cols, col_orders)]
            for row, ro in zip(a, a_orders)]


def rep_evaluate(md: ModularData, m: SL2ZMat) -> mx.Matrix:
    """D(m) with CycloNum entries: the packed product of
    `rep_evaluate_packed`, each entry coerced from the field order M to the
    order the CycloNum chain of S, T powers and S^2 gives it.

    The order rule, ord t_i^k being the order of the i-th entry of T^k:
    - a syllable T^k S: lcm(ord t_i^k, ord S_ij) where S_ij != 0, else 1;
      a bare s keeps the stored orders of `md.s`;
    - a product entry (i, j): the lcm of ord A_ik and ord B_kj over the k
      where both are nonzero, 1 if there is none (`_product_orders`);
    - a final t^k: every entry, zeros included, takes the lcm with
      ord t_j^k, but a word that is only t^k has ord t_i^k on the diagonal
      and 1 off it, and the empty word has order 1 everywhere;
    - -I: the product rule against C = S^2, the permutation matrix of
      `conj`, its entry (i, j) at the order `cyclo.dot` gives entry (i, j)
      of S S: the lcm of the orders of S_ik and S_kj over the k where both
      are nonzero, 1 if there is none (`_product_orders` of S and S); the
      value C A = A C is a row permutation by `conj`, as C is central.
    """
    w = syllables(m)
    pm, order, rank = md.packed, md.packed.order, md.rank

    def t_orders(k):  # the orders of the entries of T^k
        return [order // math.gcd(x * k, order) for x in pm.t_weights]

    acc = orders = None
    for k in w.steps:
        step = pm.syllable(k or 0)
        # a bare s keeps every stored order of S, zeros included
        step_orders = [[math.lcm(t, x.order) if x or k is None else 1
                        for x in row]
                       for t, row in zip(t_orders(k or 0), md.s)]
        if acc is None:
            acc, orders = step, step_orders
        else:
            orders = _product_orders(acc.rows, orders, step.rows, step_orders)
            acc = acc @ step
    if acc is None:  # the empty word, or only t^k: the identity, order 1
        acc, orders = pm.identity(), [[1] * rank for _ in range(rank)]
    if w.last_t is not None:
        # every entry takes the lcm, but the zeros of that identity
        t = t_orders(w.last_t)
        orders = [[math.lcm(o, tj) if x or w.steps else o
                   for x, o, tj in zip(row, row_orders, t)]
                  for row, row_orders in zip(acc.rows, orders)]
        acc = acc.scale(cols=pm.t_power(w.last_t))
    if w.central:
        s_orders = [[x.order for x in row] for row in md.s]
        perm = [[j == i for j in range(rank)] for i in md.conj]
        orders = _product_orders(acc.rows, orders, perm, _product_orders(
            md.s, s_orders, md.s, s_orders))
        acc = acc.take_rows(md.conj)
    return tuple(
        tuple(CycloNum(order, acc.den, d).coerce(o)
              for d, o in zip(row, row_orders))
        for row, row_orders in zip(acc.digits(), orders))


def rep_evaluate_packed(md: ModularData, m: SL2ZMat, l: int = 1
                        ) -> PackedMatrix:
    """sigma_l(D(m)) over the model's single field (see `modata.packed`),
    l coprime to its order: the syllables of m, a bare s being T^0 S, as
    sigma_l syllables multiplied as packed matrices, and -I a row
    permutation by `conj`."""
    w = syllables(m)
    return md.packed.product(
        [0 if k is None else k for k in w.steps], w.last_t, w.central, l)


# -- congruence subgroups ---------------------------------------------


def in_gamma(n: int, m: SL2ZMat) -> bool:
    """Membership in the principal congruence subgroup of level n."""
    return (
        m.a % n == 1 % n
        and m.d % n == 1 % n
        and m.b % n == 0
        and m.e % n == 0
    )


def in_gamma1(n: int, m: SL2ZMat) -> bool:
    """a, d = 1 and e = 0 mod n; the upper-right entry is free."""
    return m.a % n == 1 % n and m.d % n == 1 % n and m.e % n == 0


class Lcg:
    """The documented 64-bit linear congruential generator."""

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def _as_rng(seed) -> Lcg:
    return seed if isinstance(seed, Lcg) else Lcg(int(seed))


def sample_gamma(n: int, seed) -> SL2ZMat:
    """A pseudo-random element of the level-n principal congruence subgroup.

    Draw a = 1 and e = 0 mod n with gcd(a, e) = 1, extend to determinant one
    by the extended Euclidean algorithm, then shift the upper-right entry by
    multiples of a (adjusting d by e) until it vanishes mod n.
    """
    rng = _as_rng(seed)
    while True:
        a = 1 + n * rng.int_in(-9, 9)
        e = n * rng.int_in(-9, 9)
        if a != 0 and math.gcd(a, e) == 1:
            break
    g, x, y = _xgcd(a, e)
    # a*x + e*y == 1, so d0 = x, b0 = -y gives det 1
    b0, d0 = -y, x
    k = (-b0 * pow(a, -1, n)) % n if n > 1 else 0
    m = SL2ZMat(a, b0 + k * a, e, d0 + k * e)
    assert in_gamma(n, m)
    return m


MAX_SYLLABLES = 6


def random_word_matrix(rng: Lcg) -> SL2ZMat:
    """A pseudo-random SL(2,Z) element as an alternating word t^k s t^k s...

    Syllable count is drawn in [2, MAX_SYLLABLES] = [2, 6], each t exponent
    in [-6, 6] excluding zero.  Documented so runs are reproducible.
    """
    a, b, e, d = 1, 0, 0, 1
    for _ in range(rng.int_in(2, MAX_SYLLABLES)):
        k = rng.int_in(1, 6) * (1 if rng.below(2) else -1)
        # [[a, b], [e, d]] * t^k * s
        a, b, e, d = a * k + b, -a, e * k + d, -e
    return SL2ZMat(a, b, e, d)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def tau_l(m: SL2ZMat, l: int, n: int) -> tuple[int, int, int, int]:
    """The level-n automorphism (a, b, e, d) -> (a, l*b, l^*e, d) with l^*
    the mod-n inverse; entries reduced into [0, n)."""
    if math.gcd(l, n) != 1:
        raise NotCoprimeError(f"gcd({l}, {n}) != 1")
    if n == 1:
        return (0, 0, 0, 0)
    lhat = pow(l % n, -1, n)
    return (m.a % n, (l * m.b) % n, (lhat * m.e) % n, m.d % n)


def lift_to_sl2z(n: int, quad: tuple[int, int, int, int]) -> SL2ZMat:
    """An integer determinant-one matrix congruent to `quad` mod n.

    The left column is adjusted to a coprime pair, extended to determinant
    one, and the right column is shifted by the column operation that fixes
    both target residues at once.
    """
    if n == 1:
        return IDENTITY
    a0, b0, e0, d0 = (x % n for x in quad)
    if (a0 * d0 - b0 * e0) % n != 1:
        raise ValueError("determinant is not 1 mod n")
    found = next(((a, e) for t in range(4 * n + 1) for s in range(4 * n + 1)
                  for a, e in [(a0 + t * n, e0 + s * n)]
                  if a != 0 and math.gcd(a, e) == 1), None)
    if found is None:
        raise LiftNotFoundError(f"no coprime left column for {quad} mod {n}")
    a, e = found
    g, x, y = _xgcd(a, e)
    b1, d1 = -y, x  # a*d1 - b1*e == 1
    # pick the column shift k with k*a = b0-b1 and k*e = d0-d1 mod n
    u, v = x % n, y % n  # u*a + v*e == 1 mod n
    k = (u * (b0 - b1) + v * (d0 - d1)) % n
    m = SL2ZMat(a, b1 + k * a, e, d1 + k * e)
    assert m.mod(n) == (a0, b0, e0, d0)
    return m
