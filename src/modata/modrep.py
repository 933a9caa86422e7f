"""SL(2,Z) elements, generator words, and the modular representation.

Conventions: s = [[0,-1],[1,0]], t = [[1,1],[0,1]], and the lower-left
entry of a matrix is written `e` (the letter c is taken by the central
charge).  The representation sends s -> S, t -> T and the central -I to
the conjugation permutation S^2.

Two evaluators of the representation share one word walk (`syllables`:
decompose, pair each t^k with the s after it, keep the final t^k and the
sign).  `rep_evaluate` multiplies CycloNum matrices, so each entry keeps
the order its products give it; those orders reach the `lambda --json`
report, which is why `lambdamat.lambda_mat` uses it for the printed matrix
and for the hatted matrices of the orbifold and Galois suites, and the
tests use it as the reference.  `rep_evaluate_packed` multiplies the same
factors as packed matrices over the model's single field, -I permuting
rows (see `modata.packed`, whose `PackedModel.product` also evaluates the
Galois generator word), for the checks that need only identity and
equality tests and sigma_l: the congruence and kernel sampling checks, the
lambda identity suite and the spliced functional equation.

Sampling is reproducible: a fixed 64-bit linear congruential generator
(multiplier 6364136223846793005, increment 1442695040888963407, state and
outputs mod 2^64) is stepped once per draw; `below(n)` reduces the output
mod n.  Identical seeds give identical samples on any platform.
"""

import math
from dataclasses import dataclass

from . import matrixops as mx
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

    def __str__(self) -> str:
        parts = ["-I"] if self.sign < 0 else []
        for kind, k in self.tokens:
            parts.append("s" if kind == "s" else f"t^{k}")
        return " ".join(parts) if parts else "1"


def evaluate_word(word: GenWord) -> SL2ZMat:
    """Integer evaluation of a generator word."""
    m = IDENTITY
    for kind, k in word.tokens:
        m = m * (S_GEN if kind == "s" else t_gen(k))
    return -m if word.sign < 0 else m


def decompose(m: SL2ZMat) -> GenWord:
    """A generator word for m, by Euclidean reduction on the left column.

    Left-multiplications by t^-q and s drive the lower-left entry to zero;
    the accumulated inverses, read in application order, spell the word.
    s^-1 contributes a single s token and one central sign flip.
    """
    tokens: list[tuple[str, int]] = []
    sign = 1
    a, b, e, d = m.a, m.b, m.e, m.d
    while e != 0:
        q, r = divmod(a, e)
        if 2 * abs(r) > abs(e):  # round to nearest for shorter words
            q += 1
        if q:
            # m <- t^-q m ; the word gains t^q
            a, b = a - q * e, b - q * d
            tokens.append(("t", q))
        # m <- s^-1 m ; the word gains s
        a, b, e, d = e, d, -a, -b
        tokens.append(("s", 1))
    # remainder is [[a, b], [0, a]] with a = +/-1, i.e. sign * t^(a*b)
    if a < 0:
        sign = -sign
    if a * b:
        tokens.append(("t", a * b))
    merged: list[tuple[str, int]] = []
    for kind, k in tokens:
        if kind == "t" and merged and merged[-1][0] == "t":
            k += merged[-1][1]
            merged.pop()
            if k == 0:
                continue
        merged.append((kind, k))
    word = GenWord(tuple(merged), sign)
    return word


@dataclass(frozen=True)
class Syllables:
    """A generator word read as the factors of its representation matrix:
    one T^k S per syllable t^k s (k is None for a bare s), then T^last_t
    for a final t^k, then the conjugation S^2 when the word carries -I."""

    steps: tuple[int | None, ...]
    last_t: int | None
    central: bool


def syllables(m: SL2ZMat) -> Syllables:
    """The word walk shared by both evaluators: decompose m, pair each t^k
    with the s after it, and keep the final t^k and the sign apart."""
    word = decompose(m)
    steps = []
    pending = None  # the exponent of a t^k waiting for the s after it
    for kind, k in word.tokens:
        if kind == "t":
            pending = k
        else:
            steps.append(pending)
            pending = None
    return Syllables(tuple(steps), pending, word.sign < 0)


def rep_evaluate(md: ModularData, m: SL2ZMat) -> mx.Matrix:
    """The representation matrix D(m), as a product of S and diagonal
    T powers along a generator word; -I contributes the conjugation
    permutation S^2.

    Each syllable t^k s of the word is one product by the matrix T^k S,
    which `ModularData.ts_syllable` caches under the integer exponent k;
    every token of the word is still evaluated.  Entries stay CycloNum
    values at the orders the products give them, because those orders
    reach the `lambda --json` report; the sampling checks and the lambda
    identity suite use `rep_evaluate_packed`.
    """
    w = syllables(m)
    acc = None
    for k in w.steps:
        step = md.s if k is None else md.ts_syllable(k)
        acc = step if acc is None else mx.mat_mul(acc, step)
    if w.last_t is not None:  # a final t^k scales the columns
        entries = md.t_entries(w.last_t)
        acc = (
            mx.diagonal(entries)
            if acc is None
            else mx.scale_cols(acc, entries)
        )
    if acc is None:
        acc = mx.identity(md.rank)
    if w.central:
        acc = mx.mat_mul(acc, md.chat)
    return acc


def rep_evaluate_packed(md: ModularData, m: SL2ZMat) -> PackedMatrix:
    """D(m) over the model's single field (see `modata.packed`): the same
    syllables as `rep_evaluate`, a bare s being T^0 S, multiplied as
    packed matrices, and -I a row permutation by `conj`."""
    w = syllables(m)
    return md.packed.product(
        [0 if k is None else k for k in w.steps], w.last_t, w.central)


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
    found = None
    for t in range(0, 4 * n + 1):
        for s in range(0, 4 * n + 1):
            a, e = a0 + t * n, e0 + s * n
            if a != 0 and math.gcd(a, e) == 1:
                found = (a, e)
                break
        if found:
            break
    if not found:
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
