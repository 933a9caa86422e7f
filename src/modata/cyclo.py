"""Exact arithmetic in cyclotomic fields Q(zeta_M).

An element is stored in the power basis {zeta_M^0, ..., zeta_M^(phi(M)-1)}
after reduction modulo the M-th cyclotomic polynomial, as one common positive
denominator together with integer numerators: CycloNum(M, d, (n_0, ...))
represents sum_j (n_j / d) * zeta_M^j.  The stored form is canonical
(d >= 1 and gcd(d, n_0, ..., n_{phi-1}) == 1), so two elements of equal
order are equal exactly when their stored tuples are equal.

Mixed-order arithmetic coerces both operands to the least common multiple of
their orders; callers never manage orders by hand.  All values are immutable
and every operation is pure.  The inverse is the norm inverse: the product
of the distinct Galois conjugates of x other than x, taken at the minimal
order of x, divided by the norm, which is that product times x and
rational.  A value keeps its own multiplicative inverse once it has been
asked for it, so code that divides by the same value many times (a vacuum
row, a root of unity) pays for one norm; the memo is a cache invisible to
equality, hashing and serialization.

Coercion to a subfield, the minimal order, the hash and the inverse share
one exact integer descent, one prime of the order at a time: a read of
every p-th digit when p still divides the smaller order, and otherwise a
split of the digits over Q(zeta_k)(zeta_p) (see `_drop_prime`).

A sum of products, such as a matrix product entry, is one `dot`: the terms
accumulate unreduced over one common denominator and the sum is reduced
and normalised once.  Reduction is linear, so reducing the sum equals
summing the reduced products, and the canonical form makes the result the
one a chain of `*` and `+` gives, at a fraction of the per-term cost.

A root of unity built as make(M, [(k, 1)]) (so also root_of_unity_exp)
carries its exponent k, and is built once: the context of M keeps one
instance per k mod M, shared by every caller, as values are immutable.  A
product with it is an index shift: each coefficient of the other factor
moves to its exponent plus k, at the lcm of the orders, with no polynomial
product and no coercion; two roots multiply by adding exponents, and the
Galois images and the inverse of a root are roots again.  A product with a
rational held at order 1 scales the numerators and the denominator.  The
stored form of every result is the one the generic product gives, and the
tests compare each of these fast paths with a schoolbook product.

Reduction modulo Phi_M is sparse: a context keeps Phi_M and its nonzero low
terms, O(phi) memory per order, and one routine reduces every product, Galois
image, coercion and constructed element.  One placement routine puts
coefficients at their exponents mod M for coercion, Galois images and
shifts; for even M it folds the upper half down by zeta^(M/2) = -1 first.
The ambient order is capped by the MODATA_MAX_ORDER environment variable
(default 4096) as a time guard: dense products grow as phi^2, and a norm
inverse takes up to phi of them.

`cyclo_from_obj` reads the serialized form `to_obj` writes.  A coefficient
is a JSON integer or a string; a string p or p/q (an optional minus and
ASCII digits) is read by `int`, over the lcm of the q's, and any other
string by `Fraction`, which accepts or refuses it.  A JSON float or bool is
refused, as it is for the rationals of a model file (`exact_rational`).
"""

import cmath
import math
import os
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ModelFormatError,
    NegativeRadicandError,
    NotCoprimeError,
    NotEmbeddableError,
    OrderCapError,
)

#: Largest number of reliable decimal digits for the floating embedding.
MAX_EMBED_DIGITS = 12

_DEFAULT_MAX_ORDER = 4096


def _check_order(order: int) -> None:
    raw = os.environ.get("MODATA_MAX_ORDER", _DEFAULT_MAX_ORDER)
    try:
        cap = int(raw)
    except ValueError:
        raise OrderCapError(
            f"MODATA_MAX_ORDER={raw!r} is not an integer"
        ) from None
    if order > cap:
        raise OrderCapError(
            f"cyclotomic order {order} exceeds MODATA_MAX_ORDER={cap}"
        )


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(m: int) -> int:
    """Euler totient of a positive integer."""
    if m < 1:
        raise ValueError("order must be positive")
    result = m
    for p in _factorize(m):
        result -= result // p
    return result


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, den monic; remainder must vanish.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q = num[i + len(den) - 1]
        out[i] = q
        if q:
            for j, c in enumerate(den):
                num[i + j] -= q * c
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _inflate(poly, k: int) -> list[int]:
    # poly(x^k)
    out = [0] * (k * (len(poly) - 1) + 1)
    out[::k] = poly
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the m-th cyclotomic polynomial.

    Built from Phi_1 = x - 1 by the substitution identities
    Phi_pn(x) = Phi_n(x^p) / Phi_n(x) for each prime p of m (p not dividing
    n), then Phi_m(x) = Phi_rad(m)(x^(m / rad(m))); exact integer arithmetic.
    """
    if m < 1:
        raise ValueError("order must be positive")
    poly = [-1, 1]
    rad = 1
    for p in _factorize(m):
        poly = _poly_divmod_int(_inflate(poly, p), poly)
        rad *= p
    return tuple(_inflate(poly, m // rad))


class _FieldContext:
    """Phi_M for Q(zeta_M), with its nonzero low terms for sparse reduction,
    and the roots of unity zeta_M^e built so far (`root`), kept under
    e mod M: a context keeps at most M of them, and every product, Galois
    image or inverse that lands on a root it holds returns that object."""

    __slots__ = ("order", "phi", "half", "poly", "low", "roots")

    def __init__(self, order: int):
        self.order = order
        self.poly = cyclotomic_polynomial(order)
        self.phi = len(self.poly) - 1
        # zeta^(M/2) = -1 when M is even; 0 marks an odd M
        self.half = order // 2 if order % 2 == 0 else 0
        # x^phi = sum r * x^j over these (j, r) pairs, modulo Phi_M
        self.low = tuple((j, -c) for j, c in enumerate(self.poly[:-1]) if c)
        self.roots: dict[int, "_Root"] = {}

    def reduce(self, acc: list) -> list:
        """Reduce the power-basis coefficients `acc` (at least phi of them)
        modulo Phi_M in place, top degree first, and return them."""
        phi = self.phi
        low = self.low
        while len(acc) > phi:
            c = acc.pop()
            if c:
                base = len(acc) - phi
                for j, r in low:
                    acc[base + j] += c * r
        return acc

    def substitute(self, nums, step: int, offset: int = 0) -> list:
        """sum_j nums[j] * zeta_M^(step*j + offset), reduced; 0 <= offset < M.

        Exponents are taken mod M, and for even M those of the upper half
        fold down by zeta^(M/2) = -1 (phi <= M/2), so the reduction starts
        from at most M/2 coefficients."""
        m, phi, half = self.order, self.phi, self.half
        size = half or m
        top = step * (len(nums) - 1) + offset + 1
        if top < size:
            size = phi if top < phi else top
        acc = [0] * size
        for j, c in enumerate(nums):
            if c:
                k = (step * j + offset) % m
                if k < size:
                    acc[k] += c
                else:
                    acc[k - half] -= c
        return self.reduce(acc)


@lru_cache(maxsize=None)
def _context(order: int) -> _FieldContext:
    _check_order(order)
    return _FieldContext(order)


def _normalize(den: int, nums: list[int]) -> tuple[int, tuple[int, ...]]:
    if den < 0:
        den = -den
        nums = [-x for x in nums]
    g = den
    for x in nums:
        g = math.gcd(g, x)
        if g == 1:
            return den, tuple(nums)
    return den // g, tuple(x // g for x in nums)


class CycloNum:
    """An exact element of Q(zeta_order); immutable."""

    # `_inv` is left unset by __init__ and filled by the first inverse().
    __slots__ = ("order", "den", "nums", "_hash", "_inv")

    #: k when the value is zeta_order^k (set on `_Root`), else None
    exponent = None

    def __init__(self, order: int, den: int, nums):
        ctx = _context(order)
        nums = list(nums)
        if len(nums) != ctx.phi:
            raise ValueError(
                f"need exactly {ctx.phi} coefficients for order {order}"
            )
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        d, ns = _normalize(den, nums)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "den", d)
        object.__setattr__(self, "nums", ns)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(q, order: int = 1) -> "CycloNum":
        q = Fraction(q)
        ctx = _context(order)
        nums = [0] * ctx.phi
        nums[0] = q.numerator
        return CycloNum(order, q.denominator, nums)

    @staticmethod
    def zero(order: int = 1) -> "CycloNum":
        return CycloNum.rational(0, order)

    @staticmethod
    def one(order: int = 1) -> "CycloNum":
        return CycloNum.rational(1, order)

    # -- views ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients over the power basis, as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.nums[0], self.den)

    def is_nonneg_integer(self) -> bool:
        return self.is_rational() and self.den == 1 and self.nums[0] >= 0

    # -- equality -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.rational(other, self.order)
        if not isinstance(other, CycloNum):
            return NotImplemented
        if self.order != other.order:
            a, b = _align(self, other)
            return a.den == b.den and a.nums == b.nums
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # consistent across orders: hash the minimal-order canonical form
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        if self._hash is None:
            rep = self._at_minimal_order()
            object.__setattr__(
                self, "_hash", hash((rep.order, rep.den, rep.nums)))
        return self._hash

    def __reduce__(self):
        # copies and pickles go through the constructors, the slots being
        # read-only; a root keeps its exponent and the memos are dropped
        if self.exponent is not None:
            return root, (self.order, self.exponent)
        return CycloNum, (self.order, self.den, self.nums)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "CycloNum":
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = _align(self, other)
        nums = [
            x * b.den + y * a.den for x, y in zip(a.nums, b.nums)
        ]
        return CycloNum(a.order, a.den * b.den, nums)

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, self.den, [-x for x in self.nums])

    def __sub__(self, other) -> "CycloNum":
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "CycloNum":
        return (-self).__add__(other)

    def __mul__(self, other) -> "CycloNum":
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        if other.exponent is not None:
            if self.exponent is not None:
                return _root_product(self, other)
            return _shift(self, other)
        if self.exponent is not None:
            return _shift(other, self)
        if other.order == 1:
            return _scale(self, other)
        if self.order == 1:
            return _scale(other, self)
        a, b = _align(self, other)
        ctx = _context(a.order)
        acc = [0] * (2 * ctx.phi - 1)
        b_nz = [(j, bj) for j, bj in enumerate(b.nums) if bj]
        for i, ai in enumerate(a.nums):
            if ai:
                for j, bj in b_nz:
                    acc[i + j] += ai * bj
        return CycloNum(a.order, a.den * b.den, ctx.reduce(acc))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse by the norm: with x at its minimal order
        n and c the product of the distinct conjugates sigma_l(x) != x over
        the units l mod n, c*x is the product of the Galois orbit of x, the
        norm of x from Q(x) down to Q, which is rational and nonzero, and
        1/x = c / (c*x), coerced back to the stored order.  A real x has at
        most phi(n)/2 distinct conjugates, so only the distinct ones, told
        apart by their stored (den, nums), are multiplied.  A root of unity
        zeta^k inverts to zeta^-k.  Computed once per value and then
        returned from the `_inv` slot."""
        inv = getattr(self, "_inv", None)
        if inv is not None:
            return inv
        if self.exponent is not None:
            inv = root(self.order, -self.exponent)
        elif self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        elif self.is_rational():
            inv = CycloNum.rational(1 / self.as_fraction(), self.order)
        else:
            x = self._at_minimal_order()
            n = x.order
            cofactor = CycloNum.one(n)
            seen = {(x.den, x.nums)}
            for l in range(2, n):
                if math.gcd(l, n) == 1:
                    y = x.galois(l)
                    if (y.den, y.nums) not in seen:
                        seen.add((y.den, y.nums))
                        cofactor = cofactor * y
            inv = (cofactor * (1 / (cofactor * x).as_fraction())).coerce(
                self.order)
        object.__setattr__(self, "_inv", inv)
        return inv

    def __truediv__(self, other) -> "CycloNum":
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational():
            q = other.as_fraction()
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * CycloNum.rational(1 / q, 1)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycloNum":
        return _as_cyclo(other).__truediv__(self)

    def __pow__(self, k: int) -> "CycloNum":
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        result = CycloNum.one(base.order)
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- Galois structure -------------------------------------------------

    def galois(self, l: int) -> "CycloNum":
        """Apply the field automorphism zeta -> zeta^l (l coprime to order)."""
        m = self.order
        l %= m
        if math.gcd(l, m) != 1:
            raise NotCoprimeError(f"gcd({l}, {m}) != 1")
        if l == 1 or self.is_rational():
            return self
        if self.exponent is not None:
            return root(m, self.exponent * l)
        return CycloNum(m, self.den, _context(m).substitute(self.nums, l))

    def conjugate(self) -> "CycloNum":
        """Complex conjugate (the automorphism zeta -> zeta^-1)."""
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    def coerce(self, new_order: int) -> "CycloNum":
        """Re-express the same field element at a different ambient order.

        Raises NotEmbeddableError when the element does not lie in the
        target field.
        """
        m = self.order
        if new_order == m:
            return self
        if new_order % m == 0:
            return self._coerce_up(new_order)
        g = math.gcd(m, new_order)
        x = self._descend(g)
        if x is None:
            raise NotEmbeddableError(
                f"element of Q(zeta_{m}) is not in Q(zeta_{g})")
        return x._coerce_up(new_order)

    def _coerce_up(self, new_order: int) -> "CycloNum":
        nums = _context(new_order).substitute(
            self.nums, new_order // self.order)
        return CycloNum(new_order, self.den, nums)

    def _descend(self, sub_order: int) -> "CycloNum | None":
        """This element at the divisor `sub_order` of its order, or None
        when it is not in that field; one prime p of the step at a time,
        from order m to k = m/p.  When p divides k, Phi_m(x) = Phi_k(x^p):
        the coordinates are every p-th digit, and any other nonzero digit
        puts the element outside.  These steps come first, as one read of
        every r-th digit, r their product; the primes that leave the order
        are then dropped by `_drop_prime`."""
        step = self.order // sub_order
        fresh = [p for p in _factorize(step) if sub_order % p]
        read = step // math.prod(fresh)
        if any(c for j, c in enumerate(self.nums) if j % read):
            return None
        nums, k = self.nums[::read], self.order // read
        for p in fresh:
            k //= p
            nums = _drop_prime(nums, k, p)
            if nums is None:
                return None
        return CycloNum(sub_order, self.den, nums)

    def _at_minimal_order(self) -> "CycloNum":
        """This element at the least order it lies at.  Q(zeta_a) and
        Q(zeta_b) meet in Q(zeta_gcd(a, b)), so the orders the element lies
        at are the multiples of the least that divide its order, and
        dropping one prime of the order at a time, while the element still
        descends, ends there."""
        x = self
        for p in _factorize(self.order):
            while x.order % p == 0:
                y = x._descend(x.order // p)
                if y is None:
                    break
                x = y
        return x

    def minimal_order(self) -> int:
        """Smallest divisor n of the order with the element inside
        Q(zeta_n)."""
        if self.is_rational():
            return 1
        return self._at_minimal_order().order

    # -- numeric embedding -------------------------------------------------

    def embed(self) -> complex:
        """Floating approximation under zeta_M -> exp(2*pi*i/M)."""
        m = self.order
        total = 0j
        for j, cj in enumerate(self.nums):
            if cj:
                total += cj * cmath.exp(complex(0.0, 2.0 * math.pi * j / m))
        return total / self.den

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_rational():
            return f"CycloNum({Fraction(self.nums[0], self.den)})"
        terms = []
        for j, n in enumerate(self.nums):
            if n:
                q = Fraction(n, self.den)
                terms.append(f"({q})*z{self.order}^{j}" if j else f"({q})")
        return "CycloNum(" + " + ".join(terms) + ")"

    def to_obj(self) -> dict:
        """Serializable form: {"order": M, "coeffs": ["p/q", ...]}."""
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


class _Root(CycloNum):
    """zeta_order^exponent: the same value as the generic CycloNum, which
    products, Galois images and the inverse act on through the exponent."""

    __slots__ = ("exponent",)


def root(order: int, e: int) -> _Root:
    """zeta_order^e, the one instance `_context(order)` keeps under
    e mod order."""
    ctx = _context(order)
    e %= order
    r = ctx.roots.get(e)
    if r is None:
        r = _Root(order, 1, ctx.substitute((1,), 0, e))
        object.__setattr__(r, "exponent", e)
        ctx.roots[e] = r
    return r


def _root_product(a: CycloNum, b: CycloNum) -> _Root:
    m = math.lcm(a.order, b.order)
    return root(m, a.exponent * (m // a.order) + b.exponent * (m // b.order))


def _shift(x: CycloNum, r: CycloNum) -> CycloNum:
    # x * zeta_r^e moves each coefficient of x from zeta_x^j to
    # zeta_m^(j*m/x.order + e*m/r.order), m = lcm of the orders
    m = x.order if x.order == r.order else math.lcm(x.order, r.order)
    nums = _context(m).substitute(
        x.nums, m // x.order, r.exponent * (m // r.order))
    return CycloNum(m, x.den, nums)


def _scale(x: CycloNum, q: CycloNum) -> CycloNum:
    # x * q for q at order 1, a rational
    n = q.nums[0]
    return CycloNum(x.order, x.den * q.den, [c * n for c in x.nums])


def _as_cyclo(value):
    if isinstance(value, CycloNum):
        return value
    if isinstance(value, (int, Fraction)):
        return CycloNum.rational(value, 1)
    return NotImplemented


def _align(a: CycloNum, b: CycloNum) -> tuple[CycloNum, CycloNum]:
    if a.order == b.order:
        return a, b
    m = math.lcm(a.order, b.order)
    return a.coerce(m), b.coerce(m)


def dot(xs, ys) -> CycloNum:
    """sum x * y over the pairs of `xs` and `ys` where both factors are
    nonzero, at the lcm of those pairs' orders; zero (order 1) if none is.

    Each operand is lifted to that order by substitution and the products
    accumulate unreduced over one integer common denominator, so the sum
    costs one reduction and one constructed value however many terms it
    has.  The canonical form is unique at a given order, so the result is
    the one a chain of `*` and `+` would give.
    """
    pairs = [(x, y) for x, y in zip(xs, ys) if any(x.nums) and any(y.nums)]
    if not pairs:
        return CycloNum.zero()
    m = math.lcm(*(x.order for x, _ in pairs), *(y.order for _, y in pairs))
    den = math.lcm(*(x.den * y.den for x, y in pairs))
    ctx = _context(m)
    acc = [0] * (2 * ctx.phi - 1)
    for x, y in pairs:
        xn = x.nums if x.order == m else ctx.substitute(x.nums, m // x.order)
        yn = y.nums if y.order == m else ctx.substitute(y.nums, m // y.order)
        ys_nz = [(j, d) for j, d in enumerate(yn) if d]
        f = den // (x.den * y.den)
        for i, c in enumerate(xn):
            if c:
                c *= f
                for j, d in ys_nz:
                    acc[i + j] += c * d
    return CycloNum(m, den, ctx.reduce(acc))


def _drop_prime(nums, k: int, p: int):
    """The digits at order k of the element with digits `nums` at order
    k*p, p a prime not dividing k, or None when it is not in Q(zeta_k).
    With u = 1/p mod k and v = 1/k mod p, zeta_kp = zeta_k^u zeta_p^v, and
    the element is the sum over t of B_t zeta_p^t, B_t in Q(zeta_k) taking
    digit j to the power u*j mod k when v*j = t mod p.  As zeta_p^(p-1) is
    minus the sum of the basis 1, ..., zeta_p^(p-2) of Q(zeta_kp) over
    Q(zeta_k), the element is in Q(zeta_k) exactly when each B_t - B_(p-1),
    0 < t < p-1, is zero mod Phi_k, and it is then B_0 - B_(p-1)."""
    u, v = pow(p, -1, k), pow(k, -1, p)
    parts = [[0] * k for _ in range(p)]
    for j, c in enumerate(nums):
        if c:
            parts[v * j % p][u * j % k] += c
    last = parts[p - 1]
    reduce = _context(k).reduce

    def minus_last(t):
        return reduce([a - b for a, b in zip(parts[t], last)])

    if any(any(minus_last(t)) for t in range(1, p - 1)):
        return None
    return minus_last(0)


# -- module-level operation surface ------------------------------------------


def make(order: int, terms) -> CycloNum:
    """Build the canonical reduced element sum coeff * zeta_order^exp.

    `terms` is an iterable of (exponent, coefficient) pairs (or a mapping);
    exponents are reduced modulo the order, coefficients may be ints,
    Fractions or fraction strings.
    """
    if order < 1:
        raise ValueError("order must be positive")
    ctx = _context(order)
    if hasattr(terms, "items"):
        terms = terms.items()
    terms = [(exp % order, Fraction(coeff)) for exp, coeff in terms]
    terms = [(e, c) for e, c in terms if c]
    if len(terms) == 1 and terms[0][1] == 1:
        return root(order, terms[0][0])
    den = math.lcm(*(c.denominator for _, c in terms))
    acc = [0] * max([ctx.phi] + [e + 1 for e, _ in terms])
    for e, c in terms:
        acc[e] += c.numerator * (den // c.denominator)
    return CycloNum(order, den, ctx.reduce(acc))


def field_arithmetic(op: str, a: CycloNum, b: CycloNum) -> CycloNum:
    """Named dispatch over the four exact field operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def conjugate(a: CycloNum) -> CycloNum:
    return a.conjugate()


def galois_apply(l: int, a: CycloNum) -> CycloNum:
    return a.galois(l)


def coerce(a: CycloNum, new_order: int) -> CycloNum:
    return a.coerce(new_order)


def minimal_order(a: CycloNum) -> int:
    return a.minimal_order()


def root_of_unity_exp(r) -> CycloNum:
    """exp(2*pi*i*r) as an exact root of unity of order den(r)."""
    r = Fraction(r)
    r -= math.floor(r)
    return make(r.denominator, [(r.numerator, 1)])


def _legendre(a: int, p: int) -> int:
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _sqrt_prime(p: int) -> CycloNum:
    # Gauss sums: sqrt(2) = zeta_8 + zeta_8^-1; for odd p the quadratic
    # Gauss sum gives sqrt(p) directly (p = 1 mod 4) or i*sqrt(p) (p = 3 mod 4).
    if p == 2:
        return make(8, [(1, 1), (7, 1)])
    g = make(p, [(a, _legendre(a, p)) for a in range(1, p)])
    if p % 4 == 1:
        return g
    return g * make(4, [(1, -1)])


def sqrt_nonneg_rational(q) -> CycloNum:
    """The real nonnegative square root of q >= 0, exactly.

    sqrt(p/q) is computed as sqrt(p*q)/q so the radicand stays integral;
    square-free prime factors are handled by Gauss sums.  Each
    `_sqrt_prime` is the positive root, by Gauss's sign of the quadratic
    Gauss sum, so their product with the positive rational part is too.
    """
    q = Fraction(q)
    if q < 0:
        raise NegativeRadicandError(f"sqrt of negative rational {q}")
    if q == 0:
        return CycloNum.zero()
    n = q.numerator * q.denominator
    square_part = 1
    odd_primes = []
    for p, e in _factorize(n).items():
        square_part *= p ** (e // 2)
        if e % 2:
            odd_primes.append(p)
    result = CycloNum.rational(Fraction(square_part, q.denominator))
    for p in sorted(odd_primes):
        result = result * _sqrt_prime(p)
    return result


def embed_complex(a: CycloNum, digits: int = MAX_EMBED_DIGITS) -> complex:
    """Floating approximation of `a`, rounded to `digits` decimals."""
    if not 1 <= digits <= MAX_EMBED_DIGITS:
        raise ValueError(f"digits must be in 1..{MAX_EMBED_DIGITS}")
    z = a.embed()
    return complex(round(z.real, digits), round(z.imag, digits))


def exact_rational(value, what: str) -> Fraction:
    """A rational of a model file, the `what` of its error: a JSON integer,
    or a string `Fraction` reads; a JSON float or bool is not exact and
    raises TypeError."""
    if isinstance(value, (bool, float)):
        raise TypeError(
            f"{what} {value!r} is not an integer or a rational string")
    return Fraction(value)


def _coefficient(c) -> tuple[int, int]:
    """(p, q) with p / q the coefficient `c` of a model file, q > 0: a JSON
    integer is (c, 1), and a string of the form written by `to_obj`, an
    optional minus, ASCII digits and optionally a slash and ASCII digits,
    is read by `int`; any other string is read by `exact_rational`, so it
    is accepted or refused as `Fraction` does."""
    if type(c) is int:
        return c, 1
    if type(c) is str and c.isascii():
        p, slash, q = c.partition("/")
        q = q if slash else "1"
        if q.isdigit() and (p[1:] if p[:1] == "-" else p).isdigit():
            q = int(q)
            if q:
                return int(p), q
    value = exact_rational(c, "coefficient")
    return value.numerator, value.denominator


def cyclo_from_obj(obj) -> CycloNum:
    """Inverse of CycloNum.to_obj; raises ModelFormatError when `obj` does
    not have that shape.  Each coefficient is a JSON integer or a rational
    string (`_coefficient`), over the lcm of their denominators."""
    shape = 'expected {"order": int, "coeffs": [...]}'
    if not isinstance(obj, dict):
        raise ModelFormatError(
            f"malformed cyclotomic number: {shape}, not {type(obj).__name__}")
    missing = [key for key in ("order", "coeffs") if key not in obj]
    if missing:
        raise ModelFormatError(
            f"malformed cyclotomic number: {shape}, "
            f"without {' or '.join(missing)}")
    try:
        order = obj["order"]
        coeffs = obj["coeffs"]
        if not isinstance(order, int) or isinstance(order, bool):
            raise TypeError(f"order {order!r} is not an integer")
        if not isinstance(coeffs, list):
            raise TypeError(f"coeffs {coeffs!r} is not a list")
        coeffs = [_coefficient(c) for c in coeffs]
    except (TypeError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
        raise ModelFormatError(
            f"malformed cyclotomic number: {type(exc).__name__}: {exc}"
        ) from None
    if order < 1:
        raise ModelFormatError(f"cyclotomic order {order} is not positive")
    _check_order(order)  # euler_phi factors by trial division
    if len(coeffs) != euler_phi(order):
        raise ModelFormatError(
            "coefficient count does not match the field degree"
        )
    den = math.lcm(*(q for _, q in coeffs))
    return CycloNum(order, den, [p * (den // q) for p, q in coeffs])
