"""Packed matrices over one cyclotomic field, for validation and sampling.

The S and T entries of a model, and so every D(m) and fusion table, lie
in Q(zeta_M), M the lcm of the orders of the S and T entries
(`field_order`).  Validation (but S^2 and symmetry), the Galois signed
permutation and the sampling checks run on one matrix type there.  An
entry is one int: its phi(M) reduced power-basis coefficients as signed
B-bit digits, sum_j c_j 2^(B*j), over one den per matrix.  A product
entry is the big-int sum of a row times a column, reduced modulo Phi_M
by the rounds of `_fold_constants`: one sparse round x^h = -1 (h = M/2,
M even) or x^h = 1 (h = M, M odd), which Phi_M divides and which takes no
multiply, then a fixed number per order of dense rounds x^phi = R, each a
big-int product by R packed.  At orders with a large prime the sparse
round leaves one dense round where x^phi = R alone took about phi(rad).
Every matrix product is `@`: while an entry has at most SLOT_BITS bits,
it packs each row of the right factor as one int, entry j in slot j
(`SlotPacking`): row i of the product is then rank big-int products
sum_k a_ik * B_k and one reduction of all its slots at once.  Wider
entries take the entry-by-entry product (`_entry_product`), which
measured faster there.  A word of syllables is their product by `@`,
left to right.
Transposes and row permutations (S^dagger = sigma_-1(S) transposed,
S^-1 = C S and the central -I by `conj`) move the ints.  A diagonal
factor, such as a power of T, is a `Scaling`, never a matrix: `scale`
multiplies each entry by its row's and column's packed factor, rank^2
products where a matrix product takes rank^3.  CycloNum values are read
by `pack` and none is built here.  `Phased` carries roots of unity
outside the field, such as fractional powers of T, as phase exponents; a
root inside it turns a packed entry only as the product by its packed
monomial, reduced at the width rule of `scale`.

A carry between digits would corrupt them silently, so every matrix holds
a proven bound: its digits are below 2^bits in absolute value and `norm`
bounds each column's digit l1 norm.  `_fit` sets every width B with
bits + ceil(log2(g)) <= B - 1, g the right factor's norm (a scaling's
largest l1 norm) times the stage growth of the rounds, the largest row
l1 norm of the map of sigma_l, or 2^(bit length of the cofactor, the
other den over the gcd of the dens) for a comparison (`_comparable`, with
the rule of `scale` for a turn).  A claimed bound is remeasured on the
digits before the width grows.  A slot product is taken only where that
rule keeps the left factor's width; a product that would widen is an
entry product, which remeasures first.

Caches are keyed on exponents and automorphisms, per model content:
T^k and T^k S under k mod M, sigma_l(S) under l, and sigma_l(T^k S) under
(l mod M, k mod M).  T = diag(zeta_M^w), so T^(k+M) = T^k entry by entry,
an identity of roots of unity; a model then holds at most M of each, and
at most M sigma_l syllables per unit l used.  sigma_l(D(m)) is the word
of m in sigma_l syllables, then T^(l*last) and C, so no sigma is taken
of a product.  No cache is keyed on a group element mod N: that would
assume the congruence property that the sampled checks test, so every
syllable of every word is still multiplied.  A model's content is its
field order, its packed S, its conjugation and its T weights;
`packed_model` keeps one `PackedModel` per content for the process, for
the `MODEL_TABLE_SIZE` contents used last, so requests that build the same
model again share its caches.  A two-sided `scale` and a turn of
`Phased` read each root of unity as its packed monomial off one table
per packing (`Packing.monomial`), which holds at most M; a one-sided
`Scaling` packs its own digits once per width, and no cache is keyed on
a tuple of exponents."""

import math
import threading
from collections import OrderedDict
from functools import lru_cache, reduce
from itertools import zip_longest
from operator import matmul, mul

from .cyclo import _context, _factorize

#: Digit widths are multiples of this many bits.
WIDTH_STEP = 32


def _clog2(x: int) -> int:
    """ceil(log2(x)) for a positive integer x."""
    return (x - 1).bit_length()


def width_for(bits: int) -> int:
    """The narrowest digit width that holds digits below 2^bits as signed
    digits, i.e. with bits <= B - 1."""
    return WIDTH_STEP * (bits // WIDTH_STEP + 1)


def _fold_list(p: list, low, cut: int) -> list:
    """One round lo + hi * R of the coefficient list p, lo its coefficients
    below x^cut, where x^cut = R is sum r * x^j over the (j, r) pairs of
    `low`; trailing zeros dropped."""
    out = p[:cut] + [0] * (len(p) - cut)
    for i, c in enumerate(p[cut:]):
        if c:
            for j, r in low:
                out[i + j] += c * r
    while len(out) > cut and not out[-1]:
        out.pop()
    return out


@lru_cache(maxsize=None)
def _fold_constants(order: int) -> tuple[int, int, int, int]:
    """(h, folds, stage growth, reduce growth) for products at `order`: one
    sparse round x^h = -1 (h = order/2, even order) or x^h = 1 (h = order,
    odd order), none when h = 0, then `folds` dense rounds x^phi = R.

    Every root zeta of Phi_M has order M, so for even M, zeta^(M/2) is a
    square root of 1 other than 1, that is -1, and for odd M, zeta^M = 1;
    Phi_M has no repeated root, so it divides x^(M/2) + 1, or x^M - 1.  A
    sparse round lo + s * hi at x^h = s (s = -1 or 1) is then a reduction
    modulo Phi_M that needs no multiply.  A product of two reduced
    polynomials has degree at most 2*phi - 2 < 2*h (phi <= M/2 for even M,
    phi <= M for odd M), so its part hi above x^h has degree below h, and
    one sparse round brings it below degree h.  Dense rounds lo + hi * R
    then bring it below degree phi.  When no exponent of a product reaches
    h, h is 0 and the dense rounds alone reduce it.

    Folding is linear, so a coefficient after k rounds is at most the
    input bound times the largest l1 norm of a row of the k-round map;
    stage growth is the largest over all rounds (the input and the sparse
    round included) and reduce growth the one after the last round.  A
    sparse round adds at most one coefficient to another, so its rows have
    l1 norm at most 2, and the sign s changes no l1 norm.

    Phi_order(x) is Phi_rad(y) at y = x^q, q = order/rad, rad the radical
    of the order, and x^h = y^(h/q) with h/q = rad/2 (even rad) or rad (odd
    rad), so both kinds of round map each class of exponents modulo q to
    itself, as a round on a polynomial in y modulo Phi_rad.  The class of
    x^0 holds y^0 .. y^top, with top = 2*phi(rad) - 1 when rad < order and
    2*phi - 2 when the order is squarefree, and every other class holds a
    part of that range; so the constants are those of y^0 .. y^top, and an
    exponent c + q*i (0 <= c < q) reaches h exactly when i reaches h/q, so
    some exponent of a product does exactly when top does.
    """
    rad = math.prod(_factorize(order))
    ctx = _context(rad)
    phi = ctx.phi
    top = 2 * phi - 1 if rad < order else 2 * phi - 2
    h, sign = (rad // 2, -1) if rad % 2 == 0 else (rad, 1)
    if top < h:
        h = 0
    polys = [[0] * i + [1] for i in range(top + 1)]
    growth = [1]

    def fold(low, cut):
        nonlocal polys
        polys = [_fold_list(p, low, cut) for p in polys]
        growth.append(max(
            sum(map(abs, col)) for col in zip_longest(*polys, fillvalue=0)))

    if h:
        fold(((0, sign),), h)
    while any(len(p) > phi for p in polys):
        fold(ctx.low, phi)
    return (order // rad * h, len(growth) - 1 - (h > 0), max(growth),
            growth[-1])


class Packing:
    """Q(zeta_order) at digit width `width`: the constants of the packed
    reduction.  Use `packing(order, width)`, which shares one per pair.

    `_rounds` is the schedule of `_fold_constants` as (mask, shift, fold)
    triples, round t -> (t & mask) + (t >> shift) * fold: first, when
    h > 0, the sparse round x^h = -+1, with the h low digits as its mask
    and the int -1 or 1 as its fold, then the dense rounds x^phi = R, with
    the phi low digits as their mask and R packed as their fold."""

    __slots__ = ("order", "phi", "width", "stage_growth", "reduce_growth",
                 "_mask", "_digit", "_half", "_offset", "_start", "_rounds",
                 "_monomials")

    def __init__(self, order: int, width: int):
        ctx = _context(order)
        self.order = order
        self.phi = phi = ctx.phi
        self.width = width
        h, folds, self.stage_growth, self.reduce_growth = \
            _fold_constants(order)
        shift = width * phi
        self._mask = (1 << shift) - 1
        self._digit = (1 << width) - 1
        self._half = 1 << (width - 1)
        # 2^(B-1) in each of the phi low digits: adding it makes them
        # nonnegative, so they split off by a mask without a borrow
        self._offset = self.pack([self._half] * phi)
        self._start = self._offset
        rounds = [(self._mask, shift,
                   self.pack([dict(ctx.low).get(j, 0) for j in range(phi)]))
                  ] * folds
        if h:
            sign = -1 if order % 2 == 0 else 1  # x^h modulo Phi_order
            low = self.pack([self._half] * h)
            self._start = low + (sign * (self._offset - low) << width * h)
            rounds.insert(0, ((1 << width * h) - 1, width * h, sign))
        self._rounds = tuple(rounds)
        self._monomials: dict[int, int] = {}

    def pack(self, digits) -> int:
        """sum_j digits[j] * 2^(width*j), for digits of any sign."""
        v = 0
        for c in reversed(digits):
            v = (v << self.width) + c
        return v

    def monomial(self, e: int) -> int:
        """x^e modulo Phi_order packed at this width, for 0 <= e < order;
        kept per e, so a packing holds at most `order` of them."""
        return _cached(self._monomials, e,
                       lambda: self.pack(_monomial(self.order, e)))

    def unpack(self, v: int) -> list[int]:
        """The phi signed digits of a reduced packed int."""
        t = v + self._offset
        digit, half, width = self._digit, self._half, self.width
        out = []
        for _ in range(self.phi):
            out.append((t & digit) - half)
            t >>= width
        return out

    def reduce(self, v: int) -> int:
        """v modulo Phi_order, for v of degree at most 2*phi - 2 whose
        digits, and those of each round, lie in [-2^(B-1), 2^(B-1)).

        t is v plus an offset of 2^(B-1) in each digit below the cut of
        the next round (h for the sparse round, phi for a dense one), so
        those digits are nonnegative: `t & mask` is them plus the offset,
        with no borrow, and `t >> shift` the digits above the cut.  A
        dense round keeps the phi-digit offset `_offset`.  Before the
        sparse round t is v plus `_start`, the h-digit offset L plus
        sign * (`_offset` - L) above digit h: the round multiplies the
        part above h by sign, so it adds `_offset` - L, and leaves
        `_offset`."""
        t = v + self._start
        for mask, shift, fold in self._rounds:
            t = (t & mask) + (t >> shift) * fold
        return t - self._offset


@lru_cache(maxsize=None)
def packing(order: int, width: int) -> Packing:
    return Packing(order, width)


#: `PackedMatrix.__matmul__` multiplies by slot rows while a packed entry
#: has at most this many bits (phi * width); above it, slot products
#: measured slower than `_entry_product`.
SLOT_BITS = 256


class SlotPacking:
    """Rows of `rank` entries of Q(zeta_order) at digit width `width`, each
    row one int with entry j in slot j, 2*phi digits wide.  Use
    `slot_packing(order, width, rank)`, which shares one per triple.

    A packed entry times a slot row puts each entry product, unreduced
    (degree at most 2*phi - 2), in its own slot, so row i of a product is
    sum_k a_ik * B_k over the slot rows B_k of the right factor.  Adding
    2^(B-1) to digits 0 .. 2*phi - 2 of every slot makes every digit
    nonnegative, so the slots split by masks without a borrow.  Each round
    of `Packing.reduce`, with its cut c (h for the sparse round, phi for a
    dense one) and its fold (-1, 1 or R), is one round here: every slot's
    low c digits, plus its digits from c up, less their offset, times the
    fold, plus the offset again in digits c .. 2*phi - 2.  After the last
    round the digits from phi up are zero and each entry is its slot's low
    phi digits less their offset.  The digits of every round are those
    `Packing.reduce` meets, so the same width holds them."""

    __slots__ = ("packing", "_cuts", "_offset", "_rounds")

    def __init__(self, order: int, width: int, rank: int):
        self.packing = p = packing(order, width)
        slot = 2 * p.phi
        self._cuts = range(0, slot * width * rank, slot * width)

        def spread(digit, n):  # n digits `digit` at the foot of every slot
            one = p.pack([digit] * n)
            return sum(one << cut for cut in self._cuts)

        self._offset = spread(p._half, slot - 1)
        self._rounds = []
        for _, shift, fold in p._rounds:
            c = shift // width
            high = spread(p._half, slot - 1 - c)
            self._rounds.append((spread(p._digit, c), shift,
                                 spread(p._digit, slot - c), high, fold,
                                 high << shift))

    def pack_row(self, row) -> int:
        """One row of packed ints at this width as slot entries."""
        return sum(v << cut for v, cut in zip(row, self._cuts))

    def product(self, rows, slot_rows) -> tuple[tuple[int, ...], ...]:
        """The reduced packed entries of the rows of packed ints `rows` times
        the matrix with slot rows `slot_rows`, whose digits, and those of
        each round, lie in [-2^(B-1), 2^(B-1))."""
        p = self.packing
        mask, entry_offset = p._mask, p._offset
        offset, rounds, cuts = self._offset, self._rounds, self._cuts
        out = []
        for row in rows:
            t = sum(map(mul, row, slot_rows), offset)
            for low, shift, top, high, fold, high_up in rounds:
                t = (t & low) + (((t >> shift) & top) - high) * fold + high_up
            out.append(tuple([((t >> cut) & mask) - entry_offset
                              for cut in cuts]))
        return tuple(out)


@lru_cache(maxsize=None)
def slot_packing(order: int, width: int, rank: int) -> SlotPacking:
    return SlotPacking(order, width, rank)


class PackedMatrix:
    """A matrix over Q(zeta_order): packed integer entries over `den`.

    Every digit is below 2^bits in absolute value, bits <= width - 1, and
    every column's digits have l1 norm at most `norm`.  A matrix packed from
    digits keeps them, so that packing it again at another width costs no
    unpacking.  Immutable; the slot rows of `slot_rows` are kept per width.
    """

    __slots__ = ("packing", "den", "rows", "bits", "norm", "_digits",
                 "_slot_rows")

    def __init__(self, packing: Packing, den: int, rows, bits: int,
                 norm: int, digits=None):
        self.packing = packing
        self.den = den
        self.rows = rows
        self.bits = bits
        self.norm = norm
        self._digits = digits
        self._slot_rows = None

    def digits(self) -> list[list[list[int]]]:
        if self._digits is not None:
            return self._digits
        unpack = self.packing.unpack
        return [[unpack(v) for v in row] for row in self.rows]

    def lift(self, min_width: int = 0) -> "PackedMatrix":
        """`from_digits` on this matrix's digits: bounds remeasured, at
        least `min_width` wide."""
        return from_digits(self.packing.order, self.den, self.digits(),
                           min_width)

    def __matmul__(self, other: "PackedMatrix") -> "PackedMatrix":
        """The matrix product, at a width at which no fold of any entry can
        carry between digits.  When this matrix's bits plus
        ceil(log2(the other's norm * stage growth)) stay below its width,
        the other is no wider and an entry has at most SLOT_BITS bits, it
        is a slot product on this matrix's rows at its width, with no
        `_fit`; else it is `_entry_product`, which remeasures and widens."""
        if other.packing.order != self.packing.order:
            raise ValueError("packed matrices over different fields")
        p = self.packing
        width = p.width
        if (self.bits + _clog2(other.norm * p.stage_growth) < width
                and other.packing.width <= width
                and p.phi * width <= SLOT_BITS):
            sp = slot_packing(p.order, width, len(other.rows[0]))
            rows = sp.product(self.rows, other.slot_rows(width))
            return _product_matrix(
                p, self.den * other.den, rows,
                self.bits + _clog2(other.norm * p.reduce_growth))
        return _entry_product(self, other)

    def slot_rows(self, width: int) -> tuple[int, ...]:
        """Each row as one int of `slot_packing` at `width`, the right factor
        of a slot product; kept per width."""
        kept = self._slot_rows
        if kept is None:
            kept = self._slot_rows = {}
        rows = kept.get(width)
        if rows is None:
            sp = slot_packing(self.packing.order, width, len(self.rows[0]))
            if width == self.packing.width:
                packed = self.rows
            else:
                packed = [map(sp.packing.pack, row) for row in self.digits()]
            rows = kept[width] = tuple(map(sp.pack_row, packed))
        return rows

    def is_identity(self) -> bool:
        """Every diagonal entry equals den and every other entry is zero;
        a den at or above 2^bits cannot be a digit of this matrix."""
        den = self.den
        return den.bit_length() <= self.bits and all(
            v == (den if i == j else 0)
            for i, row in enumerate(self.rows) for j, v in enumerate(row)
        )

    def nonneg_integers(self) -> tuple[tuple[int | None, ...], ...]:
        """Each entry as an int when it is a nonnegative integer, else None.

        Every digit is below 2^(width-1) in absolute value, so a packed int
        v with 0 <= v < 2^(width-1) has no digit but the constant one (a
        nonzero higher digit would put v at or above 2^(width-1), or below
        0); the entry is then the integer v / den when den divides v, and
        no other packed int is a nonnegative integer.
        """
        half, den = self.packing._half, self.den
        return tuple(
            tuple(v // den if 0 <= v < half and not v % den else None
                  for v in row)
            for row in self.rows
        )

    def transpose(self) -> "PackedMatrix":
        """The transpose, moving the packed ints and the digits when held;
        its norm is measured on the digits, or else rank * phi * (2^bits-1)."""
        rows = tuple(zip(*self.rows))
        if self._digits is None:
            return type(self)(self.packing, self.den, rows, self.bits, len(
                rows) * self.packing.phi * ((1 << self.bits) - 1))
        digits = [list(col) for col in zip(*self._digits)]
        return type(self)(self.packing, self.den, rows, self.bits,
                          _column_norm(digits), digits)

    def take_rows(self, perm) -> "PackedMatrix":
        """Row p taken from row perm[p], for a permutation or a selection
        perm, moving the packed ints and the digits when held; bits and
        norm still hold."""
        digits = (None if self._digits is None
                  else [self._digits[p] for p in perm])
        return type(self)(self.packing, self.den,
                          tuple(self.rows[p] for p in perm), self.bits,
                          self.norm, digits)

    def over(self, n: int) -> "PackedMatrix":
        """This matrix divided by the positive integer n: the same digits
        over den * n, so bits and norm still hold."""
        return PackedMatrix(self.packing, self.den * n, self.rows, self.bits,
                            self.norm, self._digits)

    def mismatches(self, other: "PackedMatrix"):
        """The (i, j) of the entries where this matrix and `other`, of one
        shape, differ, in row-major order.  Entries x / dx and y / dy are
        equal exactly when x * (dy/g) == y * (dx/g), g = gcd(dx, dy), on
        the packed ints at `_comparable`'s width, which proves it."""
        if other.packing.order != self.packing.order:
            raise ValueError("packed matrices over different fields")
        a, b = _comparable(self, other)
        ca, cb = _cofactors(a.den, b.den)
        for i, (rx, ry) in enumerate(zip(a.rows, b.rows)):
            for j, (x, y) in enumerate(zip(rx, ry)):
                if x * ca != y * cb:
                    yield i, j

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedMatrix):
            return NotImplemented
        if len(self.rows) != len(other.rows) or any(
                len(x) != len(y) for x, y in zip(self.rows, other.rows)):
            return False
        return next(self.mismatches(other), None) is None

    def sigma(self, l: int) -> "PackedMatrix":
        """zeta -> zeta^l on every entry, l coprime to the order: an entry's
        digits weight the packed images of `_sigma_map`."""
        images, growth = _sigma_map(self.packing.order, l % self.packing.order)
        a, = _fit(lambda a: a.bits + growth, self)
        packed = images.packed(a.packing)
        rows = tuple(tuple(sum(map(mul, d, packed)) for d in row)
                     for row in a.digits())
        return PackedMatrix(a.packing, a.den, rows, a.bits + growth,
                            a.norm * images.l1)

    def scale(self, rows: "Scaling | None" = None,
              cols: "Scaling | None" = None) -> "PackedMatrix":
        """diag(rows) X diag(cols): each packed entry times its factors d_i,
        e_j (for monomials, once by x^((a_i + b_j) mod order), read off the
        packing's monomial table), reduced once, at the width `__matmul__`
        takes for a diagonal factor of l1 norm l1."""
        if rows and cols and None in (rows.exponents, cols.exponents):
            return self.scale(rows).scale(cols=cols)
        order, n = self.packing.order, len(self.rows)
        if any(f.order != order for f in (rows, cols) if f):
            raise ValueError("a scaling over a different field")
        if rows and cols:  # entry (i, j) scaled by x^(a_i + b_j)
            each = [[(a + b) % order for b in cols.exponents]
                    for a in rows.exponents]
            l1 = max(_monomial_l1(order, e) for row in each for e in row)
        else:
            l1 = (rows or cols).l1
        stage = self.packing.stage_growth
        a, = _fit(lambda a: a.bits + _clog2(l1 * stage), self)
        p = a.packing
        if rows and cols:
            factors = [list(map(p.monomial, row)) for row in each]
        elif rows:
            factors = [[d] * len(self.rows[0]) for d in rows.packed(p)]
        else:
            factors = [cols.packed(p)] * n
        out = tuple(tuple(map(p.reduce, map(mul, row, f)))
                    for row, f in zip(a.rows, factors))
        bits = a.bits + _clog2(l1 * p.reduce_growth)
        den = a.den * (rows.den if rows else 1) * (cols.den if cols else 1)
        return _product_matrix(p, den, out, bits)


def _entry_product(x: PackedMatrix, y: PackedMatrix) -> PackedMatrix:
    """x @ y entry by entry, each entry the reduced big-int sum of a row
    times a column, at the width `_fit` takes for the bound of
    `PackedMatrix.__matmul__`: the product of entries wider than
    SLOT_BITS, and the oracle of the slot product."""
    stage = x.packing.stage_growth
    a, b = _fit(lambda a, b: a.bits + _clog2(b.norm * stage), x, y)
    p = a.packing
    mod = p.reduce
    cols = list(zip(*b.rows))
    rows = tuple([
        tuple([mod(sum(map(mul, row, col))) for col in cols])
        for row in a.rows
    ])
    return _product_matrix(p, a.den * b.den, rows,
                           a.bits + _clog2(b.norm * p.reduce_growth))


def _product_matrix(p: Packing, den: int, rows, bits: int) -> PackedMatrix:
    """A computed matrix with digits below 2^bits, without its digits: the
    column norm is the generic rank * phi * (2^bits - 1)."""
    return PackedMatrix(p, den, rows, bits,
                        len(rows) * p.phi * ((1 << bits) - 1))


def _fit(need, *operands) -> list[PackedMatrix]:
    """The operands at one width at which `need(*operands)` bits fit as
    signed digits: the widest of their widths, or the narrowest that holds
    the need when that is wider.  Before the width grows, every operand
    without digits (its bits are a claim) is remeasured by `lift`, and the
    width grows only if the measured bounds still need it."""
    width = max(m.packing.width for m in operands)
    if need(*operands) >= width and any(m._digits is None for m in operands):
        operands = [m if m._digits is not None else m.lift()
                    for m in operands]
        width = max(m.packing.width for m in operands)
    width = max(width, width_for(need(*operands)))
    return [m if m.packing.width == width else m.lift(width)
            for m in operands]


def _comparable(x: PackedMatrix, y: PackedMatrix, l1: int = 0
                ) -> list[PackedMatrix]:
    """x and y at one width at which x / dx == y / dy is x * (dy/g) ==
    y * (dx/g) on the packed ints, g = gcd(dx, dy) (`_cofactors`), each x
    first turned by a packed monomial of l1 norm at most l1 (none when 0;
    `Phased.mismatches` proves the turn's rule).

    The cofactors dy/g and dx/g are positive integers, and x / dx == y / dy
    is x * dy == y * dx, that is g * (x * (dy/g) - y * (dx/g)) == 0, on
    the digits of the power basis; so the entries are equal exactly when
    the digits of x * (dy/g) and y * (dx/g) are.  Each digit of x is below
    2^bits in absolute value, so each digit of x * (dy/g) is below
    2^(bits + (dy/g).bit_length()), and so for y * (dx/g).  At a width B
    above both exponents every digit of either side lies in
    [-2^(B-1), 2^(B-1)), where a packed int has one digit vector: the
    digits are equal exactly when the packed ints are.  Equal dens take
    cofactors 1, and the dens 2^a and 2^b of two words take 1 and
    2^|a-b|: the need grows by |a-b| + 1 bits on one side and 1 on the
    other, where x * dy and y * dx needed b + 1 and a + 1."""
    def need(a, b):
        bits, turn = a.bits, 0
        if l1:
            turn = bits + _clog2(l1 * a.packing.stage_growth)
            bits += _clog2(l1 * a.packing.reduce_growth)
        ca, cb = _cofactors(a.den, b.den)
        return max(turn, bits + ca.bit_length(), b.bits + cb.bit_length())
    return _fit(need, x, y)


def _cofactors(dx: int, dy: int) -> tuple[int, int]:
    """(dy/g, dx/g), g = gcd(dx, dy): x / dx == y / dy is x * (dy/g) ==
    y * (dx/g)."""
    g = math.gcd(dx, dy)
    return dy // g, dx // g


def from_digits(order: int, den: int, rows, min_width: int = 0
                ) -> PackedMatrix:
    """Pack rows of reduced digit lists over `den`, both divided by their
    gcd first (a product's dens multiply), at the narrowest width that
    holds the measured bounds and is at least `min_width`."""
    g = math.gcd(den, *(c for row in rows for d in row for c in d))
    if g > 1:
        den //= g
        rows = [[[c // g for c in d] for d in row] for row in rows]
    bits = max((max(map(abs, d)) for row in rows for d in row),
               default=0).bit_length()
    p = packing(order, max(min_width, width_for(bits)))
    packed = tuple(tuple(map(p.pack, row)) for row in rows)
    return PackedMatrix(p, den, packed, bits, _column_norm(rows), rows)


def _column_norm(rows) -> int:
    """The largest l1 norm of the digits of a column of digit rows."""
    return max((sum(sum(map(abs, d)) for d in col) for col in zip(*rows)),
               default=0)


class IntegerMatrix(PackedMatrix):
    """A matrix of integers over 1: an integer is its own packed int at
    every width, so packing it again moves no digit."""

    __slots__ = ()

    def lift(self, min_width: int = 0) -> "IntegerMatrix":
        p = packing(self.packing.order, max(min_width, width_for(self.bits)))
        return IntegerMatrix(p, 1, self.rows, self.bits, self.norm)


def integers(order: int, rows) -> IntegerMatrix:
    """The integer matrix `rows` over Q(zeta_order)."""
    rows = tuple(map(tuple, rows))
    bits = max(abs(n) for row in rows for n in row).bit_length()
    return IntegerMatrix(packing(order, width_for(bits)), 1, rows, bits,
                         max(sum(map(abs, col)) for col in zip(*rows)))


def identity(order: int, rank: int) -> IntegerMatrix:
    """The identity matrix of size `rank` over Q(zeta_order)."""
    return integers(order, [[int(i == j) for j in range(rank)]
                            for i in range(rank)])


def pack(matrix, order: int) -> PackedMatrix:
    """A CycloNum matrix whose entry orders divide `order`, packed over the
    lcm of the entry denominators."""
    ctx = _context(order)
    den = math.lcm(*(x.den for row in matrix for x in row))
    rows = [
        [[c * (den // x.den)
          for c in (x.nums if x.order == order
                    else ctx.substitute(x.nums, order // x.order))]
         for x in row]
        for row in matrix
    ]
    return from_digits(order, den, rows)


def field_order(s, delta, c0) -> int:
    """The order M of the single field of a model with S matrix `s`: the
    lcm of the orders of the S entries and of the T entries, the
    denominators of delta - c0/24."""
    return math.lcm(*(x.order for row in s for x in row),
                    *((d - c0 / 24).denominator for d in delta))


@lru_cache(maxsize=None)
def _monomial(order: int, e: int) -> tuple[int, ...]:
    """The digits of x^e modulo Phi_order, for 0 <= e < order."""
    ctx = _context(order)
    return tuple(ctx.reduce([0] * e + [1] + [0] * (ctx.phi - 1)))


@lru_cache(maxsize=None)
def _monomial_l1(order: int, e: int) -> int:
    """The digit l1 norm of `_monomial(order, e)`."""
    return sum(map(abs, _monomial(order, e)))


@lru_cache(maxsize=None)
def _sigma_map(order: int, l: int) -> tuple["Scaling", int]:
    """The images x^(l*j mod order), j < phi, as a `Scaling`, and the bits
    sigma_l adds to a digit (from the largest l1 norm of a row of the map)."""
    images = roots(order, [l * j for j in range(_context(order).phi)])
    rows = zip(*(map(abs, d) for d in images.digits))
    return images, _clog2(max(map(sum, rows)))


def _cached(cache: dict, key, build):
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
    return value


class Scaling:
    """The factor diag(d_i / den) of `PackedMatrix.scale`, as the reduced
    digit lists d_i over Q(zeta_order) with their largest l1 norm `l1`
    and, when every d_i is a monomial x^e_i, the `exponents` e_i."""

    def __init__(self, order: int, digits, den: int = 1, exponents=None):
        self.order, self.digits, self.den = order, digits, den
        self.exponents = exponents
        self.l1 = max(sum(map(abs, d)) for d in digits)
        self._packed: dict[int, tuple[int, ...]] = {}

    def packed(self, p: Packing) -> tuple[int, ...]:
        """The packed d_i at the width of `p`, kept per width."""
        return _cached(self._packed, p.width,
                       lambda: tuple(map(p.pack, self.digits)))


def roots(order: int, exponents) -> Scaling:
    """diag(zeta_order^e) over the integer exponents e, each taken mod
    order."""
    exponents = tuple(e % order for e in exponents)
    return Scaling(order, [_monomial(order, e) for e in exponents], 1,
                   exponents)


def t_weights(delta, c0, order: int) -> tuple[int, ...]:
    """The w with T = diag(zeta_order^w) for the conformal weights `delta`
    and the central charge representative `c0`: w = (delta - c0/24) *
    order, an integer because the orders of the T entries divide the field
    order.  They are not reduced mod the order: T^r for a non-integer r
    depends on c0 mod 24 * den(r), so models whose c0 differ by 24 share
    every integer T power but not T^(1/2), and stay two contents."""
    return tuple(int((d - c0 / 24) * order) for d in delta)


class PackedModel:
    """One model's packed S and S^-1 = C S over Q(zeta_M), C as the
    permutation `conj`, with T^k and T^k S cached under k mod M and
    sigma_l(S) under l.  `s` is S packed when the model was validated,
    which proves that C commutes with S and T.  Every cached value depends
    only on M, S, C and the T weights, so models of equal content share
    one instance through `packed_model`; one built directly is private."""

    def __init__(self, md, s: PackedMatrix):
        self.rank = md.rank
        self.order = s.packing.order
        self.s = s
        self.conj = md.conj
        self.s_inv = s.take_rows(self.conj)
        self.t_weights = t_weights(md.delta, md.c0, self.order)
        self._syllables: dict[int, PackedMatrix] = {}
        self._sigma_syllables: dict[tuple[int, int], PackedMatrix] = {}
        self._t_powers: dict[int, Scaling] = {}
        self._sigma_s: dict[int, PackedMatrix] = {}

    def identity(self) -> PackedMatrix:
        return identity(self.order, self.rank)

    def t_power(self, k: int) -> Scaling:
        """T^k for an integer k: the monomials x^(w_i * k mod M), kept
        under k mod M."""
        k %= self.order
        return _cached(self._t_powers, k, lambda: roots(
            self.order, [w * k for w in self.t_weights]))

    def syllable(self, k: int, l: int = 1) -> PackedMatrix:
        """sigma_l(T^k S), l coprime to M.  T^k S is row i of S's digits
        turned by x^(w_i * k), packed at the narrowest width that holds it,
        kept under k mod M.  For l != 1 mod M it is sigma_l of that,
        remeasured and kept without its digits under (l mod M, k mod M)."""
        k %= self.order
        l %= self.order
        if l == 1 % self.order:
            return _cached(self._syllables, k, lambda: from_digits(
                self.order, self.s.den, [
                    [_context(self.order).substitute(d, 1, e) for d in row]
                    for e, row in zip(self.t_power(k).exponents,
                                      self.s.digits())]))
        return _cached(self._sigma_syllables, (l, k),
                       lambda: _bare(self.syllable(k).sigma(l).lift()))

    def sigma_s(self, l: int) -> PackedMatrix:
        """sigma_l(S), remeasured, for l coprime to M."""
        return _cached(self._sigma_s, l, lambda: self.s.sigma(l).lift())

    def product(self, syllables, last_t: int | None, central: bool,
                l: int = 1) -> PackedMatrix:
        """sigma_l, l coprime to M, of the product of T^k S over the k in
        `syllables`, then T^last_t as a column scaling, then C when
        `central`, as a row permutation.  sigma_l is a ring map fixing the
        integer C, and sigma_l(T^k) = T^(l*k), so this is the product of
        the sigma_l syllables by `@`, left to right, then T^(l*last_t),
        then C."""
        factors = [self.syllable(k, l) for k in syllables]
        acc = reduce(matmul, factors) if factors else self.identity()
        if last_t is not None:
            last_t *= l
            acc = acc.scale(cols=self.t_power(last_t))
        return acc.take_rows(self.conj) if central else acc


def _bare(m: PackedMatrix) -> PackedMatrix:
    """m without its digits, bits and norm kept."""
    return PackedMatrix(m.packing, m.den, m.rows, m.bits, m.norm)


def _field_root(p: int, den: int, order: int) -> tuple[int, int] | None:
    """e(p/den) = exp(2*pi*i*p/den) as (sign, k), the value sign *
    zeta_order^k, when it lies in Q(zeta_order); else None.

    The roots of unity of Q(zeta_M) are the M-th ones for even M and the
    2M-th ones for odd M, where zeta_2M = -zeta_M^((M+1)/2)."""
    big = order if order % 2 == 0 else 2 * order
    if p * big % den:
        return None
    j = p * big // den % big
    if big == order:
        return 1, j
    return (-1) ** j, j * (order + 1) // 2 % order


class Phased:
    """The matrix e(a_i + b_j + c) X_ij, e(q) = exp(2*pi*i*q), of a model
    packed as `pm` (a `PackedModel`): X is packed over the model's field
    Q(zeta_M), and the row phases a, the column phases b and the scalar
    phase c are integer numerators over one denominator `den`.

    T to a fractional power is a diagonal of roots of unity outside that
    field, so it is carried in the phases: T^u (e(c) X) T^v has the phases
    u*w_i and v*w_j, with T = diag(e(w_i)).  Transposes, conjugates and row
    permutations act on X and move or negate the phases; a product is taken
    at M, and `mismatches` compares entries as the one exact rule of
    equality.  A root of unity in the field acts on X only as its packed
    monomial, in `__matmul__` and in `mismatches`.
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

    def t(self, rows=0, cols=0, scalar=0) -> "Phased":
        """T^rows e(scalar) (this matrix) T^cols, for int or Fraction
        exponents.  A zero T exponent adds nothing to the den, so a scalar
        phase alone takes no lcm with M, and a phase tuple that neither
        the den nor T changes is kept."""
        order, w = self.pm.order, self.pm.t_weights
        rd = rows.denominator * order if rows else 1
        cd = cols.denominator * order if cols else 1
        den = math.lcm(self.den, rd, cd, scalar.denominator)
        f = den // self.den
        u, v = rows.numerator * (den // rd), cols.numerator * (den // cd)
        a = (self.a if f == 1 and not u
             else tuple(f * p + u * q for p, q in zip(self.a, w)))
        b = (self.b if f == 1 and not v
             else tuple(f * p + v * q for p, q in zip(self.b, w)))
        return Phased(self.pm, self.x, den, a, b, f * self.c
                      + scalar.numerator * (den // scalar.denominator))

    def over(self, n: int) -> "Phased":
        """This matrix divided by the positive integer n."""
        return Phased(self.pm, self.x.over(n), self.den, self.a, self.b,
                      self.c)

    def transpose(self) -> "Phased":
        return Phased(self.pm, self.x.transpose(), self.den, self.b, self.a,
                      self.c)

    def conjugate(self, perm=None) -> "Phased":
        """The complex conjugate, its row p taken from row perm[p]."""
        perm = perm or range(self.pm.rank)
        x = self.x.sigma(self.pm.order - 1).take_rows(perm)
        return Phased(self.pm, x, self.den, tuple(-self.a[p] for p in perm),
                      tuple(-q for q in self.b), -self.c)

    def __matmul__(self, other: "Phased") -> "Phased":
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
                [sign * c for c in _monomial(order, k)]
                for sign, k in middle]))
        return Phased(self.pm, self.x @ right, den,
                      tuple(f * p for p in self.a),
                      tuple(g * q for q in other.b),
                      f * self.c + g * other.c)

    def mismatches(self, other: "Phased"):
        """The (i, j) of the entries where this matrix and `other` differ,
        in row-major order.

        Entry (i, j) of each side is equal when X_ij e(d_ij) == Y_ij, d_ij
        the difference of their phases.  For e(d_ij) outside Q(zeta_M), as
        X_ij and Y_ij are inside, they are equal only when both are zero.
        Else e(d_ij) = sign * zeta_M^k, and they compare as sign * (x * m_k
        mod Phi_M) * (dy/g) == y * (dx/g), g = gcd(dx, dy), m_k the packed
        monomial x^k (for k >= phi of l1 norm up to 2 at M = 24, 18 at
        M = 76): x * m_k mod Phi_M is a packed entry with the bits bounded
        below, and `_comparable` proves the rule of the cofactors for it.
        Its l1 norm comes from `_monomial_l1`, cached per (M, k), and its
        packed int from `Packing.monomial`, cached per k, so no comparison
        adds a cache entry for its set of turns.

        The turn's width: a digit of x * m_k is below 2^bits * l1, l1 the
        largest l1 norm of the m_k used; each fold of `Packing.reduce` is
        linear, so every digit the reduction meets is below 2^bits * l1 *
        stage growth <= 2^(bits + ceil(log2(l1 * stage growth))) <= 2^(B-1)
        at `_comparable`'s width, and the reduced ones below
        2^(bits + ceil(log2(l1 * reduce growth)))."""
        order = self.pm.order
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        dc = f * self.c - g * other.c
        db = [f * p - g * q for p, q in zip(self.b, other.b)]
        turns = [[_field_root(f * p - g * q + dc + e, den, order) for e in db]
                 for p, q in zip(self.a, other.a)]
        ks = {r[1] for row in turns for r in row if r and r[1]}
        l1 = max((_monomial_l1(order, k) for k in ks), default=0)
        xm, ym = _comparable(self.x, other.x, l1)
        p = xm.packing
        monomials = {k: p.monomial(k) for k in ks}
        cx, cy = _cofactors(xm.den, ym.den)
        for i, (row, xr, yr) in enumerate(zip(turns, xm.rows, ym.rows)):
            for j, (root, x, y) in enumerate(zip(row, xr, yr)):
                if root is None:
                    if x or y:
                        yield i, j
                    continue
                sign, k = root
                if k:
                    x = p.reduce(x * monomials[k])
                if sign * x * cx != y * cy:
                    yield i, j

    def __eq__(self, other) -> bool:
        if not isinstance(other, Phased):
            return NotImplemented
        return next(self.mismatches(other), None) is None


#: How many model contents `packed_model` keeps; the least recently used
#: goes first.  A process that runs many requests on a few models keeps
#: all of them.
MODEL_TABLE_SIZE = 8

_models: "OrderedDict[tuple, PackedModel]" = OrderedDict()
_models_lock = threading.Lock()


def packed_model(md, s: PackedMatrix) -> PackedModel:
    """The process's one `PackedModel` for the content of `md` with S
    packed as `s`: the field order and width, S's den and packed rows, the
    conjugation and the T weights."""
    order = s.packing.order
    weights = t_weights(md.delta, md.c0, order)
    key = (order, s.packing.width, s.den, s.rows, md.conj, weights)
    with _models_lock:
        model = _models.pop(key, None)
        if model is None:
            model = PackedModel(md, s)
            if len(_models) >= MODEL_TABLE_SIZE:
                _models.popitem(last=False)
        _models[key] = model
    return model


def clear_models() -> None:
    """Forget every shared `PackedModel`."""
    with _models_lock:
        _models.clear()
