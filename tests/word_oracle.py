"""The CycloNum evaluation of SL(2,Z) words, kept as the reference for the
packed engine that replaced it in `modata.modrep`.

`token_walk` is the word walk `modrep.syllables` folds into one loop: the
Euclidean reduction emits ("t", q) and ("s", 1) tokens, a final t token
and the sign, and a pass merges adjacent t tokens.  `rep_evaluate_by_token`
multiplies CycloNum matrices along those tokens, a product by S for each s
and a column scaling by T^k for each t^k, so its entries sit at the orders
`cyclo.dot` and the products by roots of unity give them.  Neither reads a
packed matrix, a syllable or `syllables`.  `cyclo_matrix` reads a packed
matrix back as CycloNum entries.  `evaluate_word` multiplies the
integer matrices of a `modrep.GenWord`'s tokens, for the round trip of
`modrep.decompose`."""

from modata import matrixops as mx
from modata.cyclo import CycloNum
from modata.modrep import IDENTITY, S_GEN, Syllables, t_gen


def cyclo_matrix(m):
    """The entries of the packed matrix m as CycloNum values at its
    packing order."""
    return tuple(tuple(CycloNum(m.packing.order, m.den, d) for d in row)
                 for row in m.digits())


def evaluate_word(word):
    """The integer matrix of a `modrep.GenWord`: the product of its tokens,
    negated when it carries -I."""
    m = IDENTITY
    for kind, k in word.tokens:
        m = m * (S_GEN if kind == "s" else t_gen(k))
    return -m if word.sign < 0 else m


def token_walk(m) -> tuple[tuple[tuple[str, int], ...], int]:
    """The tokens and the sign (+1 or -1) of the word of m."""
    tokens = []
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
    if a * b:
        tokens.append(("t", a * b))
    merged = []
    for kind, k in tokens:
        if kind == "t" and merged and merged[-1][0] == "t":
            k += merged[-1][1]
            merged.pop()
            if k == 0:
                continue
        merged.append((kind, k))
    return tuple(merged), -1 if a < 0 else 1


def token_syllables(m) -> Syllables:
    """The tokens of `token_walk` paired as `modrep.Syllables`: each t^k
    with the s after it, a bare s as None, the final t^k and the sign."""
    tokens, sign = token_walk(m)
    steps = []
    pending = None  # the exponent of a t^k waiting for the s after it
    for kind, k in tokens:
        if kind == "t":
            pending = k
        else:
            steps.append(pending)
            pending = None
    return Syllables(tuple(steps), pending, sign < 0)


def rep_evaluate_by_token(md, m) -> mx.Matrix:
    """D(m) as CycloNum matrices, one token at a time; -I is a product by
    the CycloNum S^2."""
    tokens, sign = token_walk(m)
    acc = None
    for kind, k in tokens:
        if kind == "s":
            acc = md.s if acc is None else mx.mat_mul(acc, md.s)
        else:
            entries = md.t_entries(k)
            acc = (
                mx.diagonal(entries)
                if acc is None
                else mx.scale_cols(acc, entries)
            )
    if acc is None:
        acc = mx.identity(md.rank)
    if sign < 0:
        acc = mx.mat_mul(acc, mx.mat_mul(md.s, md.s))
    return acc


def serialized(matrix) -> list:
    """The entries' `to_obj` forms, orders included."""
    return [[x.to_obj() for x in row] for row in matrix]
