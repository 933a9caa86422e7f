"""Exact matrix products: `cyclo.dot` and `mat_mul` against the per-term
multiply-then-add product they replace."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modata import matrixops as mx
from modata.cyclo import CycloNum, dot, euler_phi
from modata.modular_data import builtin_model

ORDERS = (1, 3, 4, 8, 12, 16, 24, 48)


def per_term_mat_mul(a, b):
    """One product and one partial sum per nonzero term; the oracle."""
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        arow = a[i]
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                x = arow[t]
                y = b[t][j]
                if x.is_zero() or y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(CycloNum.zero() if acc is None else acc)
        out.append(tuple(row))
    return tuple(out)


def stored(matrix):
    return [[(x.order, x.den, x.nums) for x in row] for row in matrix]


@st.composite
def entries(draw):
    order = draw(st.sampled_from(ORDERS))
    if draw(st.integers(0, 3)) == 0:
        return CycloNum.zero(order)
    phi = euler_phi(order)
    nums = draw(st.lists(st.integers(-4, 4), min_size=phi, max_size=phi))
    return CycloNum(order, draw(st.integers(1, 6)), nums)


@st.composite
def matrix_pairs(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    a = [[draw(entries()) for _ in range(k)] for _ in range(n)]
    b = [[draw(entries()) for _ in range(m)] for _ in range(k)]
    row = draw(st.none() | st.integers(0, n - 1))
    if row is not None:
        a[row] = [CycloNum.zero(x.order) for x in a[row]]
    col = draw(st.none() | st.integers(0, m - 1))
    if col is not None:
        for r in b:
            r[col] = CycloNum.zero(r[col].order)
    return mx.mat(a), mx.mat(b)


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_mat_mul_matches_per_term_product(pair):
    a, b = pair
    new, old = mx.mat_mul(a, b), per_term_mat_mul(a, b)
    assert stored(new) == stored(old)
    assert [[x.to_obj() for x in row] for row in new] == \
        [[x.to_obj() for x in row] for row in old]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(entries(), entries()), min_size=1, max_size=6))
def test_dot_matches_per_term_sum(pairs):
    xs = tuple(x for x, _ in pairs)
    ys = tuple(y for _, y in pairs)
    old = per_term_mat_mul((xs,), tuple((y,) for y in ys))[0][0]
    new = dot(xs, ys)
    assert (new.order, new.den, new.nums) == (old.order, old.den, old.nums)


def test_dot_of_zero_terms_is_order_one_zero():
    z8 = CycloNum.zero(8)
    for xs, ys in (([], []), ([z8], [CycloNum.one(3)]), ([z8, z8], [z8, z8])):
        out = dot(xs, ys)
        assert (out.order, out.den, out.nums) == (1, 1, (0,))


def test_cancelling_sum_keeps_its_order():
    # zeta_8 * 1 + zeta_8 * (-1): nonzero terms, zero sum, at order 8
    z = CycloNum(8, 1, [0, 1, 0, 0])
    out = dot([z, z], [CycloNum.one(), -CycloNum.one()])
    assert (out.order, out.den, out.nums) == (8, 1, (0, 0, 0, 0))


@pytest.mark.parametrize("name,param", [("su2", 4), ("cyclic_odd", 5)])
def test_one_construction_per_entry(monkeypatch, name, param):
    md = builtin_model(name, param)
    assert md.rank == 5
    # S has entries at several orders; S^2 is a permutation with zeros
    s2 = mx.mat_mul(md.s, md.s)
    operands = ((md.s, md.s), (md.s, s2), (mx.diagonal(md.t_entries(1)), md.s))
    made = []
    real = CycloNum.__init__

    def init(self, *args):
        made.append(args[0])
        real(self, *args)

    monkeypatch.setattr(CycloNum, "__init__", init)
    for a, b in operands:
        made.clear()
        mx.mat_mul(a, b)
        assert len(made) == md.rank ** 2
