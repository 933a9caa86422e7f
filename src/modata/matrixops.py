"""Small exact-matrix helpers over CycloNum.

Matrices are tuples of tuples (rows); sizes are desk scale and every
operation is exact.  A product entry is one `cyclo.dot` of a row and a
column: the whole sum of products is reduced and normalised once, instead
of once per term and once per partial sum.
"""

from .cyclo import CycloNum, dot

Matrix = tuple[tuple[CycloNum, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    one = CycloNum.one()
    zero = CycloNum.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def diagonal(entries) -> Matrix:
    entries = tuple(entries)
    zero = CycloNum.zero()
    n = len(entries)
    return tuple(
        tuple(entries[i] if i == j else zero for j in range(n))
        for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def scale_rows(entries, a: Matrix) -> Matrix:
    """diag(entries) @ a"""
    return tuple(
        tuple(e * x for x in row) for e, row in zip(entries, a)
    )


def scale_cols(a: Matrix, entries) -> Matrix:
    """a @ diag(entries)"""
    return tuple(
        tuple(x * e for x, e in zip(row, entries)) for row in a
    )


def scalar_mul(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def dagger(a: Matrix) -> Matrix:
    return tuple(zip(*(tuple(x.conjugate() for x in row) for row in a)))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_identity(a: Matrix) -> bool:
    return mat_eq(a, identity(len(a)))


def is_diagonal(a: Matrix) -> bool:
    return all(
        x.is_zero() for i, row in enumerate(a) for j, x in enumerate(row)
        if i != j
    )


def diag_entries(a: Matrix) -> tuple[CycloNum, ...]:
    return tuple(a[i][i] for i in range(len(a)))


def first_mismatch(a: Matrix, b: Matrix):
    """Coordinates and values of the first differing entry, or None."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return i, j, x, y
    return None

