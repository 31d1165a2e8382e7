"""Hypothesis strategies and matrix helpers shared by the rank-kernel oracle tests."""
from fractions import Fraction

from hypothesis import strategies as st

from leaf_atlas.exact_matrix import RationalMatrix


def entry(x, i, j):
    """Entry of ``x`` in row ``i``, column ``j`` (both 1-based), as a ``Fraction``."""
    if not (1 <= i <= x.rows and 1 <= j <= x.cols):
        raise ValueError(f"index ({i},{j}) outside {x.rows}x{x.cols}")
    return x.entries[i - 1][j - 1]


def identity_matrix(n):
    """The ``n x n`` identity."""
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


@st.composite
def oracle_matrices(draw, max_size):
    """
    Up to ``max_size`` square: per-row denominators, zeroed rows and columns,
    rank-t products.
    """
    m, n = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))

    def ints(a, b):
        return draw(st.lists(st.lists(st.integers(-3, 3), min_size=b, max_size=b),
                             min_size=a, max_size=a))

    if draw(st.booleans()):
        t = draw(st.integers(0, min(m, n)))
        left, right = ints(m, t), ints(t, n)
        num = [[sum(left[i][k] * right[k][j] for k in range(t)) for j in range(n)]
               for i in range(m)]
    else:
        num = ints(m, n)
    dens = draw(st.lists(st.integers(1, 7), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    return RationalMatrix([[0 if i in zero_rows or j in zero_cols
                            else Fraction(num[i][j], dens[i]) for j in range(n)]
                           for i in range(m)])
