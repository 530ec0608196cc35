import pytest
from hypothesis import strategies as st

from treewalks.generate import from_pruefer
from treewalks.trees import Tree, tree

# OEIS A000055, the number of free trees on n vertices, for n = 0..20
A000055 = (
    1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
    19320, 48629, 123867, 317955, 823065,
)


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 8) -> Tree:
    """Random labeled tree via a random Pruefer sequence."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n == 1:
        return tree(1, [])
    if n == 2:
        return tree(2, [(0, 1)])
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return from_pruefer(seq, n)


@pytest.fixture
def p4() -> Tree:
    return tree(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def s4() -> Tree:
    return tree(4, [(0, 1), (0, 2), (0, 3)])
