import random

import pytest
from hypothesis import strategies as st

from optsort.network import Network, new_network


FIG_COMPARATORS = [(1, 2, 1), (3, 4, 1), (1, 3, 2), (2, 4, 2), (2, 3, 3)]


@pytest.fixture
def four_wire_sorter() -> Network:
    return new_network(4, 3, FIG_COMPARATORS)


def binary_vectors(n: int):
    for mask in range(1 << n):
        yield [(mask >> b) & 1 for b in range(n)]


def random_network(rng: random.Random, width: int, depth: int) -> Network:
    comparators = []
    for level in range(1, depth + 1):
        free = list(range(1, width + 1))
        rng.shuffle(free)
        while len(free) >= 2 and rng.random() < 0.8:
            a, b = free.pop(), free.pop()
            comparators.append((min(a, b), max(a, b), level))
    return new_network(width, depth, comparators)


_TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["04", "+4", "-0", "1_0", "x", "", "a b"]),
    st.text(alphabet="014+- a\t\r\n", max_size=3),
)


@st.composite
def statement_lines(draw):
    code = draw(st.sampled_from(["1", "2", "4", "04", "+4", "0", "3", "-1", " 1", "x"]))
    return " ".join([code, *draw(st.lists(_TOKENS, max_size=9))])


def aspif_texts():
    """A header, up to four random statement lines and maybe a terminator."""
    return st.builds(
        lambda lines, terminated: "\n".join(
            ["asp 1 0 0", *lines, *(["0"] if terminated else [])]
        )
        + "\n",
        st.lists(statement_lines(), max_size=4),
        st.booleans(),
    )
