"""Shared fixture graphs and random corpora used across the test modules."""

import itertools
import random

from choosability import Problem


def cycle(n, size=2):
    edges = tuple(sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n)))
    return Problem(n=n, s=(size,) * n, edges=edges, name="c%d" % n)


def complete(n, size=None):
    edges = tuple(itertools.combinations(range(n), 2))
    s = (n - 1,) * n if size is None else (size,) * n
    return Problem(n=n, s=s, edges=edges, name="k%d" % n)


def path3():
    return Problem(n=3, s=(2, 2, 2), edges=((0, 1), (1, 2)), name="p3")


def fan():
    # path 1-2-3-4 plus a vertex 0 adjacent to all of it
    edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4))
    return Problem(n=5, s=(4, 2, 2, 2, 2), edges=edges, name="fan")


def wheel():
    # hub 0, rim cycle 1-2-3-4-5
    edges = (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (1, 5), (2, 3), (3, 4), (4, 5),
    )
    return Problem(n=6, s=(5, 2, 2, 2, 3, 3), edges=edges, name="wheel")


def wheel_extension():
    # the wheel plus vertex 6 adjacent to 1, 2 and vertex 7 adjacent to 2, 3
    edges = (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (1, 5), (1, 6), (2, 3), (2, 6), (2, 7), (3, 4), (3, 7), (4, 5),
    )
    return Problem(n=8, s=(5, 3, 3, 3, 2, 2, 2, 2), edges=edges, name="wheel-ext")


def k33(size=2):
    # K_{3,3}; with lists of 2 it is not choosable, and the product gives
    # neither a witness nor a constraint row
    edges = tuple((a, b) for a in range(3) for b in range(3, 6))
    return Problem(n=6, s=(size,) * 6, edges=edges, name="k33")


def diamond():
    # K4 minus the edge {1, 3}, lists of 2: the first candidate pattern is bad
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    return Problem(n=4, s=(2, 2, 2, 2), edges=edges, name="diamond")


def second_pattern_bad():
    # lists of 2 and one of 3, no deletable edge: the first candidate
    # pattern colors and the second is bad
    edges = ((0, 2), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (3, 4), (4, 5))
    return Problem(n=6, s=(2, 2, 2, 2, 3, 2), edges=edges, name="q")


def theta():
    # a 49-cycle with an ear of length 2 on one edge, lists of 2: no
    # reduction applies, the product leaves one constraint row, and its 49
    # free entries are past the feasible scan's cap
    edges = cycle(49).edges + ((0, 49), (1, 49))
    return Problem(n=50, s=(2,) * 50, edges=edges, name="theta")


def as_masks(vectors):
    """The masks of 0/1 vectors, bit v set when vec[v] = 1."""
    return [sum(x << v for v, x in enumerate(vec)) for vec in vectors]


def as_vectors(masks, n):
    """The 0/1 vectors of length n of masks, in their order."""
    return [tuple(int(mask) >> v & 1 for v in range(n)) for mask in masks]


def random_problem(rng, n_range=(4, 8), m_cap=14, s_range=(2, 4), name=""):
    n = rng.randint(*n_range)
    max_m = min(m_cap, n * (n - 1) // 2)
    m = rng.randint(n - 1, max_m)
    edges = tuple(sorted(rng.sample(list(itertools.combinations(range(n), 2)), m)))
    s = tuple(rng.randint(*s_range) for _ in range(n))
    return Problem(n=n, s=s, edges=edges, name=name)


def coefficient_corpus(count=200, seed=20260819):
    """Problems small enough for exact oracle coefficient tables."""
    rng = random.Random(seed)
    return [
        random_problem(rng, name="rnd%d" % i)
        for i in range(count)
    ]


def agreement_corpus(count=100, seed=77):
    """Problems small enough for exhaustive choosability checks."""
    rng = random.Random(seed)
    return [
        random_problem(rng, n_range=(3, 6), m_cap=15, s_range=(1, 3), name="agr%d" % i)
        for i in range(count)
    ]
