"""Shared constructors for the bivariate test systems."""

import random

from pfaffred.docio import generate_equivalent, serialize_system
from pfaffred.linalg import SeriesMatrix
from pfaffred.scalars import QQ
from pfaffred.series import Series
from pfaffred.system import PfaffianSystem


def poly1(termmap):
    """Univariate polynomial from {k: coeff}."""
    return Series(1, {(k,): QQ.scalar(c) for k, c in termmap.items()}, QQ)


def mat1(grid):
    rows = [[cell if isinstance(cell, Series) else poly1(
        cell if isinstance(cell, dict) else {0: cell})
        for cell in row] for row in grid]
    return SeriesMatrix(rows, 1, QQ)


def sys1(grid, p, var="x"):
    return PfaffianSystem([var], [p], [mat1(grid)], QQ)


def random_grids(count, seed):
    """(grid, p) pairs for sys1, x^{p+1} dF/dx = A F, drawn from
    random.Random(seed): d in 2..4, p in 1..3, each coefficient of A of
    degree at most p + 1 nonzero with probability 0.3, from 1, -1, 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d, p = rng.randint(2, 4), rng.randint(1, 3)
        grid = []
        for _ in range(d):
            row = []
            for _ in range(d):
                terms = {}
                for e in range(p + 2):
                    if rng.random() < 0.3:
                        terms[e] = rng.choice([1, -1, 2])
                row.append(terms or 0)
            grid.append(row)
        out.append((grid, p))
    return out


def dense_grid(d, seed=0):
    """A dense d x d grid for sys1 from random.Random(seed): each entry a
    polynomial of degree at most 2 with integer coefficients in -5..5.
    At seed 0 (d = 6, 8, 10, 12, 16 and 24 tried) the eigenvalues of
    A(0) need a field of degree above 2, so every reduction of
    sys1(dense_grid(d), 1) ends in FieldExtensionError (exit 2)."""
    rng = random.Random(seed)
    return [[{e: rng.randint(-5, 5) for e in range(3)} for _ in range(d)]
            for _ in range(d)]


def poly2(termmap):
    """Bivariate polynomial from {(e1, e2): coeff}."""
    return Series(2, {e: QQ.scalar(c) for e, c in termmap.items()}, QQ)


def mat2(grid):
    rows = [[poly2(cell) if isinstance(cell, dict) else poly2({(0, 0): cell})
             for cell in row] for row in grid]
    return SeriesMatrix(rows, 2, QQ)


def hyper_system():
    """The 2x2 bivariate system with ranks (3,2) used throughout.

    x1^4 dF/dx1 = [[x1^3+x1^2+x2, x2^2], [-1, x1^3+x1^2-x2]] F
    x2^3 dF/dx2 = [[x2^2-2x2-6, x2^3], [-2x2, -3x2^2-2x2-6]] F
    """
    A1 = mat2([
        [{(3, 0): 1, (2, 0): 1, (0, 1): 1}, {(0, 2): 1}],
        [{(0, 0): -1}, {(3, 0): 1, (2, 0): 1, (0, 1): -1}],
    ])
    A2 = mat2([
        [{(0, 2): 1, (0, 1): -2, (0, 0): -6}, {(0, 3): 1}],
        [{(0, 1): -2}, {(0, 2): -3, (0, 1): -2, (0, 0): -6}],
    ])
    return PfaffianSystem(["x1", "x2"], [3, 2], [A1, A2], QQ)


def shifted_system():
    """The same system after removing both exponential parts; ranks (3,1).

    x1^4 dF/dx1 = [[x1^3+x2, x2^2], [-1, x1^3-x2]] F
    x2^2 dF/dx2 = [[x2, x2^2], [-2, -3x2]] F
    """
    A1 = mat2([
        [{(3, 0): 1, (0, 1): 1}, {(0, 2): 1}],
        [{(0, 0): -1}, {(3, 0): 1, (0, 1): -1}],
    ])
    A2 = mat2([
        [{(0, 1): 1}, {(0, 2): 1}],
        [{(0, 0): -2}, {(0, 1): -3}],
    ])
    return PfaffianSystem(["x1", "x2"], [3, 1], [A1, A2], QQ)


def poly3(termmap):
    return Series(3, {e: QQ.scalar(c) for e, c in termmap.items()}, QQ)


def mat3(grid):
    rows = [[poly3(cell) if isinstance(cell, dict) else poly3({(0, 0, 0): cell})
             for cell in row] for row in grid]
    return SeriesMatrix(rows, 3, QQ)


def triple_system():
    """2x2 system in three variables, ranks (1,2,0), one regular direction.

    x1^2 dF/dx1 = [[(x1x2x3+1)(x1-1), x3(x1-1)],
                   [x1x2(1-2x1+x1x2x3-x1^2x2x3), x1x2x3(1-x1)]] F
    x2^3 dF/dx2 = [[(2+3x2)(x1x2x3+1), x3(2+3x2)],
                   [-x1x2(3x1x2^2x3+2x1x2x3+x2^2+3x2+2), -x1x2x3(2+3x2)]] F
    x3   dF/dx3 = [[1, 0], [-x1x2, 0]] F
    """
    A1 = mat3([
        [{(2, 1, 1): 1, (1, 1, 1): -1, (1, 0, 0): 1, (0, 0, 0): -1},
         {(1, 0, 1): 1, (0, 0, 1): -1}],
        [{(1, 1, 0): 1, (2, 1, 0): -2, (2, 2, 1): 1, (3, 2, 1): -1},
         {(1, 1, 1): 1, (2, 1, 1): -1}],
    ])
    A2 = mat3([
        [{(1, 1, 1): 2, (0, 0, 0): 2, (1, 2, 1): 3, (0, 1, 0): 3},
         {(0, 0, 1): 2, (0, 1, 1): 3}],
        [{(2, 3, 1): -3, (2, 2, 1): -2, (1, 3, 0): -1, (1, 2, 0): -3, (1, 1, 0): -2},
         {(1, 1, 1): -2, (1, 2, 1): -3}],
    ])
    A3 = mat3([
        [1, 0],
        [{(1, 1, 0): -1}, 0],
    ])
    return PfaffianSystem(["x1", "x2", "x3"], [1, 2, 0], [A1, A2, A3], QQ)


# systems over Q whose eigenvalues need Q(sqrt 2)


def quadratic_system():
    """x dF/dx = [[0, 1], [2, 0]] F: eigenvalues +-sqrt(2)."""
    return sys1([[0, 1], [2, 0]], 0)


def mixed_system():
    """x^2 dF/dx = [[0, 1, x], [2, 0, 0], [x, 0, 1]] F.

    The leading eigenvalues are 1 and +-sqrt(2): a branch over Q merges
    with a branch over Q(sqrt 2).
    """
    return sys1([[0, 1, {1: 1}], [2, 0, 0], [{1: 1}, 0, 1]], 1)


def kron_system():
    """x^2 dF/dx = ([[0, 1], [2, 0]] (x) I_2 + x I_2 (x) [[0, 1], [8, 0]]) F.

    Splitting by +-sqrt(2) leaves blocks whose endgame meets t^2 - 8,
    which splits inside Q(sqrt 2).
    """
    return sys1([[0, {1: 1}, 1, 0], [{1: 8}, 0, 0, 1],
                 [2, 0, 0, {1: 1}], [0, 2, {1: 8}, 0]], 1)


def sibling_system(block):
    """x1 dF/dx1 = diag(0, 0, 1, 1) F, x2 dF/dx2 = diag(B0, block) F.

    B0 = [[0, 1], [2, 0]] has eigenvalues +-sqrt(2).  The first variable
    splits F into two sibling blocks, each of which needs Q(sqrt 2); the
    second block must be factored over the field the first one adjoined.
    """
    z = [[0, 0], [0, 0]]
    rows = lambda top, bottom: ([r + s for r, s in zip(top, z)]
                                + [r + s for r, s in zip(z, bottom)])
    A1 = mat2(rows(z, [[1, 0], [0, 1]]))
    A2 = mat2(rows([[0, 1], [2, 0]], block))
    return PfaffianSystem(["x1", "x2"], [0, 0], [A1, A2], QQ)


def merge_system(top, bottom):
    """x^2 dF/dx = (diag(0, 0, 1, 1) + x diag(top, bottom)) F.

    The leading constant splits F into two blocks over Q; each block's
    x coefficient then needs a quadratic field, and the bottom block must
    be factored over the field the top one reached, or the two branches
    do not merge.
    """
    z = [[0, 0], [0, 0]]
    grid = ([[{1: v} for v in r] + s for r, s in zip(top, z)]
            + [s + [{0: int(i == j), 1: v} for j, v in enumerate(r)]
               for i, (r, s) in enumerate(zip(bottom, z))])
    return sys1(grid, 1)


# (top, bottom) x coefficients of merge_system: +-sqrt(2) beside
# +-2 sqrt(2) either way round, and +-sqrt(2) beside 1 +- sqrt(2)
MERGE_CASES = {
    "split-sqrt2-sqrt8": ([[0, 1], [2, 0]], [[0, 1], [8, 0]]),
    "split-sqrt8-sqrt2": ([[0, 1], [8, 0]], [[0, 1], [2, 0]]),
    "split-sqrt2-shifted": ([[0, 1], [2, 0]], [[0, 1], [1, 2]]),
}


def jordan_systems():
    """Regular systems whose residues are Jordan blocks, so that their
    exponent matrices C are not diagonal: x dF/dx = [[1, 1], [0, 1]] F,
    and the commuting pair x dF/dx = [[1, 1], [0, 1]] F,
    y dF/dy = [[2, 3], [0, 2]] F."""
    return {
        "jordan": sys1([[1, 1], [0, 1]], 0),
        "jordan-bivariate": PfaffianSystem(
            ["x", "y"], [0, 0], [mat2([[1, 1], [0, 1]]),
                                 mat2([[2, 3], [0, 2]])], QQ),
    }


def non_integrable_docs():
    """System documents that break complete integrability: x^2 F_x = y F
    beside y^2 F_y = F, and the plant generate --p 1,1 --d 2 --seed 0
    prints, with one more term, 5 x2, in A_1[0][1]."""
    plant = serialize_system(
        generate_equivalent(0, {"n": 2, "d": 2, "p": [1, 1]})[0])
    plant["A"][0][0][1].append({"exp": [0, 1], "coeff": "5"})
    return {
        "scalar": {"vars": ["x", "y"], "d": 1, "p": [1, 1],
                   "A": [[[[{"exp": [0, 1], "coeff": "1"}]]],
                         [[[{"exp": [0, 0], "coeff": "1"}]]]]},
        "plant": plant,
    }
