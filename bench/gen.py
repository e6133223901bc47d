"""Seeded inputs for the benchmark workloads.

Everything here is derived from the workload seed with ``random.Random``, so
one seed always yields the same algebras, bases, tuples and spec files.  The
raw data (structure tensors, representation matrices, basis changes) is
computed with plain ``Fraction`` arithmetic; liecontract is used only to wrap
it into library objects, so a defect in the library cannot shape its own
inputs.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)


# ----- exact dense linear algebra, independent of liecontract ---------------

def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in cols)
                 for row in a)


def mat_vec(m, v):
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in m)


def invert(m):
    """Gauss-Jordan inverse; None when singular."""
    n = len(m)
    aug = [list(m[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def small_fraction(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_vector(rng, dim):
    """A generic vector: every entry nonzero, so the cost of an op does not
    hinge on which coordinates happen to vanish."""
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
                 for _ in range(dim))


# ----- so(n) and its defining representation ----------------------------------

def so_pairs(n):
    """Index pairs (i, j), 1 <= i < j <= n, ordered so that so(3) is X1, X2, X3.

    Sorting by (j, i) descending puts the pairs of so(n-1) (those with j < n)
    last, and the sign (-1)^(i+j) below reproduces the catalogue so3 tensor
    [X1, X2] = X3, [X2, X3] = X1, [X3, X1] = X2 at n = 3.
    """
    return sorted(((i, j) for j in range(1, n + 1) for i in range(1, j)),
                  key=lambda p: (-p[1], -p[0]))


def so_matrices(n):
    mats = []
    for i, j in so_pairs(n):
        s = ONE if (i + j) % 2 == 0 else -ONE
        m = [[ZERO] * n for _ in range(n)]
        m[i - 1][j - 1] = s
        m[j - 1][i - 1] = -s
        mats.append(tuple(tuple(row) for row in m))
    return tuple(mats)


def so_coords(n, matrix):
    """Coordinates of an antisymmetric matrix in the so_matrices basis."""
    return tuple(matrix[i - 1][j - 1] * (ONE if (i + j) % 2 == 0 else -ONE)
                 for i, j in so_pairs(n))


def commutator(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


def so_data(n):
    """(basis names, structure tensor, defining matrices, so(n-1) split vectors)."""
    mats = so_matrices(n)
    d = len(mats)
    tensor = tuple(tuple(so_coords(n, commutator(mats[a], mats[b])) for b in range(d))
                   for a in range(d))
    names = tuple(f"L{i}{j}" for i, j in so_pairs(n))
    sub = tuple(idx for idx, (_, j) in enumerate(so_pairs(n)) if j < n)
    split = tuple(tuple(ONE if c == a else ZERO for c in range(d)) for a in sub)
    return names, tensor, mats, split


def dense_basis_change(rng, d):
    """A seeded invertible matrix with no zero entry, and its inverse."""
    while True:
        b = tuple(tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                        for _ in range(d)) for _ in range(d))
        inv = invert(b)
        if inv is not None:
            return b, inv


def change_basis(n, b, binv):
    """so(n) data rewritten in the basis Y_a = sum_c b[c][a] X_c.

    Brackets are taken as matrix commutators in the defining representation,
    read back in the X basis and mapped to Y coordinates with b^-1.
    """
    names, _, mats, split = so_data(n)
    d = len(names)
    size = len(mats[0])
    new_mats = tuple(
        tuple(tuple(sum((c * m[r][s] for c, m in zip(col, mats) if c), ZERO)
                    for s in range(size)) for r in range(size))
        for col in zip(*b))
    tensor = tuple(
        tuple(mat_vec(binv, so_coords(n, commutator(new_mats[a], new_mats[c])))
              for c in range(d))
        for a in range(d))
    new_names = tuple(f"Y{a + 1}" for a in range(d))
    return new_names, tensor, new_mats, tuple(mat_vec(binv, v) for v in split)


def bracket(tensor, u, v):
    """[u, v] from a structure tensor ``tensor[a][b][c]``."""
    out = [ZERO] * len(tensor)
    for a, x in enumerate(u):
        if x:
            for b, y in enumerate(v):
                if y:
                    xy = x * y
                    for c, f in enumerate(tensor[a][b]):
                        if f:
                            out[c] += xy * f
    return tuple(out)


def rebase_tensor(tensor, cols):
    """The tensor in the basis ``cols`` (vectors in the old coordinates)."""
    inv = invert(tuple(zip(*cols)))
    return tuple(tuple(mat_vec(inv, bracket(tensor, u, v)) for v in cols) for u in cols)


def expansion_tensor(tensor, h_basis, n_basis, k):
    """Structure tensor of the order-k expansion along the split (h_basis, n_basis).

    Basis: h_basis at level 0, every basis vector at levels 1..k, n_basis at
    level k+1.  [x@i, y@j] = [x, y]@(i+j); terms above level k+1 are dropped,
    the level-0 slot is read in h_basis and the top slot modulo the
    subalgebra, as its n_basis coordinates.
    """
    d, dh = len(tensor), len(h_basis)
    units = [tuple(ONE if c == a else ZERO for c in range(d)) for a in range(d)]
    basis = [(0, v) for v in h_basis]
    basis += [(level, e) for level in range(1, k + 1) for e in units]
    basis += [(k + 1, v) for v in n_basis]
    split_inv = invert(tuple(zip(*(tuple(h_basis) + tuple(n_basis)))))
    m = len(basis)
    f = [[(ZERO,) * m for _ in range(m)] for _ in range(m)]
    for i, (li, u) in enumerate(basis):
        for j in range(i + 1, m):
            lj, v = basis[j]
            level = li + lj
            if level > k + 1:
                continue
            w = bracket(tensor, u, v)
            row = [ZERO] * m
            if level == 0:
                coords = mat_vec(split_inv, w)
                if any(coords[dh:]):
                    raise ValueError("the subalgebra is not bracket-closed")
                row[:dh] = coords[:dh]
            elif level <= k:
                start = dh + (level - 1) * d
                row[start:start + d] = w
            else:
                row[m - len(n_basis):] = mat_vec(split_inv, w)[dh:]
            f[i][j] = tuple(row)
            f[j][i] = tuple(-x for x in row)
    return tuple(tuple(plane) for plane in f)


def cayley(skew):
    """Rational orthogonal matrix (I - A)(I + A)^-1 of an antisymmetric A."""
    n = len(skew)
    eye = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    minus = tuple(tuple(e - a for e, a in zip(r, s)) for r, s in zip(eye, skew))
    plus = tuple(tuple(e + a for e, a in zip(r, s)) for r, s in zip(eye, skew))
    return mat_mul(minus, invert(plus))


def adjoint_matrix(mats, g, coords):
    """Matrix of x -> g x g^-1 in the basis ``mats``; ``coords`` decomposes."""
    ginv = invert(g)
    cols = [coords(mat_mul(mat_mul(g, m), ginv)) for m in mats]
    return tuple(tuple(col[r] for col in cols) for r in range(len(mats)))


def generic_coords(mats):
    """Decomposition in the span of independent matrices.

    Picks matrix entries greedily until the coefficient system restricted to
    them is invertible, then solves that square system.
    """
    d = len(mats)
    flat = [tuple(x for row in m for x in row) for m in mats]
    chosen, system = [], []
    for pos in range(len(flat[0])):
        row = tuple(f[pos] for f in flat)
        if any(row) and _rank(system + [row]) == len(system) + 1:
            chosen.append(pos)
            system.append(row)
        if len(chosen) == d:
            break
    sys_inv = invert(tuple(system))

    def coords(matrix):
        entries = [x for r in matrix for x in r]
        return mat_vec(sys_inv, tuple(entries[p] for p in chosen))

    return coords


def _rank(rows):
    work = [list(r) for r in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                f = work[r][c] / work[rank][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


# ----- wrapping into library objects --------------------------------------------

class Case:
    """An algebra with its faithful representation and a subalgebra split basis."""

    def __init__(self, lc, label, names, tensor, mats, split_vectors):
        self.label = label
        self.names, self.tensor, self.mats = names, tensor, mats
        self.split_vectors = split_vectors
        self.algebra = lc.LieAlgebra(len(names), names, tensor)
        self.rep = lc.Representation(self.algebra, mats)


def so_case(lc, n):
    return Case(lc, f"so{n}", *so_data(n))


def dense_so_case(lc, n, rng):
    b, binv = dense_basis_change(rng, n * (n - 1) // 2)
    return Case(lc, f"dense-so{n}", *change_basis(n, b, binv))


def catalogue_case(lc, name):
    alg, rep = lc.builtin(name)
    return Case(lc, name, alg.basis_names, alg.structure, rep.mats,
                tuple(lc.canonical_split_vectors(name)))


def pole_family_phis(rng, n=4):
    """Family fixing the span of X_(i,m), which is not closed, and rescaling the rest.

    [X_(i,m), X_(j,m)] lies in the rescaled so(n-1), so the limit has a pole
    of order exactly one.
    """
    m = rng.randint(1, n)
    pairs = so_pairs(n)
    d = len(pairs)
    fixed = [m in p for p in pairs]
    p_fix = tuple(tuple(ONE if r == c and fixed[r] else ZERO for c in range(d)) for r in range(d))
    p_rest = tuple(tuple(ONE if r == c and not fixed[r] else ZERO for c in range(d))
                   for r in range(d))
    return m, (p_fix, p_rest)


def group_elements(case, rng, count):
    """Seeded exact adjoint matrices of subgroup elements preserving the split."""
    label = case.label
    out = []
    for _ in range(count):
        if label in ("so3", "so4"):
            t = [small_fraction(rng, 4, 3) for _ in range(3)]
            n = len(case.mats[0])
            skew = [[ZERO] * n for _ in range(n)]
            # a rotation of the first n-1 coordinates (about X3 for so3)
            if n == 3:
                skew[0][1], skew[1][0] = t[0], -t[0]
            else:
                for (i, j), v in zip(((0, 1), (0, 2), (1, 2)), t):
                    skew[i][j], skew[j][i] = v, -v
            g = cayley(tuple(tuple(r) for r in skew))
        elif label == "sl2":
            s = Fraction(rng.choice((1, 2, 3, 4, 5)), rng.choice((1, 2, 3))) * rng.choice((1, -1))
            g = ((s, ZERO), (ZERO, 1 / s))
        elif label == "heis3":
            a, b, c = (small_fraction(rng) for _ in range(3))
            g = ((ONE, a, c), (ZERO, ONE, b), (ZERO, ZERO, ONE))
        else:
            raise ValueError(f"no subgroup sampler for {label}")
        out.append(adjoint_matrix(case.mats, g, generic_coords(case.mats)))
    return out


# ----- spec files for the CLI session --------------------------------------------

def _fmt(x):
    return f"{x.numerator}/{x.denominator}"


def write_specs(directory):
    """Write the spec files of the CLI session: so(5), its so(4), and X3 of so3.

    Returns the paths and the (names, tensor, split vectors) of the so(5) written.
    """
    names, p_tensor, _, p_split = so_data(5)
    d = len(p_tensor)
    brackets = [[a + 1, b + 1, c + 1, _fmt(p_tensor[a][b][c])]
                for a in range(d) for b in range(a + 1, d) for c in range(d)
                if p_tensor[a][b][c]]
    paths = {
        "so5_alg": os.path.join(directory, "so5.json"),
        "so5_sub": os.path.join(directory, "so5-so4.json"),
        "so3_sub": os.path.join(directory, "so3-x3.json"),
    }
    spec = {"dim": d, "basis": list(names), "brackets": brackets}
    with open(paths["so5_alg"], "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    with open(paths["so5_sub"], "w", encoding="utf-8") as fh:
        json.dump([[_fmt(x) for x in v] for v in p_split], fh)
    with open(paths["so3_sub"], "w", encoding="utf-8") as fh:
        json.dump([["0", "0", "1"]], fh)
    return paths, (names, p_tensor, p_split)
