"""Fixed reference kernel: pure-Python Fraction and int arithmetic.

The benchmark divides every timing by the duration of this kernel measured
next to it, which cancels most of the host's drift in CPU speed.  The kernel
does the same kind of work as liecontract (small exact rationals, tuples,
Bareiss-style elimination and a Cauchy convolution) on fixed inputs, so its
cost never depends on the workload seed or on the library under test.

It must never import liecontract: a change to the library would otherwise
move the yardstick along with the thing it measures.
"""

from __future__ import annotations

from fractions import Fraction

SIZE = 7
_MATRIX = tuple(
    tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(SIZE))
    for i in range(SIZE))
_SERIES = tuple(Fraction((7 * k) % 9 - 4, 1 + k % 3) for k in range(12))


def _eliminate(m):
    work = [list(row) for row in m]
    n = len(work)
    for k in range(n):
        piv = work[k][k]
        for i in range(k + 1, n):
            f = work[i][k] / piv
            work[i] = [x - f * y for x, y in zip(work[i], work[k])]
    return work[n - 1][n - 1]


def _convolve(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def run():
    """One kernel call, a few milliseconds on a current core; returns a checksum."""
    acc = _eliminate(_MATRIX)
    acc += _eliminate(tuple(reversed(_MATRIX)))
    acc += _eliminate(tuple(zip(*_MATRIX)))
    acc += sum(_convolve(_SERIES, _SERIES[::-1]))
    acc += sum(_convolve(_SERIES[::2], _SERIES))
    return acc
