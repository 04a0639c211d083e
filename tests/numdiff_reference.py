"""Finite-difference reference derivatives that only tests read.

The Richardson-extrapolated third derivative is, with
`alps.numdiff.richardson_second_derivative`, the reference that tests
hold the shapes' analytic `h2`/`h3` to, which are what the
cold-temperature acceptance formula reads.
"""

from __future__ import annotations

from typing import Callable

from alps.numdiff import _richardson


def richardson_third_derivative(f: Callable[[float], float], x: float,
                                h0: float = 0.1, levels: int = 5) -> float:
    ests = []
    for k in range(levels):
        h = h0 / 2.0 ** k
        ests.append((f(x + 2 * h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2 * h))
                    / (2.0 * h ** 3))
    return _richardson(ests)
