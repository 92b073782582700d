"""A fixed reference kernel that measures how fast the machine is right now.

Other tenants of the host slow this machine down by up to 1.9x, in phases
that last from seconds to minutes, and allocation-heavy pure-Python work
slows most.  The kernel is work of that kind, independent of frobwdvv:
exact sparse polynomial products over Fraction coefficients with dict
bookkeeping, as in a truncated-series product.  The worker times it right
after set-up and after every operation of 0.3 s or more, in the same
process; run.py scales each operation's time by REFERENCE_S over the mean
of the kernel times just before and just after it, and set-up time by
REFERENCE_S over the kernel time just after it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# the kernel's time on the reference machine (2-core Xeon, Python 3.11) in a
# quiet phase; it only sets the unit of the corrected times
REFERENCE_S = 0.150


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    rng = random.Random(1)
    a = {(i, j, k): Fraction(rng.randint(1, 50), rng.randint(1, 50))
         for i in range(9) for j in range(9 - i) for k in range(9 - i - j)}
    keep = []
    for _ in range(2):
        out = {}
        for i1, c1 in a.items():
            for i2, c2 in a.items():
                idx = (i1[0] + i2[0], i1[1] + i2[1], i1[2] + i2[2])
                if idx[0] + idx[1] + idx[2] > 12:
                    continue
                out[idx] = out.get(idx, Fraction(0)) + c1 * c2
        keep.append(out)
    return time.perf_counter() - t0
