#!/usr/bin/env python3
"""Census of torus-invariant primes on small grids.

For each shape up to the given cap, enumerates every Cauchon diagram,
computes its minimal minor basis at the top threshold, and tabulates the
distribution of basis sizes.  A reminder that the number of diagrams on an
m x n grid grows like a poly-Bernoulli number: 14 at 2x2, 46 at 2x3, 230 at
3x3.

Usage: python scripts/hprime_census.py [max_m] [max_n]
"""

import sys
from collections import Counter

sys.path.insert(0, "src")

from qmpaths.torus import Shape
from qmpaths.cauchon import enumerate_cauchon_diagrams
from qmpaths.minors import HPrimeHandle
from qmpaths.groebner import _kernel_sweep


def census(m, n):
    shape = Shape(m, n)
    sizes = Counter()
    full_sizes = Counter()
    largest = None
    for d in enumerate_cauchon_diagrams(shape):
        h = HPrimeHandle(d, shape.mn)
        # the kernel minors and, of those, the minimal ones: one sweep
        kernel, minimal = _kernel_sweep(h)
        sizes[len(minimal)] += 1
        full_sizes[len(kernel)] += 1
        if largest is None or len(minimal) > largest[0]:
            largest = (len(minimal), d, minimal)
    return sizes, full_sizes, largest


def main(argv):
    max_m = int(argv[1]) if len(argv) > 1 else 3
    max_n = int(argv[2]) if len(argv) > 2 else 3
    for m in range(2, max_m + 1):
        for n in range(2, max_n + 1):
            sizes, full_sizes, largest = census(m, n)
            total = sum(sizes.values())
            print(f"== {m}x{n}: {total} Cauchon diagrams")
            print("   minimal basis size distribution:",
                  dict(sorted(sizes.items())))
            print("   kernel minor count distribution:",
                  dict(sorted(full_sizes.items())))
            size, d, minimal = largest
            print(f"   largest minimal basis ({size}): diagram {d.to_inline()}")
            print("     ", " ".join(str(s) for s in minimal))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
