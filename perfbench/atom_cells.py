"""Self-check of the traced atom-cell counter against the ROADMAP figure.

For the 10-atom members 4, 11 and 19 of ``measure_family(1, 8, seed=42)``
one ``besov_neg_proxy`` call at criterion 6's parameters evaluates about
2.2e8 atom-cells (row cells x atoms inside ``F_nu_m``).  Run from the
root of a checkout:

    python3 perfbench/atom_cells.py

Prints the count per measure and exits 1 when one is more than 5% away
from 2.24e8, the baseline figure; a change to the quadrature that moves
the counter on purpose moves this figure with it.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import wedgecap  # noqa: E402
from wedgecap.experiments import measure_family  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import EquivFamily  # noqa: E402

EXPECTED = 2.24e8
MEASURES = (4, 11, 19)


def main():
    wl = EquivFamily(42)
    family = measure_family(1, 8.0, n_measures=20, seed=42)
    tracer = Tracer(wedgecap)
    ok = True
    with tracer.installed():
        for i in MEASURES:
            before = tracer.count["kernels.atom_cells"]
            wedgecap.besov_neg_proxy(family[i], wl.s, wl.q, eps=1e-2, quad=wl.quad)
            cells = tracer.count["kernels.atom_cells"] - before
            close = abs(cells / EXPECTED - 1.0) <= 0.05
            ok &= close
            print("measure %d (%d atoms): %.4g atom-cells %s"
                  % (i, family[i].n_atoms, cells, "ok" if close else "OFF"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
