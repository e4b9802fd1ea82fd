"""Self-convergence of every m = 1 (value, error) API.

If ``v(rtol) +- e(rtol)`` is honest, the same call at rtol / 100 moves
the value by no more than the two reported errors together,

    |v(rtol) - v(rtol / 100)| <= e(rtol) + e(rtol / 100),

the a-posteriori check of adaptive quadrature (Piessens et al.,
*QUADPACK*, 1983; Gonnet, "A review of error estimation in adaptive
quadrature", ACM Comput. Surv. 44 (2012) 22).  It needs no reference
value, so it reaches draws no closed form covers, and it catches a
spike the loose solve misses once the tight solve finds it (not one
both miss).  Each API takes seeded draws of 1-4 atoms and rtol
log-uniform in [1e-8, 1e-3]; a documented refusal -- a DivergenceError,
or an AccuracyError that names its budget -- is honest.  With
``pytest -s`` each test prints the worst ratio of the two sides.
"""

import math

import numpy as np
import pytest

import wedgecap.kernels as kernels
from wedgecap.errors import AccuracyError, DivergenceError
from wedgecap.geometry import DiscreteMeasure
from wedgecap.kernels import (KernelParams, QuadratureSpec, F_nu_m, M_nu_s,
                              reduced_I, reduced_I_ladder)

DRAWS = 60
BUDGETS = ("panels", "doublings")   # the refinement and tail budgets


def _measure(rng):
    n = int(rng.integers(1, 5))
    return DiscreteMeasure(1, [((rng.uniform(-1.0, 1.0),), rng.uniform(0.1, 1.0))
                               for _ in range(n)])


def _log_uniform(rng, lo, hi, size=None):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size)


def _sweep(name, seed, solve):
    """``solve(rng)`` draws one case and returns ``run(quad) -> (values,
    errors)``; each case runs at its rtol and at rtol / 100 (floored at
    the tolerance QuadratureSpec accepts)."""
    rng = np.random.default_rng(seed)
    worst, refused = 0.0, 0
    for draw in range(DRAWS):
        run = solve(rng)
        rtol = _log_uniform(rng, 1e-8, 1e-3)
        try:
            v, e = run(QuadratureSpec(rtol))
            vt, et = run(QuadratureSpec(max(rtol / 100.0, 1.1e-10)))
        except DivergenceError:
            refused += 1
            continue
        except AccuracyError as exc:
            assert any(b in str(exc) for b in BUDGETS), str(exc)
            refused += 1
            continue
        gap, bound = np.abs(np.asarray(v) - vt), np.asarray(e) + et
        assert np.all(gap <= bound), (name, draw, rtol, gap, bound)
        worst = max(worst, float(np.max(gap / np.maximum(bound, 1e-300))))
    print("\nself-convergence %-18s %d draws, %d refused, worst |dv| / (e + e_tight) %.3g"
          % (name, DRAWS, refused, worst))


def _kernel_params(rng, **extra):
    return KernelParams(nu=rng.uniform(1.5, 4.0), m=1, q=rng.uniform(1.3, 2.5), R=8.0,
                        **extra)


@pytest.mark.parametrize("truncated", [True, False])
def test_F_line(truncated):
    def solve(rng):
        mu, p, tau = _measure(rng), _kernel_params(rng), _log_uniform(rng, 1e-8, 3.0, 3)
        return lambda quad: F_nu_m(tau, mu, p, quad=quad, truncated=truncated)
    _sweep("F m=1 truncated" if truncated else "F m=1 whole line", 2040 + truncated, solve)


def test_M():
    def solve(rng):
        mu, p = _measure(rng), _kernel_params(rng, s=rng.uniform(0.1, 1.5))
        eps = _log_uniform(rng, 1e-4, 0.1)
        return lambda quad: M_nu_s(mu, p, quad=quad, eps=eps)
    _sweep("M_nu_s", 2042, solve)


def _reduction_params(rng):
    return KernelParams(nu=rng.uniform(1.5, 4.0), m=1, q=rng.uniform(1.3, 2.5),
                        sigma=rng.uniform(0.1, 2.0), j=int(rng.integers(1, 4)))


def test_reduced_I():
    def solve(rng):
        mu, p = _measure(rng), _reduction_params(rng)
        eps = _log_uniform(rng, 1e-4, 0.1) if rng.random() < 0.5 else 0.0
        return lambda quad: reduced_I(mu, p, quad=quad, eps=eps)
    _sweep("reduced_I", 2043, solve)


def test_reduced_I_ladder():
    def solve(rng):
        mu, p = _measure(rng), _reduction_params(rng)
        cutoffs = np.sort(_log_uniform(rng, 1e-4, 0.1, 3))
        return lambda quad: reduced_I_ladder(mu, p, cutoffs, quad=quad)
    _sweep("reduced_I_ladder", 2044, solve)


@pytest.mark.parametrize("pieces", ["M", "reduction"])
def test_box_rows(pieces):
    # the boxes (0, R) x (-R, R) of M (equivalence) and their complements
    # under the reduction weight (remainder), one row per radius
    def solve(rng):
        mu = _measure(rng)
        if pieces == "M":
            p = _kernel_params(rng, s=rng.uniform(0.1, 1.5))
            radii = (4.0, 8.0, 16.0)
        else:
            p = _reduction_params(rng)
            radii = (2.0, 4.0, 8.0, 16.0)
        eps = _log_uniform(rng, 1e-4, 0.1)

        def run(quad):   # the reduction pieces refuse a divergent tail
            agg = kernels._M_pieces(p) if pieces == "M" else kernels._reduction_pieces(mu, p)
            return kernels._aggregate(mu, p, quad, agg, [eps], radii)
        return run
    _sweep("box rows " + pieces, 2045 + (pieces == "M"), solve)
