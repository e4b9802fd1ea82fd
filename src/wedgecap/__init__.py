"""Critical exponents, singular kernels, Besov proxies and capacities for
boundary singularities of -Delta u + |u|^{q-1} u = 0 in wedges and polyhedra.

Modules
-------
geometry     wedges, polyhedra, measures, compact sets, JSON wire formats
spectral     first Dirichlet eigenvalue of a box opening on the sphere
exponents    kappa roots, critical thresholds q_c / q_c_star, index s(q)
kernels      edge kernels and the weighted integral functionals
besov        negative-order norm proxy, positive-order sampled norms
capacity     Bessel kernels/capacities and the weighted edge capacity
classify     regime, good-measure and removability verdicts
experiments  desk-scale verification harness with seeded reports
cli          command-line front end (``wedgecap ...``)
"""

__version__ = "0.1.0"

from .besov import NormProxyResult, besov_neg_proxy, besov_pos_norm
from .capacity import (CapacityResult, bessel_capacity, bessel_kernel_radial,
                       capacity_null_test, rho_capacity)
from .classify import (GoodMeasureResult, RemovabilityResult, Verdict,
                       classify_polyhedron, good_measure_check,
                       removable_check, stratum_report, stratum_verdict)
from .exponents import (ExponentReport, capacity_index_s, critical_exponents,
                        kappa_from_gamma, kappa_roots)
from .geometry import (CompactSetDescription, ConeOpening, DiscreteMeasure,
                       PolyhedronSpec, SetPiece, Stratum, WedgeSpec,
                       cartesian_to_spherical, decompose_measure, dirac,
                       spherical_to_cartesian, validate_wedge)
from .kernels import (KernelParams, QuadratureSpec, F_nu_m, M_nu_s, default_R,
                      martin_kernel, params_from_report, reduced_I)
from .spectral import (EigenResult, SLProblem, gamma_first_eigenvalue,
                       opening_eigenfunction, sl_eigen_1d, sl_eigen_fd)

__all__ = [name for name in dir() if not name.startswith("_")]
