"""Numerics for the Siegel-Jacobi space: group actions, invariant metrics
and Laplacians, Cayley transforms, fundamental-domain reduction, geodesic
distance, Jacobi-form machinery, and Schrodinger-Weil theta sums."""

from .errors import (AccuracyError, ConvergenceError, DimensionError, DomainError,
                     NumericError, ParameterError)
from .spaces import DiskPoint, JacobiDiskPoint, JacobiPoint, SiegelPoint, TangentVector
from .groups import (HeisenbergElement, JacobiGroupElement, StarGroupElement,
                     SymplecticElement, act, act_disk, act_jacobi, act_jacobi_disk,
                     act_siegel, embed_star)
from .cayley import cayley_inverse, partial_cayley, partial_cayley_inverse, to_disk, to_half_space
from .metrics import (MetricParams, disk_metric, jacobi_disk_metric, jacobi_metric,
                      map_differential, pushforward, siegel_metric, volume_density)
from .diffops import (FDConfig, ScalarField, disk_operator, invariant_polynomial,
                      laplacian_disk, laplacian_jacobi, laplacian_siegel)
from .geodesics import (cross_ratio, cross_ratio_eigenvalues, siegel_distance,
                        siegel_distance_series, special_geodesic)
from .reduction import (ReductionCertificate, jacobi_reduce, minkowski_reduce,
                        minkowski_violations, siegel_reduce)
from .jacobiforms import (FourierSeries, JacobiFormIndex, Polynomial,
                          apply_m_operator, automorphic_factor, fourier_eval,
                          is_pluriharmonic, is_singular, siegel_jacobi_operator,
                          slash)
from .theta import (GridFunction, SL2Coord, ThetaContext, cocycle, gaussian,
                    gaussian_poly, iwasawa, iwasawa_compose, schrodinger_action,
                    stone_von_neumann_residual, theta_sum, weil_generator_action,
                    weil_sl2_action)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
