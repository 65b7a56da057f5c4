"""Supersymmetric partner Hamiltonians on a grid.

Construct V∓ from a superpotential, verify the charge algebra, build
partner hierarchies, test shape invariance under five parameter-transform
families, produce bound-state spectra both algebraically and through an
independent eigensolver, and classify potentials by set membership.
"""

from types import ModuleType as _ModuleType

from .catalog import (SIPRecord, catalog_dump, closed_form_spectrum,
                      get_record, instantiate, list_catalog, merged_params,
                      record_grid)
from .classify import (CERTIFIED, NO, NO_WITHIN_SEARCH, UNKNOWN, YES, VennTag,
                       classify_family, classify_record, classify_tabulated,
                       venn_graph_text)
from .eigensolver import (DECAY_RATIO, EigenPair, HamiltonianMatrix,
                          assemble_hamiltonian, ground_state, solve_lowest,
                          solve_potential, spectrum_csv)
from .errors import (CatalogError, ChainConstructionError, ConvergenceError,
                     EvaluationError, ExpressionError, GridError,
                     GridMismatchError, NoBoundStateError, NodePresentError,
                     SusyQMError, TransformError, ZeroNormError)
from .expressions import compile_on_grid, compile_scalar, differentiate, parse_expression
from .grids import (DEFAULT_DOMAIN, DEFAULT_N_POINTS, Grid1D, GridFunction,
                    boundary_amplitude_ratio, count_nodes, derivative,
                    inner_product, l2_distance, make_grid, norm, normalize,
                    sign_aligned_distance)
from .shape_invariance import (ANALYTIC_TOL, FINITE_DIFF_TOL, Cyclic,
                               ParameterTransform, Projective, PowerScaling,
                               ResidualReport, Scaling,
                               Spectrum, SpectrumEntry, TransformCandidate,
                               Translation, algebraic_spectrum,
                               default_candidates, iterate_params,
                               search_transform, si_residual,
                               spectrum_from_measured_residuals,
                               wavefunction_chain)
from .susy import (AlgebraReport, ChargeMatrices, Hierarchy, HierarchyLevel,
                   PartnerPair, SuperpotentialFamily, SusyPhase, apply_a,
                   apply_a_dagger, block_spectra, build_hierarchy,
                   charge_matrices, decay_trust_window, partner_pair_from_w,
                   partner_potentials, superpotential_from_ground_state,
                   susy_phase, verify_algebra, zero_mode)

#: Every public name bound above; no module, no underscore name.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
