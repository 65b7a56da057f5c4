"""Supersymmetric partner Hamiltonians on a grid.

Construct V∓ from a superpotential, verify the charge algebra, build
partner hierarchies, test shape invariance under five parameter-transform
families, produce bound-state spectra both algebraically and through an
independent eigensolver, and classify potentials by set membership.

``_EXPORTS`` is the one export list: each submodule and the public names
taken from it.  ``__all__`` is derived from it, and a name is bound on first
access (PEP 562), so ``import susyqm`` runs no submodule and loads no numpy.
The first access stores the name in this module's globals, so later ones are
a plain attribute lookup.

Each submodule of the table is registered in ``sys.modules`` at import,
unexecuted (``importlib.util.LazyLoader``), and runs on its first attribute
access.  Code that walks the package's loaded modules, such as a profiler
that wraps a function in every module holding it, thus finds all of them
before any has run.
"""

import importlib.util
import sys

_EXPORTS = {
    "catalog": ("SIPRecord", "catalog_dump", "closed_form_spectrum", "get_record",
                "instantiate", "list_catalog", "merged_params", "record_grid"),
    "classify": ("CERTIFIED", "NO", "NO_WITHIN_SEARCH", "UNKNOWN", "YES", "VennTag",
                 "classify_family", "classify_record", "classify_tabulated",
                 "venn_graph_text"),
    "eigensolver": ("DECAY_RATIO", "EigenPair", "HamiltonianMatrix", "assemble_hamiltonian",
                    "ground_state", "solve_lowest", "solve_potential", "spectrum_csv"),
    "errors": ("CatalogError", "ChainConstructionError", "ConvergenceError", "EvaluationError",
               "ExpressionError", "GridError", "GridMismatchError", "NoBoundStateError",
               "NodePresentError", "SusyQMError", "TransformError", "ZeroNormError"),
    "expressions": ("compile_on_grid", "compile_scalar", "differentiate", "parse_expression"),
    "grids": ("DEFAULT_DOMAIN", "DEFAULT_N_POINTS", "Grid1D", "GridFunction",
              "boundary_amplitude_ratio", "count_nodes", "derivative", "inner_product",
              "l2_distance", "make_grid", "norm", "normalize", "sign_aligned_distance"),
    "shape_invariance": ("ANALYTIC_TOL", "FINITE_DIFF_TOL", "ResidualReport", "Spectrum",
                         "SpectrumEntry", "TransformCandidate", "algebraic_spectrum",
                         "default_candidates", "iterate_params", "search_transform",
                         "si_residual", "spectrum_from_measured_residuals",
                         "wavefunction_chain"),
    "susy": ("AlgebraReport", "ChargeMatrices", "Hierarchy", "HierarchyLevel", "PartnerPair",
             "SuperpotentialFamily", "SusyPhase", "apply_a", "apply_a_dagger", "block_spectra",
             "build_hierarchy", "charge_matrices", "decay_trust_window",
             "partner_pair_from_w", "partner_potentials", "superpotential_from_ground_state",
             "susy_phase", "verify_algebra", "zero_mode"),
    "transforms": ("Cyclic", "ParameterTransform", "PowerScaling", "Projective", "Scaling",
                   "Translation"),
}

#: Public name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _register_unexecuted(module: str) -> None:
    """Bind the submodule here and in sys.modules; it runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    globals()[module] = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(globals()[module])


for _module in _EXPORTS:
    _register_unexecuted(_module)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
