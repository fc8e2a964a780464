"""Symmetric divergence families, f-divergence bounds, and verification."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it; ``import symdiv`` loads no
# submodule, each name is imported from its home on first use (PEP 562)
_HOME = {name: module for module, names in {
    "errors": "DomainError InputError SymdivError",
    "simplex": "Distribution NormalizationMode NormalizationPolicy RatioBounds load_weights mixture "
               "ratio_bounds sample_simplex validate_distribution",
    "means": "MeanQuery log_power_mean",
    "divergences": "MeasureKind classic_divergence vajda_abs_chi vajda_upper_bounds "
                   "vajda_variation_coefficients",
    "families": "FamilyParam GeneratorFamilyKind ag_js_divergence_type_s generator_eval "
                "j_divergence_type_s relative_information_type_s",
    "csiszar": "BoundReport ComparisonBounds Curvature Generator bound_report compare_generators "
               "csiszar_divergence curvature_ratio endpoint_bounds family_generator "
               "linearized_functionals smoothness_bounds",
    "verify": "REGISTRY ChainReport InequalityCase Severity SweepConfig SweepSummary "
              "check_bounds_suite check_chain check_parametric run_sweep",
}.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    # never stored here: a function rebound in its home later (a tracer's wrapper) is seen
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _HOME.values():  # a submodule, as the package bound them before
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
