"""Zero-sum invariants of finite abelian groups.

Exact computation of the Davenport constant, its multiwise variants, the
eta-constant and the Erdos-Ginzburg-Ziv constant, together with the
construction, classification and verification of the extremal sequences
realizing them.

The public names below, and the submodules that define them, are loaded
on first use, so importing one submodule loads only what it imports.
"""

from importlib import import_module

_EXPORTS = {
    "engine": (
        "DisjointDecomposition", "ExtractionFailure", "InductivePartition",
        "enumerate_minimal_zero_sums", "extract_exp_length_zero_sum",
        "extract_short_zero_sum_free", "has_nonempty_zero_sum", "has_short_zero_sum",
        "has_zero_sum_of_length", "inductive_partition", "max_disjoint_decomposition",
        "max_disjoint_zero_sums", "reach_table", "restricted_sums", "sums_of_length",
    ),
    "errors": ("CapacityError", "InvalidInputError"),
    "extremal": (
        "ClassificationReport", "RankTwoParams", "SubsumCertificate", "build_dk_witness",
        "build_eta_extremal", "build_s_extremal", "classify_eta_extremal",
        "classify_s_extremal", "check_stability", "enumerate_eta_extremal",
        "enumerate_s_extremal", "eta_extremal_family", "find_subsum_certificate",
        "rank_two_params", "s_extremal_family", "square_counterexample_report",
        "verify_subsum_certificate",
    ),
    "groups": (
        "Element", "Group", "QuotientMap", "Subgroup", "enumerate_subgroups",
        "find_inductive_subgroup", "make_group", "parse_group", "quotient",
        "subgroup_generated_by",
    ),
    "invariants": (
        "InvariantResult", "PropertyDReport", "TailReport", "check_property_d", "compute",
        "detect_arithmetic_tail", "formula_oracle", "has_property", "property_d_known",
        "search_state",
    ),
    "search": ("Budget", "SearchStats"),
    "sequences": ("Sequence",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
