"""Zero-sum invariants of finite abelian groups.

Exact computation of the Davenport constant, its multiwise variants, the
eta-constant and the Erdos-Ginzburg-Ziv constant, together with the
construction, classification and verification of the extremal sequences
realizing them.
"""

from .engine import (
    DisjointDecomposition,
    ExtractionFailure,
    InductivePartition,
    ReachTable,
    enumerate_minimal_zero_sums,
    extract_exp_length_zero_sum,
    extract_short_zero_sum_free,
    has_nonempty_zero_sum,
    has_short_zero_sum,
    has_zero_sum_of_length,
    inductive_partition,
    max_disjoint_decomposition,
    max_disjoint_zero_sums,
    reach_table,
    restricted_sums,
    sums_of_length,
)
from .errors import CapacityError, InvalidInputError
from .extremal import (
    ClassificationReport,
    RankTwoParams,
    SubsumCertificate,
    build_dk_witness,
    build_eta_extremal,
    build_s_extremal,
    classify_eta_extremal,
    classify_s_extremal,
    check_stability,
    enumerate_eta_extremal,
    enumerate_s_extremal,
    eta_extremal_family,
    find_subsum_certificate,
    rank_two_params,
    s_extremal_family,
    square_counterexample_report,
    verify_subsum_certificate,
)
from .groups import (
    Element,
    Group,
    QuotientMap,
    Subgroup,
    enumerate_subgroups,
    find_inductive_subgroup,
    make_group,
    parse_group,
    quotient,
    subgroup_generated_by,
)
from .invariants import (
    InvariantResult,
    PropertyDReport,
    TailReport,
    check_property_d,
    compute,
    compute_davenport,
    compute_dk,
    compute_eta,
    compute_s,
    detect_arithmetic_tail,
    formula_oracle,
    property_d_known,
)
from .search import Budget, SearchStats
from .sequences import Sequence

__all__ = [name for name in dir() if not name.startswith("_")]
