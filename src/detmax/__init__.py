"""Composable coresets for constrained determinant maximization.

Pick a subset of vectors in R^d maximizing the (squared) volume they span,
subject to a cardinality, partition, or laminar matroid constraint.  Each
machine summarizes its share of the data with a small coreset built from
greedy-seeded local search; the union of the per-machine coresets provably
retains a solution within a factor (zeta*ell)^(2*ell) of the global optimum,
where ell = min(k, d).  Everything works in log space so M-scaled
adversarial inputs are exact rather than overflowing.

Typical use::

    import numpy as np
    from detmax import (InstanceSpec, random_instance, build_coreset,
                        run_distributed, solve_on_coreset)

    spec = InstanceSpec("random", 500, 6, 9,
                        {"type": "partition", "caps": [3, 3, 3]}, seed=7)
    points, constraint = random_instance(spec)
    report = run_distributed(points, constraint, m_parts=4, seed=0)
    print(report.ratio_log, report.bound_log)
"""

from .errors import (
    GuardExceededError,
    InstanceFormatError,
    InvariantError,
    MatrixInvariantError,
    PreconditionError,
    RejectionSamplingError,
    SwapLimitError,
    UnknownIdError,
)
from .geometry import (
    MAX_COORD,
    MAX_DIM,
    UNLABELED,
    PointSet,
    load_pointset,
    log_det_psd,
    logdet_psd_batch,
    merge_pointsets,
)
from .objective import (
    ENUMERATION_CAP,
    REGIME_HIGHK,
    REGIME_LOWK,
    WeightProfile,
    logsumexp,
    mu,
    mu_cauchy_binet,
    mu_hat_lowdim,
    mu_tilde,
    mu_tilde_by_enumeration,
    nu,
    objective_value,
    regime_of,
)
from .matroid import (
    CardinalityConstraint,
    DEFAULT_ORACLE_CAP,
    LaminarConstraint,
    ORACLE_CAP_ENV,
    PartitionConstraint,
    constraint_from_json,
    constraint_to_json,
    cover_number,
    enumerate_bases,
    is_base,
    is_independent,
    oracle_cap,
)
from .localsearch import (
    DEFAULT_ZETA,
    LocalOptResult,
    greedy_init,
    local_opt,
    verify_local_opt,
)
from .coreset import (
    CoresetResult,
    LaminarNodeCoreset,
    PeelingCoreset,
    build_coreset,
    compose,
    coreset_from_json,
    coreset_ids_from_json,
    coreset_to_json,
    find_laminar_exchange,
    find_value_preserving_exchange,
    laminar_coreset,
    partition_coreset,
    peeling_coreset,
)
from .solver import SolveResult, brute_force_opt, greedy_constrained, solve_on_coreset
from .instances import (
    HardInstance,
    InstanceSpec,
    hard_instance,
    instance_to_json,
    lb_high_dim_instance,
    lb_low_dim_instance,
    load_instance,
    random_instance,
)
from .harness import RunReport, bench_scaling, run_distributed
from .properties import run_suites
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "CardinalityConstraint",
    "CoresetResult",
    "DEFAULT_ORACLE_CAP",
    "DEFAULT_ZETA",
    "ENUMERATION_CAP",
    "GuardExceededError",
    "HardInstance",
    "InstanceFormatError",
    "InstanceSpec",
    "InvariantError",
    "LaminarConstraint",
    "LaminarNodeCoreset",
    "LocalOptResult",
    "MAX_COORD",
    "MAX_DIM",
    "MatrixInvariantError",
    "ORACLE_CAP_ENV",
    "PartitionConstraint",
    "PeelingCoreset",
    "PointSet",
    "PreconditionError",
    "REGIME_HIGHK",
    "REGIME_LOWK",
    "RejectionSamplingError",
    "RunReport",
    "SolveResult",
    "SwapLimitError",
    "UNLABELED",
    "UnknownIdError",
    "WeightProfile",
    "bench_scaling",
    "brute_force_opt",
    "build_coreset",
    "compose",
    "constraint_from_json",
    "constraint_to_json",
    "coreset_from_json",
    "coreset_ids_from_json",
    "coreset_to_json",
    "cover_number",
    "enumerate_bases",
    "find_laminar_exchange",
    "find_value_preserving_exchange",
    "greedy_constrained",
    "greedy_init",
    "hard_instance",
    "instance_to_json",
    "is_base",
    "is_independent",
    "laminar_coreset",
    "lb_high_dim_instance",
    "lb_low_dim_instance",
    "load_instance",
    "load_pointset",
    "local_opt",
    "log_det_psd",
    "logdet_psd_batch",
    "logsumexp",
    "main",
    "merge_pointsets",
    "mu",
    "mu_cauchy_binet",
    "mu_hat_lowdim",
    "mu_tilde",
    "mu_tilde_by_enumeration",
    "nu",
    "objective_value",
    "oracle_cap",
    "partition_coreset",
    "peeling_coreset",
    "random_instance",
    "regime_of",
    "run_distributed",
    "run_suites",
    "solve_on_coreset",
    "verify_local_opt",
]
