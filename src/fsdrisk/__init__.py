"""Risk functionals on finite loss distributions.

The package is organized around the dominance order on compactly
supported distributions: dist holds the lattice, kernels the sup- and
inf-form evaluation, measures the named functionals, engine the
constructive recovery of kernels from black-box measures, harness the
randomized axiom checks, and jsonio plus cli the file formats and
command line on top.
"""

from .dist import (
    MASS_TOL,
    ContinuousCDF,
    DiscreteDist,
    discretize,
    fsd_join,
    fsd_leq,
    fsd_meet,
    join_decomposition,
    point_mass,
    two_point,
)
from .engine import (
    GATE_SEED,
    PsiGrid,
    RecoveredLambda,
    RepresentationReport,
    StabilityGateError,
    construct_psi,
    h_threshold,
    recover_lambda,
    two_point_eval,
    verify_representation,
)
from .harness import (
    PairWitness,
    PointWitness,
    ProbeWitness,
    SamplerConfig,
    StabilityReport,
    check_fsd_consistency,
    check_max_stability,
    check_min_stability,
    check_nondegeneracy,
    check_semicontinuity_probe,
    dominating_variant,
    ext_gap,
    find_stability_counterexample,
    sample_distribution,
)
from .jsonio import (
    InputError,
    parse_distribution_obj,
    parse_kernel_obj,
    parse_measure_obj,
    parse_psi_grid_obj,
    psi_grid_to_obj,
    report_to_json,
    superlevel_rows,
    write_superlevel_csv,
)
from .kernels import (
    BenchmarkLossKernel,
    DualBenchmarkKernel,
    DualGridKernel,
    DualLambdaKernel,
    DualPinnedKernel,
    DualVarKernel,
    GridKernel,
    LambdaKernel,
    PhiKernel,
    PinnedKernel,
    PsiKernel,
    VarKernel,
    inf_phi_eval,
    sup_psi_eval,
)
from .measures import (
    RiskMeasure,
    affine_benchmark,
    benchmark_loss_measure,
    benchmark_loss_var,
    expected_shortfall,
    expected_shortfall_measure,
    lambda_quantile,
    lambda_quantile_dual,
    lambda_quantile_measure,
    pinned_measure,
    transform_measure,
    var,
    var_measure,
)
from .steps import DEC, INC, MonotoneStep

__version__ = "0.1.0"
