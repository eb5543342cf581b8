"""Simulation and Monte Carlo verification toolkit for marked renewal
processes and renewal cluster point processes."""

__version__ = "0.1.0"

from .clusters import (
    CumulativeStepCluster,
    EmptyCluster,
    FixedOffsetsCluster,
    GatedNormalCluster,
    cluster_radius,
)
from .coupling import (
    AgreementReport,
    CouplingRun,
    post_coupling_agreement,
    rademacher_flip_test,
    run_coupling,
)
from .estimators import (
    ExperimentReport,
    RenewalFunctionTable,
    StepFunction,
    bartlett_lewis_recurrence_cdf,
    bartlett_lewis_void_probability,
    estimate_elementary_ratio,
    estimate_forward_recurrence_cdf,
    estimate_key_renewal,
    estimate_renewal_function,
    estimate_void_probability,
    estimate_window_mean,
    key_renewal_limit,
    theoretical_blackwell_limit,
)
from .laws import Exponential, FixedCount, GammaLaw, Mixture, PoissonCount, Uniform
from .patterns import (
    MarkedArrival,
    MarkedPattern,
    PointPattern,
    count_in,
    flatten,
    restrict,
    shift,
)
from .process import (
    ProcessSpec,
    bartlett_lewis_preset,
    gated_cluster_preset,
    guard_band,
    sample_cluster,
    sample_delayed_marked_renewal,
    sample_interarrival,
    sample_renewal_cluster_process,
)
from .stationary import (
    TwoSidedMarkedPattern,
    sample_size_biased_gaps,
    sample_stationary_cluster_process,
    sample_stationary_marked_renewal,
)
from .stats import KsReport, two_sample_ks
from .streams import RngStream, stream_for
