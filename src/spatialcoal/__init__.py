"""Simulation and numerical verification toolkit for multiple-merger
coalescents whose lineages perform Brownian motion on the flat torus."""

from .forests import DecoratedForest, Forest, SpaceDecoration, TimeDecoration
from .forward import (
    OffspringLaw,
    cannings_p_rates,
    cannings_simulate,
    extract_genealogy,
    lookdown_simulate,
)
from .kernels import SpatialConfig, gauss_kernel, torus_kernel
from .measures import (
    LambdaMeasure,
    RateTable,
    XiMeasure,
    build_rate_table,
    check_consistency,
    lambda_rate,
    xi_rate,
)
from .normalization import normalization_N, sample_mu
from .partitions import MergerSignature, Partition, count_mergers
from .reversal import resample_levels, simulate_reversal
from .sampler import ExactCoalescentSampler, sde_sample
from .stats import ks_two_sample

__version__ = "0.1.0"
