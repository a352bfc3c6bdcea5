"""Simulation and numerical verification toolkit for multiple-merger
coalescents whose lineages perform Brownian motion on the flat torus."""

import numpy as np

from .forests import DecoratedForest, Forest, SpaceDecoration, TimeDecoration
from .forward import (
    OffspringLaw,
    cannings_p_rates,
    cannings_simulate,
    extract_genealogy,
    lookdown_simulate,
    trace_ancestry,
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
from .sampler import ExactCoalescentSampler
from .stats import ks_two_sample

__version__ = "0.1.0"

# glibc maps every block of 128 KiB or more afresh until freeing a mapped
# block raises its dynamic mmap threshold (mallopt(3), M_MMAP_THRESHOLD).
# Without this one freed 1 MiB block, each of the sampler's ~270 KB Fourier
# temporaries is mapped and faulted in anew: `check markov-resample
# --replicates 150` takes ~124,000 minor page faults instead of ~600, and
# 0.2-0.3 s more system time.
np.empty(1 << 20, dtype=np.uint8)
