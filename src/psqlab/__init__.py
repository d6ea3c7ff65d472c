"""Toolkit for representing integers as sums of squares of primes drawn from
dense prime subsets: progression-weighted majorants, local exponential-sum
factors, residue sumset cover verification, restriction statistics, and an
end-to-end desk-scale representation experiment."""

__version__ = "0.1.0"

from .arith import Factorization, divisor_count, euler_phi, factorize, mod_inverse
from .primes import PrimeSubsetSpec, PrimeTable, empirical_density, sieve, subset_members
from .wtrick import (
    DensityTable,
    WContext,
    WeightedSequence,
    build_context,
    delta_table,
    f_sequence,
    nu_sequence,
    select_residues,
)
from .sumsets import (
    CoverReport,
    LemmaReport,
    exhaustive_lemma_check,
    sumset,
    verify_cover,
)
from .expsums import (
    ArcPartition,
    FourierGrid,
    LocalFactor,
    arc_partition,
    compare_major,
    dft_at,
    dft_grid,
    gauss_sum,
    indicator_transform_grid,
    major_arc_model,
    minor_arc_scan,
    pseudorandom_sup,
    s_closed,
    s_direct,
)
from .restriction import (
    LevelSetCurve,
    MomentReport,
    dyadic_profile,
    level_sets,
    lq_moment,
    pair_difference_counts,
)
from .representations import (
    ExperimentReport,
    ReprCountTable,
    ReprWitness,
    count_representations,
    lambda_threshold,
    theorem_experiment,
    transfer_witness,
)
