"""Toolkit for representing integers as sums of squares of primes drawn from
dense prime subsets: progression-weighted majorants, local exponential-sum
factors, residue sumset cover verification, restriction statistics, and an
end-to-end desk-scale representation experiment."""

__version__ = "0.1.0"

from .primes import PrimeSubsetSpec, sieve
from .wtrick import WeightedSequence, build_context, f_sequence, nu_sequence
from .sumsets import exhaustive_lemma_check
from .expsums import (
    dft_at,
    dft_grid,
    gauss_sum,
    indicator_transform_grid,
    pseudorandom_sup,
    s_closed,
    s_direct,
)
from .restriction import lq_moment
from .representations import count_representations, theorem_experiment, transfer_witness
