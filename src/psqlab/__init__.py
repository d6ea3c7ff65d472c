"""Toolkit for representing integers as sums of squares of primes drawn from
dense prime subsets: progression-weighted majorants, local exponential-sum
factors, residue sumset cover verification, restriction statistics, and an
end-to-end desk-scale representation experiment.

The public names below are imported from their engine module on first
access (PEP 562), so importing psqlab or one command's modules loads no
other engine."""

__version__ = "0.1.0"

_ENGINES = {
    "primes": ("PrimeSubsetSpec", "sieve"),
    "wtrick": ("WeightedSequence", "build_context", "f_sequence", "nu_sequence"),
    "sumsets": ("exhaustive_lemma_check",),
    "expsums": ("dft_at", "dft_grid", "gauss_sum", "indicator_transform_grid",
                "pseudorandom_sup", "s_closed", "s_direct"),
    "restriction": ("lq_moment",),
    "representations": ("count_representations", "theorem_experiment", "transfer_witness"),
}
_OWNER = {name: module for module, names in _ENGINES.items() for name in names}


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_OWNER])
