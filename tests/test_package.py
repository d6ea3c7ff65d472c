import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psqlab

# each public name of the package and the engine module that defines it
PUBLIC = {
    "PrimeSubsetSpec": "primes",
    "sieve": "primes",
    "WeightedSequence": "wtrick",
    "build_context": "wtrick",
    "f_sequence": "wtrick",
    "nu_sequence": "wtrick",
    "exhaustive_lemma_check": "sumsets",
    "dft_at": "expsums",
    "dft_grid": "expsums",
    "gauss_sum": "expsums",
    "indicator_transform_grid": "expsums",
    "pseudorandom_sup": "expsums",
    "s_closed": "expsums",
    "s_direct": "expsums",
    "lq_moment": "restriction",
    "count_representations": "representations",
    "theorem_experiment": "representations",
    "transfer_witness": "representations",
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_is_the_engine_modules_own_object(name):
    engine = importlib.import_module(f"psqlab.{PUBLIC[name]}")
    namespace = {}
    exec(f"from psqlab import {name}", namespace)
    assert getattr(psqlab, name) is getattr(engine, name)
    assert namespace[name] is getattr(engine, name)
    assert name in dir(psqlab)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        psqlab.no_such_name
    with pytest.raises(ImportError):
        exec("from psqlab import no_such_name", {})


def test_import_loads_no_engine_until_a_name_is_read():
    # pytest's own process holds every module: only a fresh one shows this
    script = (
        "import sys, psqlab\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('psqlab.'))\n"
        "assert loaded() == [], loaded()\n"
        "psqlab.lq_moment\n"
        "assert 'psqlab.restriction' in loaded() and 'psqlab.expsums' not in loaded(), loaded()\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
