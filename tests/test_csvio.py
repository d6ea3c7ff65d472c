import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import as_sequence, count_line
from psqlab._csvio import _CHUNK_ROWS, write_csv
from psqlab.expsums import FourierGrid
from psqlab.primes import PrimeSubsetSpec
from psqlab.representations import ReprCountTable, count_representations
from psqlab.restriction import dyadic_profile

ODD_FLOATS = [-0.0, 5e-324, 1e22, float("nan"), float("inf"), -1.5, 0.1, 2.0**-1074 * 3]
BIG_INTS = [0, 1, 2**63, 2**63 + 1, 2**64, 3**50, 2**70 - 1]


def reference_bytes(header, rows) -> bytes:
    """What csv.writer writes for these rows, as the sidecar writers once did."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def written(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestWriteCsv:
    def test_big_ints_and_odd_floats(self, tmp_path):
        n = len(BIG_INTS) * len(ODD_FLOATS)
        ints = np.array(BIG_INTS * len(ODD_FLOATS), dtype=object)
        floats = np.array(ODD_FLOATS * len(BIG_INTS))
        write_csv(tmp_path / "a.csv", ["n", "x"], [ints, floats])
        want = reference_bytes(
            ["n", "x"], ([int(ints[i]), repr(float(floats[i]))] for i in range(n))
        )
        assert written(tmp_path / "a.csv") == want
        assert b"\r\n" in want and b"9223372036854775808," in want

    @pytest.mark.parametrize("rows", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
    def test_chunk_boundaries(self, tmp_path, rows):
        k = np.arange(rows)
        x = np.sin(k * 0.37) * 1e3
        write_csv(tmp_path / "b.csv", ["k", "x"], [k, x])
        want = reference_bytes(["k", "x"], ([i, repr(float(x[i]))] for i in range(rows)))
        assert written(tmp_path / "b.csv") == want

    def test_empty_body(self, tmp_path):
        write_csv(tmp_path / "c.csv", ["k", "re", "im"], [[], [], []])
        assert written(tmp_path / "c.csv") == b"k,re,im\r\n"
        write_csv(tmp_path / "d.csv", ["k"], [])
        assert written(tmp_path / "d.csv") == b"k\r\n"


FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.0**-1074 * 7, 2.0**-1022 * 0.5, 1e16, -1e16, 1e-5, 1e22]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
COLUMN_POOLS = st.one_of(
    st.tuples(st.just(np.int64), st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8)),
    st.tuples(st.just(object), st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=8)),
    st.tuples(st.just(np.float64), st.lists(FLOATS, min_size=1, max_size=8)),
)


class TestWriteCsvProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        pools=st.lists(COLUMN_POOLS, min_size=1, max_size=3),
        rows=st.one_of(
            st.sampled_from([0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3]),
            st.integers(0, 3 * _CHUNK_ROWS),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(pools=[(object, [2**63, -(2**70)]), (np.float64, [-0.0, 5e-324]), (np.int64, [-(2**63)])],
             rows=_CHUNK_ROWS + 1, seed=0)
    def test_equals_csv_writer(self, tmp_path_factory, pools, rows, seed):
        # 1-3 columns of int64, of object ints past 2^63 and of floats with
        # signed zeros, subnormals, nan and infinities, each drawn from its pool
        rng = np.random.default_rng(seed)
        columns = [np.array(pool, dtype=dtype)[rng.integers(len(pool), size=rows)] for dtype, pool in pools]
        header = [f"c{j}" for j in range(len(columns))]
        path = tmp_path_factory.mktemp("csv") / "h.csv"
        write_csv(path, header, columns)
        cell = [(lambda x: repr(float(x))) if c.dtype == np.float64 else int for c in columns]
        want = reference_bytes(header, ([f(c[i]) for f, c in zip(cell, columns)] for i in range(rows)))
        assert written(path) == want


class TestSidecars:
    def test_fourier_grid(self, tmp_path):
        values = np.array([complex(a, b) for a in ODD_FLOATS for b in ODD_FLOATS[::-1]])
        FourierGrid(N=len(values), K=1, values=values).to_csv(tmp_path / "g.csv")
        want = reference_bytes(
            ["k", "re", "im"],
            ([k, repr(v.real), repr(v.imag)] for k, v in enumerate(values.tolist())),
        )
        assert written(tmp_path / "g.csv") == want

    def test_counts_object_dtype(self, tmp_path):
        counts = np.array([0, 2**70, 0, 5, 2**64 + 1, 0, 2**63], dtype=object)
        ReprCountTable(limit=len(counts) - 1, start=0, step=1, values=counts).to_csv(tmp_path / "o.csv")
        want = reference_bytes(
            ["n", "count"], ([n, int(c)] for n, c in enumerate(counts) if c)
        )
        assert written(tmp_path / "o.csv") == want
        assert b"1180591620717411303424" in want

    def test_counts_int64(self, tmp_path):
        table = count_representations(3000, 3, PrimeSubsetSpec.all_primes())
        assert table.values.dtype == np.int64
        table.to_csv(tmp_path / "c.csv")
        want = reference_bytes(
            ["n", "count"], ([n, int(c)] for n, c in enumerate(count_line(table)) if c)
        )
        assert written(tmp_path / "c.csv") == want

    def test_dyadic_profile(self, tmp_path):
        arr = np.zeros(512)
        arr[[3, 17, 40, 41, 300]] = [1.0, 2.5, 0.25, 7.0, 1e-3]
        profile = dyadic_profile(as_sequence(arr))
        profile.to_csv(tmp_path / "l.csv")
        want = reference_bytes(
            ["u", "count", "chebyshev_bound"],
            (
                [repr(u), c, repr(b)]
                for u, c, b in zip(profile.levels, profile.counts, profile.chebyshev_bound)
            ),
        )
        assert written(tmp_path / "l.csv") == want
