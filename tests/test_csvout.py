"""CSV writer: floats come out as Python's '%.17g', byte for byte.

The formatter is checked against '%.17g' itself on random bit patterns and
on the values where a fixed-precision conversion goes wrong: zeros,
subnormals, non-finite values, powers of ten and their neighbours, 17-digit
roundings that carry into a new leading digit, and exact 17-digit ties,
which '%.17g' rounds half to even.
"""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfspectral import csvout


def percent_g(values):
    """'%.17g' of each value, one per line: the reference text."""
    return "".join("%.17g\n" % v for v in values).encode()


def near_power_of_ten(k, steps):
    """The double nearest 10^k, moved by `steps` units in the last place."""
    x = float(f"1e{k}")
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def ties(draw):
    """M / 2^q with M odd and M 5^q of 18 digits: its exact decimal ends in
    a 5 right after the 17th significant digit."""
    q = draw(st.integers(2, 25))
    lo = -(-10 ** 17 // 5 ** q)
    hi = min(10 ** 18 // 5 ** q, 2 ** 53) - 1
    M = draw(st.integers(lo, hi)) | 1
    return draw(st.sampled_from([1, -1])) * M / 2 ** q


bit_patterns = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                            5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308, 1e16, 1e17, 1e-5, 1e-4])
subnormals = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
powers = st.builds(near_power_of_ten, st.integers(-323, 308),
                   st.integers(-2, 2))
carries = st.integers(-300, 308).map(
    lambda k: float(f"9.9999999999999999e{k}"))
values = st.one_of(bit_patterns, specials, subnormals, powers, carries,
                   ties(), st.floats())


@settings(max_examples=400, deadline=None)
@given(st.lists(values, min_size=1, max_size=64))
@example([1000000000000000.25, 1000000000000000.75, 3 / 2 ** 25])
@example([9.9999999999999999e22, -9.9999999999999999e-5, 1e23])
def test_floats_match_percent_g(xs):
    assert csvout.format_rows([np.array(xs)]) == percent_g(xs)


def test_random_bit_patterns_match_percent_g():
    bits = np.random.default_rng(7).integers(0, 2 ** 64, size=200_000,
                                             dtype=np.uint64)
    x = bits.view(np.float64)
    assert csvout.format_rows([x]) == percent_g(x.tolist())


def test_every_power_of_ten_and_its_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    carry = [float(f"9.9999999999999999e{k}") for k in range(-323, 308)]
    x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf),
                        carry])
    x = np.concatenate([x, -x])
    assert csvout.format_rows([x]) == percent_g(x.tolist())


def test_write_csv_joins_blocks_and_passes(tmp_path, monkeypatch):
    # a pass of 7 floats splits each block into several
    monkeypatch.setattr(csvout, "CHUNK", 7)
    rng = np.random.default_rng(3)
    n = np.arange(40)
    labels = [f"{i};{i % 3}" if i % 5 else "" for i in range(40)]
    u = rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30, 40)
    blocks = [(n[:25], np.array(labels[:25], dtype="S"), u[:25]),
              (n[25:], labels[25:], u[25:]),
              ([], [], [])]
    path = tmp_path / "table.csv"
    csvout.write_csv(path, ["n", "m_tuple", "u"], blocks)
    want = "n,m_tuple,u\n" + "".join(
        f"{i},{labels[i]},{u[i]:.17g}\n" for i in range(40))
    assert path.read_bytes() == want.encode()
