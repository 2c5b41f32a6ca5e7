"""The CSV writers' number kernel against Python's own ``%.17g``, byte for byte."""

import numpy as np
import pytest

from qmasslab import scenarios

#: Values per kernel call in the sweep; well above any writer's block.
CHUNK = 1 << 16


def _decades(rng, per_decade):
    """Log-uniform values in every decade from 1e-6 to 1e18."""
    return np.concatenate([rng.uniform(1.0, 10.0, per_decade) * 10.0**e for e in range(-6, 18)])


def _powers_of_ten():
    """10**e for -6 <= e <= 18 and the three floats on either side of each."""
    tens = np.array([float(f"1e{e}") for e in range(-6, 19)])
    near = [tens]
    for toward in (0.0, np.inf):
        step = tens
        for _ in range(3):
            step = np.nextafter(step, toward)
            near.append(step)
    return np.concatenate(near)


def _integers(rng, count):
    """Integer-valued floats, small and up to 1e17, with 100 and 1e15."""
    small = np.arange(0.0, 1e5)
    large = np.floor(10.0 ** rng.uniform(0.0, 17.0, count))
    return np.concatenate([small, large, [100.0, 1e15, 2.0**53, 2.0**53 + 2.0]])


def _ties(rng, per_decade):
    """Exact ties of the 17th digit: odd n / 2**e with 18 significant digits.

    In [10**j, 10**(j + 1)), n / 2**(17 - j) has 17 - j fraction digits, the
    last a 5, so 18 in all; n stays below 2**53 up to j = 14.
    """
    ties = []
    for j in range(-6, 15):
        e = 17 - j
        lo, hi = 10.0**j * 2.0**e, 10.0 ** (j + 1) * 2.0**e
        n = rng.integers(int(lo) + 1, int(hi), per_decade) | 1
        ties.append(np.ldexp(n.astype(float), -e))
    return np.concatenate(ties)


def _specials(rng, count):
    """Zeros, NaN, infinities, subnormals, the largest float and raw bit patterns."""
    fixed = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
             1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e17]
    subnormal = rng.integers(1, 2**52, count).view(np.float64)
    bits = rng.integers(0, 2**63, count, dtype=np.uint64).view(np.float64)
    return np.concatenate([fixed, subnormal, bits])


def _sweep():
    rng = np.random.default_rng(20211019)
    values = np.concatenate([
        rng.random(250_000),
        _decades(rng, 40_000),
        _powers_of_ten(),
        _integers(rng, 50_000),
        _ties(rng, 10_000),
        _specials(rng, 50_000),
    ])
    # Both signs of every value, NaN included.
    return np.concatenate([values, -values])


def test_kernel_matches_format_byte_for_byte():
    values = _sweep()
    assert len(values) >= 3_000_000
    a = np.abs(values)
    one_at_a_time = 0
    for start in range(0, len(values), CHUNK):
        chunk = values[start:start + CHUNK]
        words = np.empty((10, len(chunk)), "<u4")
        one_at_a_time += scenarios._render(chunk, words)
        text = words.T.tobytes().translate(None, b"\0")
        expected = "," + ",".join([format(v, ".17g") for v in chunk.tolist()])
        assert text == expected.encode()
    # Every value of the fixed-notation range takes the vectorized path; only
    # finite non-zero values outside it are formatted one at a time.
    outside = np.isfinite(values) & (a != 0) & ((a < 1e-4) | (a >= 1e16))
    assert one_at_a_time == np.count_nonzero(outside)


@pytest.mark.parametrize("value, text", [
    (100.0, b"100"), (1e15, b"1000000000000000"), (0.5, b"0.5"), (-0.0, b"-0"),
    (float("-nan"), b"nan"), (-np.inf, b"-inf"), (1e-4, b"0.0001"),
    (0.1, b"0.10000000000000001"), (-123.25, b"-123.25"), (1e16, b"10000000000000000"),
    (5e-324, b"4.9406564584124654e-324"), (1.7976931348623157e308, b"1.7976931348623157e+308"),
])
def test_texts_of_fixed_values(value, text):
    assert scenarios._texts(np.array([value])) == [text]


def test_texts_of_no_values():
    assert scenarios._texts(np.array([])) == []
