"""Named streams and the per-tick draw forms."""

from hypothesis import given, settings, strategies as st

from v2xloop.rng import stream, uniform

_bound = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), a=_bound, b=_bound, sigma=st.floats(0.0, 10.0))
def test_the_cheap_draws_equal_generator_uniform_and_normal(seed, a, b, sigma):
    low, high = min(a, b), max(a, b)
    ref, gen = stream(seed, "sense"), stream(seed, "sense")
    want = [ref.uniform(), ref.uniform(low, high), *ref.normal(0.0, sigma, size=2),
            ref.random()]
    got = [gen.random(), uniform(gen, low, high), *gen.normal(0.0, sigma, size=2).tolist(),
           gen.random()]
    # the same draws, with the same bits, and the stream left in the same place
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    assert all(type(v) is float for v in got)
