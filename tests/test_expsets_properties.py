"""Property test: the count read off the Hilbert numerator equals the
count by enumeration."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.expsets import ExponentSet, _numerator_volume, volume  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=200, deadline=None)

exp_sets = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(*[st.integers(0, 6)] * m), max_size=8).map(
        lambda gens: ExponentSet(m, tuple(gens))
    )
)


@SETTINGS
@hypothesis.given(exp_sets, st.integers(0, 8))
def test_numerator_count_equals_volume(exp_set, s):
    assert _numerator_volume(exp_set, s) == volume(exp_set, s)
