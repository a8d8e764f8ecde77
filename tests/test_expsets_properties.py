"""Property tests: the fibre count of ``volume`` equals a plain count over
every lattice point, and the count read off the Hilbert numerator equals
the fibre count."""

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


def brute_volume(exp_set, s):
    """Test every point of order <= s against every generator."""

    def points(m, budget):
        if m == 0:
            yield ()
            return
        for head in range(budget + 1):
            for rest in points(m - 1, budget - head):
                yield (head,) + rest

    return sum(
        not any(all(a >= b for a, b in zip(pt, g)) for g in exp_set.generators)
        for pt in points(exp_set.m, s)
    )


# generators as given: repeats and dominated ones kept, the zero vector allowed
raw_sets = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 7)] * m), max_size=8), st.integers(0, 3)
    ).map(lambda t: ExponentSet(m, tuple(t[0] + t[0][: t[1]])))
)


@SETTINGS
@hypothesis.given(raw_sets, st.integers(0, 10))
@hypothesis.example(ExponentSet(3, ()), 10)
@hypothesis.example(ExponentSet(4, ((0, 0, 0, 0), (1, 2, 0, 1))), 10)
@hypothesis.example(ExponentSet(2, ((1, 3), (1, 3), (2, 5), (0, 4))), 10)
@hypothesis.example(ExponentSet(2, ((10**30, 0), (1, 10**30), (2, 2))), 10)
def test_volume_equals_brute_force_count(exp_set, s):
    assert volume(exp_set, s) == brute_volume(exp_set, s)
