"""Property tests: packed rank keys order, divide, differentiate and re-pack
exactly as the (exponents, unknown) pairs they stand for."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.diffrank import rank_key  # noqa: E402
from diffdim.lindiff import _Keys, _repack  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=300, deadline=None)

layouts = st.builds(_Keys, st.integers(1, 3), st.integers(2, 7))


@st.composite
def derivatives(draw, keys, top=None):
    """(exponents, unknown) with every field at most ``top``, by default the
    largest that fits, 2^(width - 1) - 1; the order, one exponent and the
    unknown each reach it often."""
    top = keys.limit - 1 if top is None else top
    order = draw(st.one_of(st.just(top), st.integers(0, top)))
    cuts = sorted(draw(st.lists(st.integers(0, order), min_size=keys.m - 1, max_size=keys.m - 1)))
    xi = tuple(b - a for a, b in zip([0] + cuts, cuts + [order]))
    return xi, draw(st.one_of(st.just(keys.limit - 1), st.integers(1, keys.limit - 1)))


@st.composite
def below(draw, derivative):
    """A derivative of the same unknown whose exponents are all <= these."""
    xi, unknown = derivative
    return tuple(draw(st.integers(0, e)) for e in xi), unknown


@SETTINGS
@hypothesis.given(st.data())
def test_packed_order_is_rank_order(data):
    keys = data.draw(layouts)
    a, b = data.draw(derivatives(keys)), data.draw(derivatives(keys))
    ka, kb = keys.pack(*a), keys.pack(*b)
    assert (ka < kb, ka == kb) == (rank_key(a) < rank_key(b), rank_key(a) == rank_key(b))
    assert keys.unpack(ka) == a


@SETTINGS
@hypothesis.given(st.data())
def test_guard_bits_decide_division(data):
    keys = data.draw(layouts)
    key = data.draw(derivatives(keys))
    lead = data.draw(st.one_of(derivatives(keys), below(key)))
    divides = lead[1] == key[1] and all(a <= b for a, b in zip(lead[0], key[0]))
    difference = keys.pack(*key) - keys.pack(*lead)
    assert (not difference & keys.guards) == divides
    if divides:
        theta = tuple(b - a for a, b in zip(lead[0], key[0]))
        assert difference == keys.pack(theta, 0)


@SETTINGS
@hypothesis.given(st.data())
def test_d_j_is_one_addition(data):
    keys = data.draw(layouts)
    xi, unknown = data.draw(derivatives(keys, top=keys.limit - 2))
    j = data.draw(st.integers(0, keys.m - 1))
    shifted = tuple(e + (k == j) for k, e in enumerate(xi))
    key = keys.pack(xi, unknown) + keys.steps[j]
    assert key == keys.pack(shifted, unknown)
    assert keys.unpack(key) == (shifted, unknown)


@SETTINGS
@hypothesis.given(st.data())
def test_repacking_round_trips(data):
    keys = data.draw(layouts)
    wide = _Keys(keys.m, 2 * keys.width)
    terms = data.draw(st.lists(derivatives(keys), min_size=1, max_size=6, unique=True))
    row = {keys.pack(*d): c for c, d in enumerate(terms, 1)}
    there = _repack(row, keys, wide)
    assert {wide.unpack(k): c for k, c in there.items()} == dict(zip(terms, row.values()))
    assert [there[k] for k in sorted(there)] == [row[k] for k in sorted(row)]
    assert _repack(there, wide, keys) == row
