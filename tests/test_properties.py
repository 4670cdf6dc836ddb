"""Property tests: tape ops against straightforward reference implementations."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lgrin import autodiff as ad

# few distinct values, both zero signs: ties are common and some of them
# are between 0.0 and -0.0, which compare equal but differ in their bits
VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0)
UPSTREAM = (1.0, -0.0, 0.25, -1.5, 3.0)


def reference_neighborhood_max(hv, mask, g):
    """Per-node argmax loop: output, gradient for upstream g, kink margin."""
    m, f = hv.shape
    out = np.empty_like(hv)
    arg = np.empty((m, f), dtype=np.intp)
    cols = np.arange(f)
    margin = math.inf
    for i in range(m):
        rows = np.flatnonzero(mask[i])
        sub = hv[rows]
        k = sub.argmax(axis=0)
        out[i] = sub[k, cols]
        arg[i] = rows[k]
        if rows.size > 1:
            margin = min(margin, ad._distinct_top_gap(sub))
    gh = np.zeros_like(hv)
    for i in range(m):
        gh[arg[i], cols] += g[i]
    return out, gh, margin


@st.composite
def max_cases(draw):
    m = draw(st.integers(1, 12))
    f = draw(st.integers(1, 6))
    hv = draw(hnp.arrays(np.float64, (m, f), elements=st.sampled_from(VALUES)))
    mask = draw(hnp.arrays(np.bool_, (m, m)))
    np.fill_diagonal(mask, True)
    g = draw(hnp.arrays(np.float64, (m, f), elements=st.sampled_from(UPSTREAM)))
    return hv, mask, g


def taped(make_input, hv, mask, g, track_kinks):
    """Output, gradient (None if h is constant) and tape of sum(nmax(h) * g)."""
    h = make_input(hv)
    with ad.GradTape(track_kinks=track_kinks) as tape:
        out = ad.neighborhood_max(h, mask)
        loss = ad.sum_all(ad.mul(out, ad.constant(g)))
    grads = ad.backward(loss, tape)
    return out.values, grads.get(h), tape


@settings(max_examples=300, deadline=None, derandomize=True)
@given(max_cases())
def test_neighborhood_max_matches_per_node_argmax(case):
    hv, mask, g = case
    ref_out, ref_grad, ref_margin = reference_neighborhood_max(hv, mask, g)

    for make_input in (ad.constant, ad.parameter):
        assert ad.neighborhood_max(make_input(hv), mask).values.tobytes() \
            == ref_out.tobytes()

    for track_kinks in (False, True):
        out, grad, tape = taped(ad.constant, hv, mask, g, track_kinks)
        assert out.tobytes() == ref_out.tobytes()
        assert grad is None
        if track_kinks:
            assert tape.max_margin == ref_margin

        out, grad, tape = taped(ad.parameter, hv, mask, g, track_kinks)
        assert out.tobytes() == ref_out.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        if track_kinks:
            assert tape.max_margin == ref_margin
