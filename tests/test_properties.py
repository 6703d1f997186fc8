"""Property tests of the walk operator over random 1D Morse polynomials.

A Morse polynomial is drawn through its critical points: phi' = a (x - r_1)
... (x - r_k) with k odd, distinct simple roots and a > 0, so phi is
confining and every critical point is nondegenerate.  Examples are
derandomized, so every run checks the same potentials.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwalk import gridop, potentials

BOX = potentials.Box.from_pairs([(-2.0, 2.0)])
GRID = gridop.build_grid(BOX, 0.01)
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


@st.composite
def morse_polynomials(draw):
    if draw(st.booleans()):
        roots = [draw(st.floats(-1.0, 1.0))]
    else:
        first = draw(st.floats(-1.5, -0.3))
        gaps = [draw(st.floats(0.2, 0.9)) for _ in range(2)]
        roots = [first, first + gaps[0], first + gaps[0] + gaps[1]]
    scale = draw(st.floats(0.5, 3.0))
    # integrate a * prod (x - r) term by term; drop the constant
    dcoef = scale * np.poly(roots)[::-1]          # ascending powers
    return potentials.polynomial(
        [((p + 1,), c / (p + 1)) for p, c in enumerate(dcoef)])


def _walk(spec, h):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gridop.BoundaryMassWarning)
        return gridop.assemble_walk(spec, GRID, h)


@PROPERTY_SETTINGS
@given(spec=morse_polynomials(), h=st.floats(0.1, 0.3))
def test_walk_operator_symmetric(spec, h):
    s = _walk(spec, h).tocsr()
    assert (s - s.T).count_nonzero() == 0


@PROPERTY_SETTINGS
@given(spec=morse_polynomials(), h=st.floats(0.1, 0.3))
def test_walk_rows_stochastic(spec, h):
    rows = gridop.stochastic_row_sums(_walk(spec, h))
    assert np.max(np.abs(rows - 1.0)) <= 1e-14
