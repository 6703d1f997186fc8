"""Property tests of the walk operator and the landscape labeling over
random 1D Morse polynomials.

A Morse polynomial is drawn through its critical points: phi' = a (x - r_1)
... (x - r_k) with k odd, distinct simple roots and a > 0, so phi is
confining and every critical point is nondegenerate.  Examples are
derandomized, so every run checks the same potentials.
"""


import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ballwalk import gridop, landscape, potentials

BOX = potentials.Box.from_pairs([(-2.0, 2.0)])
GRID = gridop.build_grid(BOX, 0.01)
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


@st.composite
def morse_roots(draw):
    """Sorted simple roots of phi' (one or three) and its leading coefficient."""
    if draw(st.booleans()):
        roots = [draw(st.floats(-1.0, 1.0))]
    else:
        first = draw(st.floats(-1.5, -0.3))
        gaps = [draw(st.floats(0.2, 0.9)) for _ in range(2)]
        roots = [first, first + gaps[0], first + gaps[0] + gaps[1]]
    return roots, draw(st.floats(0.5, 3.0))


def morse_polynomial(roots, scale):
    # integrate a * prod (x - r) term by term; drop the constant
    dcoef = scale * np.poly(roots)[::-1]          # ascending powers
    return potentials.polynomial(
        [((p + 1,), c / (p + 1)) for p, c in enumerate(dcoef)])


def morse_polynomials():
    return morse_roots().map(lambda drawn: morse_polynomial(*drawn))


def _walk(spec, h):
    return gridop.assemble_walk(gridop.sample(spec, GRID), GRID, h)


@PROPERTY_SETTINGS
@given(spec=morse_polynomials(), h=st.floats(0.1, 0.3))
def test_walk_operator_symmetric(spec, h):
    s = _walk(spec, h).tocsr()
    assert (s - s.T).count_nonzero() == 0


@PROPERTY_SETTINGS
@given(spec=morse_polynomials(), h=st.floats(0.1, 0.3))
def test_walk_rows_stochastic(spec, h):
    rows = oracles.walk_row_sums(_walk(spec, h))
    assert np.max(np.abs(rows - 1.0)) <= 1e-14


LABEL_DX = 5e-4


def oscillation_bound(spec, critical):
    """Half of dx times the largest |phi'| within 2 dx of a critical point.

    The sweep's birth and merge cells lie within dx of their critical
    points, so this bounds the labeling's oscillation at either cell.
    """
    x = critical.location[0]
    xs = np.linspace(x - 2 * LABEL_DX, x + 2 * LABEL_DX, 41)[:, None]
    return 0.5 * LABEL_DX * float(np.max(np.abs(potentials.gradient(spec, xs))))


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(drawn=morse_roots())
def test_labeling_matches_floodfill(drawn):
    roots, scale = drawn
    spec = morse_polynomial(roots, scale)
    ref = oracles.floodfill_labeling(spec, BOX, dx=LABEL_DX)
    # the labeling drops an event below twice the oscillation at its two
    # cells by design; keep barriers clear of that floor with a factor 2
    assume(all(rS >= 4 * (oscillation_bound(spec, rm)
                          + oscillation_bound(spec, rs))
               for rm, rs, rS in ref[1:]))
    lab = landscape.label_potential(spec, BOX, LABEL_DX)
    lip = oracles.max_gradient_norm(spec, BOX)
    assert len(lab.pairs) == len(ref) == len(roots) // 2 + 1
    for (k, m, s, S), (rm, rs, rS) in zip(lab.pairs, ref):
        assert np.allclose(m.location, rm.location, atol=1e-9)
        if s is None:
            assert rs is None and math.isinf(S)
        else:
            assert np.allclose(s.location, rs.location, atol=1e-9)
            assert abs(S - rS) <= 5 * LABEL_DX * lip
