import os
import sys
from pathlib import Path

# BLAS reads its thread count once, when numpy loads: pin it to one thread
# as the command line does, so dense test oracles do not oversubscribe
assert "numpy" not in sys.modules, "numpy loaded before tests/conftest.py"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ballwalk import gridop, landscape, potentials


@pytest.fixture(scope="session")
def dwt():
    return potentials.builtin("double_well_tilted")


@pytest.fixture(scope="session")
def box1d():
    return potentials.Box.from_pairs([(-2.0, 2.0)])


@pytest.fixture(scope="session")
def dwt_labeling(dwt, box1d):
    return landscape.label_potential(dwt, box1d, dx=1e-3)


@pytest.fixture(scope="session")
def three_well():
    return potentials.builtin("three_well")


@pytest.fixture(scope="session")
def box2d():
    return potentials.Box.from_pairs([(-2.4, 2.4), (-2.4, 2.4)])


@pytest.fixture(scope="session")
def three_well_labeling(three_well, box2d):
    return landscape.label_potential(three_well, box2d, dx=0.0075,
                                     coarse_spacing=0.06)


@pytest.fixture(scope="session")
def dwt_walk_P(dwt, box1d):
    grid = gridop.build_grid(box1d, 0.002)
    return gridop.to_P(gridop.assemble_walk(gridop.sample(dwt, grid), grid,
                                            0.1))

@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave {pid})")
