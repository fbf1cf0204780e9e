import numpy as np
import pytest

from spiderwalk import SpidernetParams, build_spidernet, cutoff_dim, cutoff_index


@pytest.fixture(scope="session")
def big_463():
    """S(4,6,3) truncated at radius 12; shared by the heavier walk tests."""
    return build_spidernet(SpidernetParams(4, 6, 3), 12)


@pytest.fixture(scope="session")
def big_442():
    """S(4,4,2) at radius 12: realizable stand-in with the same (p, q, r)
    as the unrealizable S(3,4,2)."""
    return build_spidernet(SpidernetParams(4, 4, 2), 12)


@pytest.fixture(scope="session")
def cutoff_shift():
    """Builds the shift of H(N), psi_n^+ <-> psi_{n+1}^-, as a dense matrix
    from the cutoff layout, independently of the package's own shift."""
    def build(N):
        s = np.eye(cutoff_dim(N))
        for n in range(N):
            i, j = cutoff_index(n, "+", N), cutoff_index(n + 1, "-", N)
            s[[i, j]] = s[[j, i]]
        return s
    return build
