import numpy as np
import pytest
from scipy import sparse

from gapeig import BlockOperator, RandomSpec, assemble_block, random_gapped

CANONICAL = np.array([[1.0, 1.0], [1.0, -1.0]])


def dense(m):
    """A block as a dense array, whether the operator stores it dense or as scipy.sparse."""
    return m.toarray() if sparse.issparse(m) else np.asarray(m)


@pytest.fixture()
def canonical():
    """The 2x2 operator with eigenvalues +-sqrt(2): p=1, c=1, amm=-1."""
    return assemble_block(CANONICAL, 1)


@pytest.fixture()
def decoupled23():
    """Coupling-free operator: p=diag(2,3), amm=-1; levels sit at 2 and 3."""
    return BlockOperator(p=np.diag([2.0, 3.0]), c=np.zeros((1, 2)), amm=np.array([[-1.0]]))


def campaign_dims(seed: int) -> tuple[int, int]:
    rng = np.random.default_rng(10_000 + seed)
    return int(rng.integers(5, 41)), int(rng.integers(2, 41))


@pytest.fixture(scope="session")
def campaign_ops():
    """The 100 seeded random gapped operators shared by the acceptance campaign."""
    ops = []
    for seed in range(100):
        n_plus, n_minus = campaign_dims(seed)
        ops.append(random_gapped(RandomSpec(n_plus=n_plus, n_minus=n_minus,
                                            gap_target=1.0, seed=seed)))
    return ops
