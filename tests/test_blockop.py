import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import (
    BadSplit,
    BlockOperator,
    GapData,
    NonFinite,
    NonSymmetric,
    assemble_block,
    b_matrix,
    lambda0,
)
from gapeig.models import DiracSpec, build_dirac_coulomb


def test_assemble_canonical_slicing():
    op = assemble_block(np.array([[1.0, 1.0], [1.0, -1.0]]), 1)
    assert op.p == pytest.approx(np.array([[1.0]]))
    assert op.c == pytest.approx(np.array([[1.0]]))
    assert op.amm == pytest.approx(np.array([[-1.0]]))
    assert (op.n_plus, op.n_minus) == (1, 1)


def test_assemble_identity_split():
    op = assemble_block(np.eye(4), 2)
    assert np.array_equal(op.p, np.eye(2))
    assert np.array_equal(op.c, np.zeros((2, 2)))
    assert np.array_equal(op.amm, np.eye(2))


def test_assemble_three_by_three():
    full = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, -5.0]])
    op = assemble_block(full, 2)
    assert np.array_equal(op.p, np.diag([2.0, 3.0]))
    assert np.array_equal(op.c, np.array([[1.0, 0.0]]))
    assert np.array_equal(op.amm, np.array([[-5.0]]))


def test_assemble_rejects_asymmetry():
    with pytest.raises(NonSymmetric):
        assemble_block(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)


BAD_VALUES = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("block", ("p", "c", "amm"))
def test_operator_rejects_non_finite(block, bad):
    blocks = {"p": np.eye(2), "c": np.ones((3, 2)), "amm": -np.eye(3)}
    blocks[block][0, 0] = bad
    with pytest.raises(NonFinite, match=f"block {block} "):
        BlockOperator(**blocks)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_operator_accepts_entries_whose_norm_overflows():
    op = BlockOperator(p=1e200 * np.eye(2), c=np.ones((3, 2)), amm=-1e200 * np.eye(3))
    assert op.p[0, 0] == 1e200 and op.amm[0, 0] == -1e200


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("block,entry", (("p", (0, 0)), ("c", (2, 1)),
                                          ("c.T", (1, 2)), ("amm", (3, 3))))
def test_assemble_rejects_non_finite(block, entry, bad):
    full = np.diag([1.0, 2.0, -1.0, -2.0])
    full[entry] = bad
    with pytest.raises(NonFinite, match=f"block {block.replace('.', '[.]')} "):
        assemble_block(full, 2)


def test_assemble_rejects_bad_split():
    with pytest.raises(BadSplit):
        assemble_block(np.eye(3), 0)
    with pytest.raises(BadSplit):
        assemble_block(np.eye(3), 3)


def test_assemble_rejects_non_square():
    with pytest.raises(NonSymmetric):
        assemble_block(np.ones((2, 3)), 1)
    with pytest.raises(NonSymmetric):
        assemble_block(np.ones((1, 1)), 1)


def test_tiny_asymmetry_is_symmetrized():
    full = np.array([[1.0, 1.0 + 1e-15], [1.0, -1.0]])
    op = assemble_block(full, 1)
    assert op.c[0, 0] == (1.0 + (1.0 + 1e-15)) / 2.0


def test_blocks_are_frozen(canonical):
    with pytest.raises(ValueError):
        canonical.p[0, 0] = 7.0


def test_size_cap(monkeypatch):
    monkeypatch.setattr(BlockOperator, "SIZE_CAP", 8)
    with pytest.raises(BadSplit):
        BlockOperator(p=np.eye(9), c=np.zeros((1, 9)), amm=np.array([[-1.0]]))


def test_lambda0_scalar():
    op = BlockOperator(p=np.eye(1), c=np.zeros((1, 1)), amm=np.array([[-1.0]]))
    assert lambda0(op) == -1.0


def test_lambda0_diagonal_maximum():
    op = BlockOperator(p=np.eye(1), c=np.zeros((2, 1)), amm=np.diag([-2.0, -3.0]))
    assert lambda0(op) == -2.0


def test_lambda0_dirac_exact_endpoint():
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=64, r_max=20.0))
    assert lambda0(op) == -1.0 - 0.5 / 20.0


def test_b_matrix_negation():
    op = BlockOperator(p=np.eye(1), c=np.zeros((1, 1)), amm=np.array([[-1.0]]))
    assert np.array_equal(b_matrix(op), np.array([[1.0]]))
    op = BlockOperator(p=np.eye(1), c=np.zeros((2, 1)), amm=np.diag([-2.0, -3.0]))
    assert np.array_equal(b_matrix(op), np.diag([2.0, 3.0]))
    amm = np.array([[-1.0, 0.2], [0.2, -1.0]])
    op = BlockOperator(p=np.eye(1), c=np.zeros((2, 1)), amm=amm)
    assert np.array_equal(b_matrix(op), -amm)


def test_b_matrix_smallest_eigenvalue(campaign_ops):
    for op in campaign_ops[:5]:
        smallest = np.linalg.eigvalsh(b_matrix(op))[0]
        assert smallest == pytest.approx(-lambda0(op), rel=1e-12)


def test_assembled_exactly_symmetric(campaign_ops):
    for op in campaign_ops[:10]:
        full = op.assembled()
        assert (full == full.T).all()
        assert full.shape == (op.dim, op.dim)


def test_lambda0_matches_amm_block_oracle(campaign_ops):
    for op in campaign_ops[:10]:
        assert lambda0(op) == pytest.approx(np.linalg.eigvalsh(op.amm)[-1], abs=1e-13)


def test_shifted_lower_block_positive_definite(campaign_ops):
    for op in campaign_ops[:10]:
        lam0 = lambda0(op)
        for offset in (1e-9, 1e-3, 1.0, 1e3):
            sla.cho_factor(b_matrix(op) + (lam0 + offset) * np.eye(op.n_minus))


def test_gapdata_validity_margin():
    assert GapData(lambda0=0.0, lambda1=1.0).valid
    assert not GapData(lambda0=0.0, lambda1=5e-13).valid
    assert not GapData(lambda0=0.0, lambda1=float("nan")).valid
