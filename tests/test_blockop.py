import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import (
    BadSplit,
    BlockOperator,
    EigFailure,
    GapData,
    NonFinite,
    NonSymmetric,
    assemble_block,
    lambda0,
)
from gapeig import blockop
from gapeig.blockop import lower_eigen
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


def test_assemble_rejects_a_complex_matrix():
    # a float cast kept [[1, 1], [1, -1]], whose level is sqrt(2), not sqrt(6)
    with pytest.raises(NonSymmetric, match="complex"):
        assemble_block(np.array([[1, 1 + 2j], [1 - 2j, -1]]), 1)


@pytest.mark.parametrize("block", ["p", "c", "amm"])
def test_operator_rejects_a_complex_block(block):
    blocks = {"p": np.eye(2), "c": np.ones((1, 2)), "amm": -np.eye(1)}
    blocks[block] = blocks[block] + 0j
    with pytest.raises(NonSymmetric, match=block):
        BlockOperator(**blocks)


@pytest.mark.parametrize("block", ["p", "amm"])
def test_operator_rejects_a_non_square_block(block):
    blocks = {"p": np.eye(2), "c": np.ones((2, 2)), "amm": -np.eye(2)}
    blocks[block] = np.ones((2, 3))
    with pytest.raises(NonSymmetric, match=f"{block} must be square"):
        BlockOperator(**blocks)


def test_operator_rejects_an_empty_block():
    with pytest.raises(BadSplit, match="at least 1x1"):
        BlockOperator(p=np.eye(2), c=np.ones((0, 2)), amm=np.ones((0, 0)))


def test_operator_rejects_a_coupling_of_the_wrong_shape():
    with pytest.raises(BadSplit, match="coupling block must be 1x2"):
        BlockOperator(p=np.eye(2), c=np.ones((2, 1)), amm=-np.eye(1))


@pytest.mark.filterwarnings("error")
def test_a_huge_diagonal_entry_is_stored_as_given():
    # (m + m.T)/2 stored inf for 1e308
    op = BlockOperator(p=[[1e308]], c=[[1.0]], amm=[[-1.0]])
    assert op.p[0, 0] == 1e308


@pytest.mark.filterwarnings("error")
def test_huge_finite_coupling_entries_are_finite():
    # symmetrizing the input matrix overflowed, and c was rejected as non-finite
    op = assemble_block([[1.0, 1e308], [1e308, -1.0]], 1)
    assert op.c[0, 0] == 1e308


@pytest.mark.parametrize("size", [1e308, 1e-200])
def test_an_antisymmetric_block_is_rejected_at_any_scale(size):
    # the norms overflowed to inf (inf > rtol*inf is false) or underflowed to 0,
    # and the block passed as symmetric and was stored as zeros
    with pytest.raises(NonSymmetric, match="relative asymmetry 2.000e\\+00"):
        BlockOperator(p=[[0.0, size], [-size, 0.0]], c=[[1.0, 1.0]], amm=[[-1.0]])


def test_symmetrization_rounds_as_the_mean_of_m_and_its_transpose():
    # the stored block is the correctly rounded mean of m and m.T at every scale,
    # (m + m.T)/2 to the last bit wherever that sum does not overflow; at 4e307 it
    # did, and the block held inf
    rng = np.random.default_rng(7)
    for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300, 4e307):
        for _ in range(20):
            m = rng.standard_normal((30, 30))
            m = scale * ((m + m.T) / 2.0 + 1e-15 * rng.standard_normal((30, 30)))
            op = BlockOperator(p=m, c=np.ones((2, 30)), amm=-np.eye(2))
            assert np.array_equal(op.p, 2.0 * (0.25 * m + 0.25 * m.T))
            if scale <= 1e300:
                assert np.array_equal(op.p, (m + m.T) / 2.0)


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


def test_size_cap_comes_before_any_arithmetic_on_the_blocks(monkeypatch):
    # an over-cap block is rejected before its finite and symmetry checks, so no
    # n^2 temporary is made for it
    def refuse(*args, **kwargs):
        raise AssertionError("an over-cap block reached an O(n^2) check")

    monkeypatch.setattr(BlockOperator, "SIZE_CAP", 3)
    monkeypatch.setattr(blockop, "_check_symmetric", refuse)
    monkeypatch.setattr(blockop, "_check_finite", refuse)
    with pytest.raises(BadSplit, match="cap 3"):
        BlockOperator(p=np.eye(4), c=np.zeros((1, 4)), amm=np.array([[-1.0]]))
    with pytest.raises(BadSplit, match="cap 3"):
        assemble_block(np.diag([1.0, 2.0, 3.0, 4.0, -1.0]), 4)


def test_lambda0_scalar():
    op = BlockOperator(p=np.eye(1), c=np.zeros((1, 1)), amm=np.array([[-1.0]]))
    assert lambda0(op) == -1.0


def test_lambda0_diagonal_maximum():
    op = BlockOperator(p=np.eye(1), c=np.zeros((2, 1)), amm=np.diag([-2.0, -3.0]))
    assert lambda0(op) == -2.0


def test_lambda0_dirac_exact_endpoint():
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=64, r_max=20.0))
    assert lambda0(op) == -1.0 - 0.5 / 20.0


def _refuse_eigensolves(monkeypatch):
    for name in ("eigvalsh", "eigh"):
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called")

        monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("amm", (np.diag([-2.0, -0.5, -3.0]), np.zeros((3, 3))))
def test_lambda0_of_diagonal_block_needs_no_eigensolve(monkeypatch, amm):
    _refuse_eigensolves(monkeypatch)
    op = BlockOperator(p=np.eye(2), c=np.ones((3, 2)), amm=amm)
    assert lambda0(op) == np.diagonal(amm).max()


def test_lambda0_of_a_dense_block_is_the_top_of_its_eigh(campaign_ops):
    op = campaign_ops[0]
    d, q = lower_eigen(op)
    assert lambda0(op) == d[-1]
    assert np.all(np.diff(d) >= 0.0)
    assert np.linalg.norm(q @ np.diag(d) @ q.T - op.amm) <= 1e-13 * np.linalg.norm(op.amm)
    assert lower_eigen(op)[1] is q


def test_a_failed_lower_eigensolve_is_an_eig_failure(monkeypatch, campaign_ops):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    op = BlockOperator(p=campaign_ops[0].p, c=campaign_ops[0].c, amm=campaign_ops[0].amm)
    with pytest.raises(EigFailure, match="eigensolve on amm failed"):
        lambda0(op)


def test_lower_diagonal_sees_off_diagonal_entries_beside_zero_diagonal_ones():
    # three nonzeros on a 3x3 block: counted against the diagonal's length
    # rather than its own nonzeros, this block would pass as diagonal
    coupled = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    op = BlockOperator(p=np.eye(2), c=np.ones((3, 2)), amm=coupled)
    assert lower_eigen(op)[1] is not None
    amm = np.diag([-1.0, 0.0, -2.0])
    op = BlockOperator(p=np.eye(2), c=np.ones((3, 2)), amm=amm)
    diag, q = lower_eigen(op)
    assert np.array_equal(diag, [-1.0, 0.0, -2.0]) and q is None


def test_lambda0_is_computed_once_per_operator(monkeypatch, campaign_ops):
    op = BlockOperator(p=campaign_ops[0].p, c=campaign_ops[0].c, amm=campaign_ops[0].amm)
    first = lambda0(op)
    _refuse_eigensolves(monkeypatch)
    assert lambda0(op) == first


def test_b_matrix_smallest_eigenvalue(campaign_ops):
    for op in campaign_ops[:5]:
        smallest = np.linalg.eigvalsh(-op.amm)[0]
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
            sla.cho_factor(-op.amm + (lam0 + offset) * np.eye(op.n_minus))


def test_gapdata_validity_margin():
    assert GapData(lambda0=0.0, lambda1=1.0).valid
    assert not GapData(lambda0=0.0, lambda1=5e-13).valid
    assert not GapData(lambda0=0.0, lambda1=float("nan")).valid
