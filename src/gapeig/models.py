"""Concrete gapped operators: radial Coulomb-coupled Dirac channels, the cylinder
boundary operator, a discrete Hardy-type positivity check, and seeded random matrices
for property campaigns, gapped by construction (K_e >= p - e > 0 below min eig p, so
lambda1 >= min eig p > 0 > lambda0). Each spec checks its numbers by blockop.check_number
(SpecInvalid). The Dirac and cylinder builders return their diagonal and banded blocks
as scipy.sparse CSR arrays, O(n) in memory; the random generator's are dense.

The Dirac channel at coupling nu and angular number kappa is discretized on
a radial grid r_i = r_max * (i/n)^g (g = 1 uniform, g = 2 quadratic) with
Dirichlet ghost nodes at r = 0 and beyond r_max. The derivative matrix is
the antisymmetric central difference conjugated by square-root quadrature
weights w_i = (r_{i+1} - r_{i-1})/2, which reduces to the textbook
+-1/(2h) stencil on uniform grids and keeps the assembled matrix exactly
symmetric on graded ones. The last node sits exactly at r_max, so the gap
floor lambda0 = -1 - nu/r_max holds to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy import sparse

from .blockop import BlockOperator, _check_cap, check_number, mul
from .errors import SpecInvalid
from .schur import build_schur
from .verify import VerificationReport

GRADING_THRESHOLD = 0.7  # quadratic grading resolves the origin above this coupling
# random_gapped's largest intermediate is p + p.T, up to 6 * max(1, gap_target)
GAP_TARGET_MAX = np.finfo(float).max / 6


def default_grading(nu: float) -> str:
    return "quadratic" if nu > GRADING_THRESHOLD else "uniform"


@dataclass(frozen=True)
class DiracSpec:
    """One radial channel: nu in [0, 1], nonzero integer kappa, integer n >= 16, r_max > 0."""

    nu: float
    kappa: int
    n: int
    r_max: float
    grading: str | None = None

    def __post_init__(self) -> None:
        check_number(self.nu, "nu", SpecInvalid, 0, 1)
        kappa = abs(int(check_number(self.kappa, "kappa", SpecInvalid, integer=True)))
        check_number(kappa, "|kappa|", SpecInvalid, 1)
        check_number(self.n, "n", SpecInvalid, 16, integer=True)
        _check_cap(self.n, self.n)
        check_number(self.r_max, "r_max", SpecInvalid, 0, above=True)
        grading = self.grading if self.grading is not None else default_grading(self.nu)
        if grading not in ("uniform", "quadratic"):
            raise SpecInvalid(f"grading must be uniform or quadratic, got {grading!r}")
        object.__setattr__(self, "grading", grading)


@dataclass(frozen=True)
class ApsSpec:
    """The cylinder: nonempty finite real boundary modes, length_l > 0, integer n >= 8."""

    modes: tuple[float, ...]
    length_l: float
    n: int

    def __post_init__(self) -> None:
        modes = tuple(float(check_number(m, "modes", SpecInvalid))
                      for m in np.atleast_1d(np.asarray(self.modes, dtype=object)))
        if len(modes) == 0:
            raise SpecInvalid("modes must be nonempty")
        check_number(self.length_l, "length_l", SpecInvalid, 0, above=True)
        check_number(self.n, "n", SpecInvalid, 8, integer=True)
        _check_cap(len(modes) * self.n, len(modes) * (2 * self.n + 1))  # n and 2n + 1 per mode
        object.__setattr__(self, "modes", modes)


@dataclass(frozen=True)
class RandomSpec:
    """Random operators: integer n_plus, n_minus >= 1, gap_target in (0, GAP_TARGET_MAX],
    integer seed >= 0."""

    n_plus: int
    n_minus: int
    gap_target: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_number(self.n_plus, "n_plus", SpecInvalid, 1, integer=True)
        check_number(self.n_minus, "n_minus", SpecInvalid, 1, integer=True)
        _check_cap(self.n_plus, self.n_minus)
        check_number(self.gap_target, "gap_target", SpecInvalid, 0, GAP_TARGET_MAX, above=True)
        check_number(self.seed, "seed", SpecInvalid, 0, integer=True)


def _node(spec: DiracSpec, i):
    """r_max * (i/n)^g, the grading's node at index i (a number or an array of them)."""
    g = 2 if spec.grading == "quadratic" else 1
    return spec.r_max * (i / spec.n) ** g


def radial_grid(spec: DiracSpec) -> np.ndarray:
    """Grid nodes r_1..r_n with r_n = r_max exactly."""
    return _node(spec, np.arange(1, spec.n + 1, dtype=float))


def build_dirac_coulomb(spec: DiracSpec) -> BlockOperator:
    """One radial channel as a BlockOperator with CSR blocks.

    p = diag(1 - nu/r), amm = diag(-1 - nu/r), and the coupling is the
    weight-conjugated antisymmetric central difference plus kappa/r, tridiagonal.
    """
    r = radial_grid(spec)
    # ghost nodes carry the Dirichlet conditions at the origin and past r_max
    ext = np.concatenate(([0.0], r, [_node(spec, spec.n + 1)]))
    w = (ext[2:] - ext[:-2]) / 2.0
    off = 1.0 / (2.0 * np.sqrt(w[:-1] * w[1:]))
    c = sparse.diags_array([-off, spec.kappa * (1.0 / r), off], offsets=[-1, 0, 1],
                           format="csr")
    p = sparse.diags_array(1.0 - spec.nu / r, format="csr")
    amm = sparse.diags_array(-1.0 - spec.nu / r, format="csr")
    return BlockOperator(p=p, c=c, amm=amm)


def analytic_dirac_energy(nu: float, kappa: int, n_r: int) -> float:
    """Closed-form bound-state energy in (0, 1]; independent ground truth only. kappa is
    a nonzero integer, nu in [0, |kappa|) and n_r an integer >= 0 (SpecInvalid)."""
    size = abs(int(check_number(kappa, "kappa", SpecInvalid, integer=True)))
    check_number(size, "|kappa|", SpecInvalid, 1)
    check_number(nu, "nu", SpecInvalid, 0, size, below=True)
    check_number(n_r, "n_r", SpecInvalid, 0, integer=True)
    if n_r == 0 and kappa > 0:
        raise SpecInvalid("the state (n_r=0, kappa>0) does not exist")
    gamma = math.sqrt(kappa * kappa - nu * nu)
    return 1.0 / math.sqrt(1.0 + (nu / (n_r + gamma)) ** 2)


def forward_difference(n: int, length_l: float) -> sparse.csr_array:
    """The (n+1) x n Dirichlet forward-difference matrix on an interval, as CSR."""
    h = length_l / (n + 1)
    return sparse.diags_array([np.full(n, 1.0 / h), np.full(n, -1.0 / h)], offsets=[0, -1],
                              shape=(n + 1, n), format="csr")


def aps_levels(spec: ApsSpec) -> np.ndarray:
    """The cylinder's levels above lambda0 = 0, ascending: sqrt(mode^2 + sigma_j^2) for each
    mode and forward-difference singular value sigma_j = 2(n+1)/L sin(j pi/(2(n+1))).
    Per mode both terms are scaled by 2**-s, s from math.frexp of the largest, so no
    square overflows; the scaling is exact, so in range the levels keep every bit."""
    j = np.arange(1, spec.n + 1)
    sigmas = 2.0 * (spec.n + 1) / spec.length_l * np.sin(j * np.pi / (2 * (spec.n + 1)))
    levels = []
    for mode in spec.modes:
        s = math.frexp(max(abs(mode), sigmas.max()))[1]
        m, sig = math.ldexp(mode, -s), np.ldexp(sigmas, -s)
        levels.append(np.ldexp(np.sqrt(m * m + sig**2), s))
    return np.sort(np.concatenate(levels))


def aps_sigma_min(n: int, length_l: float) -> float:
    """Smallest singular value of the forward difference: the zero mode's lowest level."""
    return float(aps_levels(ApsSpec(modes=(0.0,), length_l=length_l, n=n))[0])


def build_aps_cylinder(spec: ApsSpec) -> BlockOperator:
    """The cylinder operator, block-diagonal over boundary modes, with CSR blocks.

    Both diagonal blocks vanish, so the whole operator is its coupling. Per
    mode the coupling stacks the forward difference over an injected mass
    copy, c_mode = [d_f; -mode * I]; the two pieces act on orthogonal
    components of the lower space, which makes c.T c = d_f.T d_f + mode^2 I
    exact and the per-mode levels sqrt(mode^2 + sigma_j^2) closed-form.
    """
    d_f = forward_difference(spec.n, spec.length_l)
    c = sparse.block_diag([sparse.vstack([d_f, -mode * sparse.eye_array(spec.n)])
                           for mode in spec.modes], format="csr")
    lower, upper = c.shape
    return BlockOperator(p=sparse.csr_array((upper, upper)), c=c,
                         amm=sparse.csr_array((lower, lower)))


def hardy_check(nu: float, n: int, r_max: float) -> VerificationReport:
    """Positivity of the zero-energy Schur matrix k_0 for the kappa=-1 channel.

    The smallest eigenvalue of k_0, inf q_0(x, x) / ||x||^2, is the discrete
    analogue of the Hardy-type lower bound; it must stay above -1e-3 for
    couplings up to one (the continuum bound degenerates to zero exactly at
    nu=1). It has the sign of the min-max level at energy zero, and is at or
    below that level when negative.
    """
    spec = DiracSpec(nu=nu, kappa=-1, n=n, r_max=r_max)
    op = build_dirac_coulomb(spec)
    smallest = build_schur(op, 0.0).value(1)
    return VerificationReport(
        check="hardy",
        value=smallest,
        passed=bool(smallest >= -1e-3),
        params={"nu": nu, "n": n, "r_max": r_max, "grading": spec.grading},
    )


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = sla.qr(rng.standard_normal((n, n)), check_finite=False)
    return q * np.sign(np.diagonal(r))


def random_gapped(spec: RandomSpec) -> BlockOperator:
    """Deterministic random operator, gapped by construction; one draw, no solver.

    p's eigenvalues are drawn from [0.3, 3) * scale with scale =
    max(1, gap_target), amm's from [-gap_target - 2 scale, -gap_target). For e
    in (lambda0, min eig p), K_e = p - e + c.T (e - amm)^{-1} c >= p - e > 0, so
    lambda1 >= min eig p >= 0.3 scale > 0 > -gap_target >= lambda0.
    """
    rng = np.random.default_rng(spec.seed)
    scale = max(1.0, spec.gap_target)
    q_plus = _random_orthogonal(rng, spec.n_plus)
    q_minus = _random_orthogonal(rng, spec.n_minus)
    p_eigs = rng.uniform(0.3 * scale, 3.0 * scale, spec.n_plus)
    amm_eigs = rng.uniform(-spec.gap_target - 2.0 * scale, -spec.gap_target, spec.n_minus)
    p = mul(q_plus * p_eigs, q_plus.T)
    amm = mul(q_minus * amm_eigs, q_minus.T)
    c = rng.standard_normal((spec.n_minus, spec.n_plus))
    c *= 0.5 * scale / math.sqrt(max(spec.n_plus, spec.n_minus))
    # pre-symmetrized: q diag q.T alone sits near BlockOperator's 1e-13 bound at n=800
    return BlockOperator(p=(p + p.T) / 2.0, c=c, amm=(amm + amm.T) / 2.0)
