import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpbreed import (
    BinomialParams,
    FockConfig,
    QunaughtParams,
    annihilation,
    beamsplitter,
    binomial_state,
    displacement,
    qunaught_state,
    squeezed_vacuum,
)
from qpbreed.fock import QUNAUGHT_TAIL
from oracles import (
    BEAMSPLITTER_ROUTES,
    HERMITIAN,
    UNITARITY,
    dense_beamsplitter,
    displacement_matrix,
    generator_beamsplitter,
    padded_expm_displacement,
    parity_operator,
    quadrature,
    qunaught_peak_sum,
    sector_expm_beamsplitter,
)


def test_config_validation():
    with pytest.raises(ValueError):
        FockConfig(dim=1)


def test_annihilation_commutator(cfg):
    a = annihilation(cfg)
    comm = a @ a.conj().T - a.conj().T @ a
    # [a, a†] = 1 except the truncation-edge corner
    expected = np.eye(cfg.dim)
    expected[-1, -1] = -(cfg.dim - 1)
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_quadrature_hermitian(cfg):
    for angle in (0.0, math.pi / 2, 0.3):
        x = quadrature(cfg, angle)
        assert np.max(np.abs(x - x.conj().T)) < HERMITIAN


def test_vacuum_quadrature_variance(cfg):
    q = quadrature(cfg, 0.0)
    vac = np.zeros(cfg.dim)
    vac[0] = 1.0
    variance = vac @ (q @ (q @ vac))
    assert abs(variance - 0.5) < 1e-12


def test_displacement_matches_series_oracle(cfg):
    for beta in (0.7, math.sqrt(math.pi), 1j * math.sqrt(math.pi), 0.5 - 0.3j):
        built = displacement(cfg, beta)
        oracle = displacement_matrix(cfg.dim, beta)
        # compare well inside the truncation edge
        assert np.max(np.abs(built[:30, :30] - oracle[:30, :30])) < 1e-8


@settings(database=None, derandomize=True, deadline=None)
@given(
    dim=st.integers(4, 60),
    radius=st.floats(0, 0.499),
    phase=st.floats(0, 2 * math.pi),
)
def test_displacement_matches_padded_expm(dim, radius, phase):
    # |β|² = radius² · dim < dim/4, the range in which no warning fires
    beta = radius * math.sqrt(dim) * complex(math.cos(phase), math.sin(phase))
    built = displacement(FockConfig(dim), beta)
    assert np.max(np.abs(built - padded_expm_displacement(dim, beta))) < 1e-12


@pytest.mark.parametrize("dim", [12, 50, 100])
def test_qunaught_matches_peak_sum(dim):
    for delta in (0.3, 0.35, 0.4, 0.5):
        params = QunaughtParams(delta)
        built = qunaught_state(FockConfig(dim), params)
        assert np.max(np.abs(built - qunaught_peak_sum(dim, params))) < 1e-12


def test_displacement_warns_on_large_amplitude(cfg):
    with pytest.warns(UserWarning, match="large for"):
        displacement(cfg, 6.0)


def test_binomial_psi0_amplitudes(cfg):
    psi0 = binomial_state(cfg, BinomialParams(N=2, K=3))
    expected = np.zeros(cfg.dim)
    expected[0] = 0.5
    expected[4] = math.sqrt(3) / 2
    assert np.max(np.abs(psi0 - expected)) < 1e-14


def test_binomial_normalized_and_supported():
    cfg = FockConfig(dim=40)
    for n_sym in (2, 3):
        for k_trunc in (2, 3, 4, 5):
            params = BinomialParams(n_sym, k_trunc)
            if params.top_level >= cfg.dim:
                with pytest.raises(ValueError, match="outside dim"):
                    binomial_state(cfg, params)
                continue
            state = binomial_state(cfg, params)
            assert abs(np.linalg.norm(state) - 1) < 1e-12
            support = np.nonzero(np.abs(state) > 1e-15)[0]
            assert support[-1] == params.top_level
            assert all(level % (2 * n_sym) == 0 for level in support)


def test_binomial_param_validation():
    with pytest.raises(ValueError):
        BinomialParams(0, 3)


def test_squeezed_vacuum_position_variance(cfg):
    q = quadrature(cfg, 0.0)
    q2 = q @ q
    for delta in (0.3, 0.4, 0.5, 1.0):
        state = squeezed_vacuum(cfg, delta)
        variance = float(np.real(state.conj() @ (q2 @ state)))
        # the Fock tail of strong squeezing decays slowly; truncation at
        # dim 50 leaves a few-1e-4 variance defect at delta = 0.3
        assert abs(variance - delta**2 / 2) < 1e-3


def test_squeezed_vacuum_even_support(cfg):
    state = squeezed_vacuum(cfg, 0.4)
    assert np.max(np.abs(state[1::2])) == 0


def test_qunaught_params_auto_t_max():
    assert QunaughtParams(delta=0.4).t_max == 8
    assert QunaughtParams(delta=0.35).t_max == 9
    # the smallest cutoff whose first omitted weight is below the tail bound
    for delta in (0.05, 0.2, 0.35, 0.4, 0.9):
        t_max = QunaughtParams(delta).t_max
        assert math.exp(-math.pi * delta**2 * t_max**2) <= QUNAUGHT_TAIL
        assert math.exp(-math.pi * delta**2 * (t_max - 1) ** 2) > QUNAUGHT_TAIL


def test_qunaught_normalized_and_even(cfg, target):
    assert abs(np.linalg.norm(target) - 1) < 1e-12
    assert np.max(np.abs(target[1::2])) < 1e-12  # parity-even comb


def test_qunaught_rejects_delta_too_small_for_dim():
    # Δ below half the padded p eigenvalue spacing at p = 0 (0.195 at dim 12,
    # 0.132 at dims 50 and 51): the truncation cannot resolve the comb. At
    # odd dims and some even ones such a comb keeps a sizeable norm, which
    # an after-the-fact norm floor let through.
    rejected = [(50, 0.001), (12, 0.01), (12, 0.02), (50, 0.01), (51, 0.001)]
    rejected += [(dim, 0.001) for dim in (44, 46, 60, 76, 84, 92, 94)]
    for dim, delta in rejected:
        with pytest.raises(ValueError, match=f"delta={delta} is too small for dim {dim}"):
            qunaught_state(FockConfig(dim), QunaughtParams(delta))
    # a resolved Δ gives the target of a much larger truncation, cut to dim
    for dim, delta in ((12, 0.2), (51, 0.14), (100, 0.11)):
        state = qunaught_state(FockConfig(dim), QunaughtParams(delta))
        assert abs(np.linalg.norm(state) - 1) < 1e-12
        wide = qunaught_state(FockConfig(400), QunaughtParams(delta))[:dim]
        assert abs(np.vdot(wide, state)) / np.linalg.norm(wide) > 0.99


def test_qunaught_delta_limits_to_squeezed_vacuum(cfg):
    # At very small envelope (delta -> 1 would be vacuum-like) the state
    # stays normalized; sanity check another delta builds fine.
    state = qunaught_state(cfg, QunaughtParams(delta=0.35))
    assert abs(np.linalg.norm(state) - 1) < 1e-12


def test_beamsplitter_orthogonal_blocks(cfg):
    for dim in (cfg.dim, 51):
        blocks = beamsplitter(FockConfig(dim))
        assert blocks.shape == (2 * dim - 1, dim, dim)
        # block t is orthogonal on the photon numbers k with 0 <= t - k < dim
        # and zero elsewhere
        kept = np.arange(2 * dim - 1)[:, None] - np.arange(dim)[None, :]
        padded_identity = ((kept >= 0) & (kept < dim))[:, :, None] * np.eye(dim)
        gram = blocks @ blocks.transpose(0, 2, 1)
        assert np.max(np.abs(gram - padded_identity)) < UNITARITY


@pytest.mark.parametrize("dim", [2, 3, 50, 51, 101])
def test_beamsplitter_matches_sector_expm(dim):
    # every sector: whole ones (t < dim, the d^j recursion, up to t = 100)
    # and truncated ones of both parities of size (the half-size eigensolve)
    cfg = FockConfig(dim)
    assert np.max(np.abs(beamsplitter(cfg) - sector_expm_beamsplitter(cfg))) < 1e-12


def test_beamsplitter_photon_number_blocks():
    cfg = FockConfig(dim=8)
    bs = dense_beamsplitter(cfg)
    assert not np.any(bs.imag)
    totals = (np.arange(cfg.dim)[:, None] + np.arange(cfg.dim)[None, :]).ravel()
    off_block = bs[totals[:, None] != totals[None, :]]
    assert np.max(np.abs(off_block)) < 1e-14


def test_beamsplitter_matches_generator_exponential():
    # the exponential of the truncated two-mode generator is block-diagonal
    # in total photon number, so it matches every sector, truncated or not
    for dim in (12, 13):
        cfg = FockConfig(dim)
        direct = generator_beamsplitter(cfg)
        assert np.max(np.abs(direct - dense_beamsplitter(cfg))) < BEAMSPLITTER_ROUTES


def test_beamsplitter_builds_no_full_size_eigensolve(monkeypatch):
    eigh = np.linalg.eigh
    rows = []

    def counted(matrix, *args, **kwargs):
        rows.append(len(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    dim = 50
    beamsplitter.__wrapped__(FockConfig(dim))
    # only the truncated sectors t >= dim, of sizes n = 2·dim − 1 − t, call
    # it: twice each for n >= 2, on ⌈n/2⌉ and ⌊n/2⌋ rows
    expected = [size for n in range(2, dim) for size in ((n + 1) // 2, n // 2)]
    assert sorted(rows) == sorted(expected)
    assert max(rows) <= math.ceil(dim / 2)


def test_beamsplitter_single_photon_routing():
    cfg = FockConfig(dim=4)
    bs = dense_beamsplitter(cfg)
    ket_10 = np.zeros(16)
    ket_10[1 * 4 + 0] = 1.0
    out = bs @ ket_10
    expected = np.zeros(16)
    expected[1 * 4 + 0] = 1 / math.sqrt(2)
    expected[0 * 4 + 1] = -1 / math.sqrt(2)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_beamsplitter_hong_ou_mandel():
    cfg = FockConfig(dim=4)
    bs = dense_beamsplitter(cfg)
    ket_11 = np.zeros(16)
    ket_11[1 * 4 + 1] = 1.0
    out = bs @ ket_11
    expected = np.zeros(16)
    expected[2 * 4 + 0] = 1 / math.sqrt(2)
    expected[0 * 4 + 2] = -1 / math.sqrt(2)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_beamsplitter_vacuum_invariant():
    cfg = FockConfig(dim=6)
    bs = dense_beamsplitter(cfg)
    vac = np.zeros(36)
    vac[0] = 1.0
    assert np.max(np.abs(bs @ vac - vac)) < 1e-14


def test_beamsplitter_commutes_with_parity():
    cfg = FockConfig(dim=10)
    bs = dense_beamsplitter(cfg)
    par = np.kron(parity_operator(cfg.dim), parity_operator(cfg.dim))
    assert np.max(np.abs(par @ bs - bs @ par)) < 1e-12
