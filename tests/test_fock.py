import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpbreed import (
    BinomialParams,
    FockConfig,
    QunaughtParams,
    beamsplitter,
    binomial_state,
    displacement,
    qunaught_state,
    squeezed_vacuum,
)
from qpbreed.fock import (
    _sector_index,
    _sector_store,
    _SectorStore,
    annihilation,
    apply_beamsplitter,
    hermite_functions,
)
from oracles import (
    BEAMSPLITTER_ROUTES,
    HERMITIAN,
    UNITARITY,
    closed_form_sector_block,
    dense_beamsplitter,
    displacement_element,
    displacement_matrix,
    full_row_sectors,
    generator_beamsplitter,
    hermite_phi,
    parity_operator,
    quad_qunaught_state,
    quadrature,
    sector_expm_beamsplitter,
    squeezed_vacuum_series,
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
        assert np.max(np.abs(built - displacement_matrix(cfg.dim, beta))) < 1e-12
    # a shift of the position is a real matrix, its imaginary part exact zeros
    assert not displacement(cfg, math.sqrt(math.pi)).imag.any()


@settings(database=None, derandomize=True, deadline=None)
@given(
    dim=st.integers(2, 100),
    radius=st.floats(0, 3),
    phase=st.floats(0, 2 * math.pi),
)
def test_displacement_is_exact_on_the_whole_box(dim, radius, phase):
    # the exact operator compressed to the box: every entry, the truncation
    # edge included, at any amplitude
    beta = radius * complex(math.cos(phase), math.sin(phase))
    built = displacement(FockConfig(dim), beta)
    assert np.max(np.abs(built - displacement_matrix(dim, beta))) < 1e-12


def test_displacement_top_corner_at_dim_300():
    levels = range(270, 300)
    for beta in (math.sqrt(math.pi), 1j * math.sqrt(math.pi), 2 - 2j):
        corner = [[displacement_element(m, n, beta) for n in levels] for m in levels]
        built = displacement(FockConfig(300), beta)[270:, 270:]
        assert np.max(np.abs(built - np.array(corner))) < 1e-12


def test_hermite_functions_keep_their_precision_past_the_unscaled_underflow():
    """Past |x| = √1400 ≈ 37.4, where e^{−x²/2} nears the bottom of the
    double range, every φ_n, n ≤ 644, whose true value exceeds 1e-300
    matches a 60-digit mpmath run of the same recurrence to 1e-12 relative,
    φ_644(38.61) ≈ 9.4e-13 included (the unscaled recurrence reads it as 0).
    Inside that range the values are the unscaled recurrence's bit for bit,
    and at 1500 levels they stay finite out to |x| = 200."""
    x = np.append(np.linspace(37.5, 48.9, 12), 38.61)
    built = hermite_functions(645, x)
    with mpmath.workdps(60):
        for column, point in zip(built.T, x.tolist()):
            point = mpmath.mpf(point)
            exact = [mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-point**2 / 2)]
            exact.append(mpmath.sqrt(2) * point * exact[0])
            for n in range(2, 645):
                up, back = mpmath.sqrt(mpmath.mpf(2) / n), mpmath.sqrt(mpmath.mpf(n - 1) / n)
                exact.append(up * point * exact[n - 1] - back * exact[n - 2])
            for value, truth in zip(column.tolist(), exact):
                if truth > mpmath.mpf("1e-300"):
                    assert abs(value - truth) <= 1e-12 * truth
    assert built[644, -1] == pytest.approx(9.366e-13, rel=1e-3)
    inside = np.linspace(-37.4, 37.4, 1001)
    assert hermite_functions(645, inside).tobytes() == hermite_phi(644, inside).tobytes()
    assert np.isfinite(hermite_functions(1500, np.linspace(-200, 200, 81))).all()


def test_binomial_psi0_amplitudes(cfg):
    psi0 = binomial_state(cfg, BinomialParams(N=2, K=3))
    expected = np.zeros(cfg.dim)
    expected[0] = 0.5
    expected[4] = math.sqrt(3) / 2
    assert psi0.dtype == np.float64
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
    assert state.dtype == np.float64
    assert np.max(np.abs(state[1::2])) == 0


@pytest.mark.parametrize("dim", [2, 3, 12, 50, 51, 645])
def test_squeezed_vacuum_is_the_analytic_series(dim):
    for delta in (0.001, 0.05, 0.3, 0.4, 0.9, 1.0):
        expected = squeezed_vacuum_series(dim, delta)
        np.testing.assert_allclose(squeezed_vacuum(FockConfig(dim), delta), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("delta", [0.35, 0.4])
def test_qunaught_normalized_and_even(cfg, delta):
    target = qunaught_state(cfg, QunaughtParams(delta))
    assert target.dtype == np.float64
    assert abs(np.linalg.norm(target) - 1) < 1e-12
    assert not target[1::2].any()  # parity-even comb


@pytest.mark.parametrize("dim", [12, 50])
def test_qunaught_matches_adaptive_quadrature(dim):
    for delta in (0.05, 0.4):
        expected = quad_qunaught_state(dim, delta)
        built = qunaught_state(FockConfig(dim), QunaughtParams(delta))
        np.testing.assert_allclose(built, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("delta", [0.001, 0.05, 0.12, 0.2, 0.35, 0.4, 0.9])
def test_states_do_not_depend_on_dim(delta):
    # levels n < dim are those of every larger dim: the dim-400 state, cut
    # to dim and renormalized, at every Δ, however small for the dim
    for build in (
        lambda dim: qunaught_state(FockConfig(dim), QunaughtParams(delta)),
        lambda dim: squeezed_vacuum(FockConfig(dim), delta),
    ):
        wide = build(400)
        for dim in (2, 3, 12, 50, 51, 68, 100):
            cut = wide[:dim] / np.linalg.norm(wide[:dim])
            np.testing.assert_allclose(build(dim), cut, rtol=0, atol=1e-13)


def test_qunaught_converged_in_dim_for_the_sweep_targets():
    # the two targets of the sweep: from dim 50 on, the target is the dim-400
    # target cut to dim, to 1 − F ≤ 1e-7 (at rounding since the comb is
    # projected exactly; test_states_do_not_depend_on_dim bounds it to 1e-13)
    for delta in (0.35, 0.4):
        wide = qunaught_state(FockConfig(400), QunaughtParams(delta))
        for dim in (50, 70, 100):
            cut = wide[:dim] / np.linalg.norm(wide[:dim])
            state = qunaught_state(FockConfig(dim), QunaughtParams(delta))
            assert 1 - abs(np.vdot(cut, state)) <= 1e-7


def test_beamsplitter_orthogonal_blocks(cfg):
    for dim in (cfg.dim, 51, 101):
        blocks = beamsplitter(FockConfig(dim))
        assert blocks.shape == (dim, dim, dim)
        # each block pairs a whole sector, orthogonal, with the complementary
        # cut one, the exact sector compressed to the box: a contraction,
        # since what it sends outside the box is lost
        for b in range(dim):
            whole = blocks[b, : b + 1, : b + 1]
            assert np.max(np.abs(whole @ whole.T - np.eye(b + 1))) < UNITARITY
            assert not blocks[b, : b + 1, b + 1 :].any() and not blocks[b, b + 1 :, : b + 1].any()
            if b < dim - 1:
                cut = blocks[b, b + 1 :, b + 1 :]
                assert np.linalg.norm(cut, 2) <= 1 + UNITARITY


def test_beamsplitter_packs_sectors_into_dim_blocks():
    # dim full blocks of float64, no padded sector blocks: 8 MB at dim 100
    assert beamsplitter(FockConfig(100)).nbytes == 8 * 100**3


@pytest.mark.parametrize("dim", [2, 3, 50, 51])
def test_sector_index_is_a_permutation(dim):
    assert np.array_equal(np.sort(_sector_index(dim)), np.arange(dim * dim))


@pytest.mark.parametrize("dim", [2, 3, 50, 51, 101])
def test_beamsplitter_matches_sector_expm(dim):
    # every sector at its packed place, against scipy's expm of its whole
    # generator cut to the box: whole ones (t < dim) and cut ones up to
    # t = 200, of both parities of size, and the zeros between the two of a
    # block; scipy is off by up to 2.4e-13 on the 173 levels of t = 172
    cfg = FockConfig(dim)
    assert np.max(np.abs(beamsplitter(cfg) - sector_expm_beamsplitter(cfg))) < 1e-12


@pytest.mark.parametrize("dim, total", [(101, 172), (50, 85)])
def test_beamsplitter_matches_extended_precision_sector(dim, total):
    # the cut sectors where scipy's expm of the whole sector is furthest
    # off: the 29 box levels of t = 172 at dim 101 (scipy 2.4e-13) and the
    # 14 of t = 85 at dim 50 (1.4e-13); the library is within 1.1e-15 of
    # the closed form at 40 digits.
    # Sector t ≥ dim sits in block t − dim on its own levels t − dim + 1..dim − 1.
    cfg = FockConfig(dim)
    lowest = total - dim + 1
    exact = closed_form_sector_block(cfg, total)
    assert np.max(np.abs(beamsplitter(cfg)[total - dim, lowest:, lowest:] - exact)) < 1e-13


def test_beamsplitter_photon_number_blocks():
    cfg = FockConfig(dim=8)
    bs = dense_beamsplitter(cfg)
    assert not np.any(bs.imag)
    totals = (np.arange(cfg.dim)[:, None] + np.arange(cfg.dim)[None, :]).ravel()
    off_block = bs[totals[:, None] != totals[None, :]]
    assert np.max(np.abs(off_block)) < 1e-14


def test_beamsplitter_matches_generator_exponential():
    # the exponential of the two-mode generator on 2·dim − 1 levels, cut to
    # the box: every sector, whole or cut, is the exact operator's
    for dim in (12, 13):
        cfg = FockConfig(dim)
        direct = generator_beamsplitter(cfg)
        assert np.max(np.abs(direct - dense_beamsplitter(cfg))) < BEAMSPLITTER_ROUTES


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 17, 50, 51, 101])
def test_batched_cut_sectors_match_per_sector_exponentials(dim):
    """The cut sectors, built together by the windowed recursion on the box
    levels only, against each sector's own exponential: the whole sector
    of the d^j recursion at 2·dim, cut to the box, which the tests above
    pin to scipy's and the closed form. They agree bit for bit, since each
    window holds every level its recursion reads."""
    blocks = beamsplitter(FockConfig(dim))
    whole = _SectorStore(2 * dim).sectors(2 * dim)  # uncached: 66 MB at dim 202
    for total in range(dim, 2 * dim - 1):
        box = slice(total - dim + 1, dim)
        assert np.array_equal(blocks[total - dim, box, box], whole[total, box, box])


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 17, 50, 51, 101])
def test_sector_builder_matches_the_full_row_recursion(dim):
    """The library's sectors against the oracle's recursion, bit for bit
    and zeros' signs included: whole and cut sectors, built in one pass and
    in pieces, the whole sectors of corners 9 and 17 first, as the breeding
    steps of a chain ask for them. A piece builds the sectors below its
    corner and nothing else, and a corner asked for once every sector is
    built writes nothing. Through every build the store's zero-bordered
    backing array stays read-only, its level −1 row and column exact zeros,
    and the blocks are a view of it."""
    border = np.zeros((dim, dim + 1)).tobytes()

    def check_backing(store):
        backing = store.bordered
        assert not backing.flags.writeable
        assert backing[:, 0, :].tobytes() == border
        assert backing[:, :, 0].tobytes() == border
        assert np.shares_memory(store.blocks, backing)

    every = full_row_sectors(dim, 2 * dim - 1)
    one_pass = _SectorStore(dim)
    assert one_pass.sectors(2 * dim - 1).tobytes() == every.tobytes()
    assert one_pass.written == 2 * dim - 1
    check_backing(one_pass)
    pieces = _SectorStore(dim)
    for width in (9, 17):
        if width < dim:
            assert pieces.sectors(width).tobytes() == full_row_sectors(dim, width).tobytes()
            assert pieces.written == width
            check_backing(pieces)
    assert pieces.sectors(2 * dim - 1).tobytes() == every.tobytes()
    check_backing(pieces)
    for width in (9, 17):
        if width < dim:
            assert pieces.sectors(width).tobytes() == every.tobytes()
            assert pieces.written == 2 * dim - 1
    built = beamsplitter(FockConfig(dim))
    assert built.tobytes() == every.tobytes()
    assert not built.flags.writeable
    check_backing(_sector_store(dim))
    assert np.shares_memory(built, _sector_store(dim).bordered)
    beamsplitter.cache_clear()
    assert beamsplitter(FockConfig(dim)) is built


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 17, 50, 51, 101])
def test_sectors_are_their_exchange_parity_mirror(dim):
    """Every whole and cut sector's box block B equals its exchange-parity
    mirror, B[k′, k] = (−1)^(k+k′)·B[t − k′, t − k], which maps the box onto
    itself: the parity rule of breed_step and the exchange copies of the
    two-iteration fold rest on it. No zero carries a sign."""
    blocks = beamsplitter(FockConfig(dim))
    for total in range(2 * dim - 1):
        low, high = max(0, total - dim + 1), min(total, dim - 1)
        block = blocks[total % dim, low : high + 1, low : high + 1]
        levels = np.arange(low, high + 1)
        sign = np.where(np.add.outer(levels, levels) % 2, -1.0, 1.0)
        assert np.array_equal(block, sign * block[::-1, ::-1])
    assert not np.signbit(blocks[blocks == 0]).any()


def test_beamsplitter_builds_no_full_size_eigensolve(monkeypatch):
    # neither the whole sectors nor the cut ones take an eigensolve
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: calls.append(args))
    _sector_store.cache_clear()
    blocks = beamsplitter.__wrapped__(FockConfig(37))
    assert not calls
    assert blocks[0, 1:, 1:].any()  # the cut sector 37 was built


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


def _corner_stack(rng, n, width, dim):
    """n random normalized (width, width) coefficient matrices; a corner
    width < dim holds zeros in every sector t ≥ width, as
    :func:`~qpbreed.fock.apply_beamsplitter` requires."""
    stack = rng.standard_normal((n, width, width))
    if width < dim:
        stack[:, np.add.outer(np.arange(width), np.arange(width)) >= width] = 0.0
    return stack / np.linalg.norm(stack, axis=(1, 2), keepdims=True)


@pytest.mark.parametrize(
    "dtype, cast", [(np.float32, np.float64), (np.int64, np.float64), (np.complex64, np.complex128)]
)
def test_apply_beamsplitter_mixes_other_dtypes_as_their_casts(dtype, cast):
    # each dtype goes through the float64 blocks as its float64 or
    # complex128 cast; an odd number of states, so that no other dtype
    # can pass for float64 columns
    dim = 9
    rng = np.random.default_rng(5)
    for width in (5, dim):
        stack = 8 * _corner_stack(rng, 3, width, dim)
        if np.issubdtype(dtype, np.complexfloating):
            stack = stack + 1j * (8 * _corner_stack(rng, 3, width, dim))
        coeff = np.round(stack).astype(dtype)
        mixed = apply_beamsplitter(FockConfig(dim), coeff)
        assert mixed.dtype == cast and mixed.shape == coeff.shape
        assert np.array_equal(mixed, apply_beamsplitter(FockConfig(dim), coeff.astype(cast)))


@pytest.mark.parametrize("dim", [12, 13])
def test_apply_beamsplitter_mixes_a_complex_stack_by_parts(dim):
    # the beamsplitter's blocks are real, so it mixes the real and the
    # imaginary part of a complex stack each on its own, in corners and in
    # the whole box with its cut sectors
    cfg = FockConfig(dim)
    rng = np.random.default_rng(dim)
    for width in (dim // 2, dim):
        re, im = (_corner_stack(rng, 4, width, dim) for _ in range(2))
        mixed = apply_beamsplitter(cfg, re + 1j * im)
        assert mixed.dtype == np.complex128
        expected = apply_beamsplitter(cfg, re) + 1j * apply_beamsplitter(cfg, im)
        assert np.max(np.abs(mixed - expected)) <= 1e-15
