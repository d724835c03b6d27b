import math

import numpy as np
import pytest

from qpbreed import (
    FockConfig,
    Schedule,
    breed_step,
    chain_prefixes,
    effective_squeezing,
    fidelity,
    quadrature_basis,
    sgkp_db,
    squeezed_vacuum,
    wigner,
)
from qpbreed import metrics
from qpbreed.homodyne import select_outcome
from qpbreed.metrics import default_grid, hermite_functions, position_density

from oracles import hermite_phi, unreduced_wigner, wigner_point


def test_fidelity_self_and_orthogonal(cfg, psi0, vacuum):
    assert fidelity(psi0, psi0) == pytest.approx(1.0, abs=1e-12)
    one = np.zeros(cfg.dim, complex)
    one[1] = 1.0
    assert fidelity(vacuum, one) == 0.0


def test_fidelity_phase_invariant(psi0, target):
    assert fidelity(psi0, target) == pytest.approx(fidelity(psi0, 1j * target), abs=1e-14)


def test_fidelity_dim_mismatch(psi0):
    with pytest.raises(ValueError):
        fidelity(psi0, psi0[:10])


@pytest.mark.parametrize("width", [50, 17])
@pytest.mark.parametrize("stack_dtype, state_dtype", [(float, float), (complex, float), (complex, complex)])
def test_fidelity_of_a_stack_agrees_with_each_row(target, width, stack_dtype, state_dtype):
    # a stack is one matrix-vector product and a row one dot product, so
    # they agree up to rounding; a corner w < dim scores cut states, and a
    # complex stack against a real state is the atlas's case
    rng = np.random.default_rng(29)
    stack = rng.standard_normal((4, 6, width))
    if stack_dtype is complex:
        stack = stack + 1j * rng.standard_normal(stack.shape)
    stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
    state = target[:width] / np.linalg.norm(target[:width])
    if state_dtype is complex:
        state = state * np.exp(0.3j * np.arange(width))
    overlaps = fidelity(stack, state)
    assert overlaps.shape == (4, 6) and overlaps.dtype == np.float64
    rows = [[fidelity(row, state) for row in block] for block in stack]
    assert all(type(value) is float for block in rows for value in block)
    np.testing.assert_allclose(overlaps, rows, rtol=0, atol=1e-15)
    for a, b in ((stack, state[:-1]), (stack[..., :-1], state), (state, stack)):
        with pytest.raises(ValueError, match="state dimensions differ"):
            fidelity(a, b)


def test_effective_squeezing_vacuum(cfg, vacuum):
    # |<0|D(sqrt(pi))|0>|^2 = e^{-pi}  =>  delta = 1
    assert effective_squeezing(cfg, vacuum, "q") == pytest.approx(1.0, abs=1e-4)
    assert effective_squeezing(cfg, vacuum, "p") == pytest.approx(1.0, abs=1e-4)


def test_effective_squeezing_of_squeezed_vacuum(cfg, vacuum):
    states = [squeezed_vacuum(cfg, delta) for delta in (0.3, 0.4, 0.5, 1.0)]
    for delta, state in zip((0.3, 0.4, 0.5, 1.0), states):
        assert effective_squeezing(cfg, state, "p") == pytest.approx(delta, abs=1e-3)
    # a (2, 3, dim) stack gives the per-state values; 3|0⟩ has overlap above 1
    # (δ = 0) and the zero vector overlap 0 (δ = inf)
    states += [3 * vacuum, 0 * vacuum]
    stacked = effective_squeezing(cfg, np.reshape(states, (2, 3, cfg.dim)), "p")
    single = [effective_squeezing(cfg, state, "p") for state in states]
    assert all(isinstance(value, float) for value in single)
    assert stacked.shape == (2, 3) and single[4:] == [0.0, math.inf]
    np.testing.assert_allclose(stacked.ravel(), single, rtol=1e-14, atol=0)


def test_effective_squeezing_input_state(cfg, psi0):
    # the reference value is quoted to two decimals
    assert effective_squeezing(cfg, psi0, "q") == pytest.approx(0.53, abs=0.01)


def test_effective_squeezing_direction_validation(cfg, vacuum):
    with pytest.raises(ValueError):
        effective_squeezing(cfg, vacuum, "x")


def test_effective_squeezing_symmetry_on_target(cfg, target):
    delta_q = effective_squeezing(cfg, target, "q")
    delta_p = effective_squeezing(cfg, target, "p")
    assert delta_q > 0 and delta_p > 0
    # ideal grid states have delta_q = delta_p; truncation at dim 50 breaks
    # the identity at the 1e-5 level
    assert abs(delta_q - delta_p) < 5e-5
    assert delta_q == pytest.approx(0.4, abs=5e-3)


@pytest.mark.parametrize("direction", "qp")
def test_effective_squeezing_of_a_corner_is_that_of_the_padded_state(cfg, first_level, direction):
    # a state given on its first w levels is probed with the [:w, :w] corner
    # of the probe: the real first-level posts (top level 8) on w = 9 and the
    # complex second-level p posts of two of them (top level 16) on w = 17,
    # as one state and as (n, m, w) stacks, against the same states zero-padded.
    # The bound is relative: a post of δ 2.14 has a probe overlap of 7e-4,
    # whose rounding δ magnifies about 200-fold
    _, posts = first_level
    _, second = breed_step(posts[20], posts[18:24], "p", cfg)
    for padded, width in ((posts[:48].reshape(6, 8, cfg.dim), 9), (second, 17)):
        assert not padded[..., width:].any()
        stacked = effective_squeezing(cfg, padded[..., :width], direction)
        assert stacked.shape == padded.shape[:-1]
        expected = effective_squeezing(cfg, padded, direction)
        np.testing.assert_allclose(stacked, expected, rtol=1e-14, atol=0)
        single = effective_squeezing(cfg, padded[2, 3, :width], direction)
        assert isinstance(single, float)
        assert abs(single - expected[2, 3]) <= 1e-14 * expected[2, 3]
    assert second.dtype == np.complex128 and posts.dtype == np.float64


@pytest.mark.parametrize("dim", [3, 50, 101, 200])
def test_p_probe_is_the_q_probe_between_exact_phases(dim):
    # entry [m, n] of D(i√π) is the exact i^(m−n), a ±1 or ±i, times that of
    # D(√π), bit for bit and zeros' signs included
    cfg = FockConfig(dim)
    m, n = np.indices((dim, dim))
    phases = np.array([1, 1j, -1, -1j])[(m - n) % 4]
    assert metrics._probe(cfg, "p").tobytes() == (phases * metrics._probe(cfg, "q")).tobytes()


def test_sgkp_db_values():
    assert sgkp_db(0.4) == pytest.approx(4.95, abs=0.005)
    assert sgkp_db(math.sqrt(0.5)) == pytest.approx(0.0, abs=1e-12)
    assert sgkp_db(0.35) == pytest.approx(6.109, abs=0.005)
    with pytest.raises(ValueError):
        sgkp_db(0.0)


def test_wigner_vacuum(cfg, vacuum):
    axis = np.linspace(-3, 3, 31)
    grid = wigner(vacuum, axis, axis)
    center = grid[15, 15]
    assert center == pytest.approx(1 / math.pi, abs=1e-10)
    expected = np.exp(-(axis[:, None] ** 2 + axis[None, :] ** 2)) / math.pi
    assert np.max(np.abs(grid - expected)) < 1e-10


def test_wigner_matches_brute_force_oracle(cfg, psi0):
    points = [(0.0, 0.0), (1.2, -0.7), (-2.0, 1.5), (0.5, 2.5)]
    for q, p in points:
        grid = wigner(psi0, np.array([q]), np.array([p]))
        assert grid[0, 0] == pytest.approx(wigner_point(psi0, q, p), abs=1e-8)
    # evenly spaced axes share one x grid: the default axis (q spacing over
    # 2 below the sampling bound), a coarse one (spacing over 16) and a fine
    # one (spacing under half the bound, which the y sum steps by too),
    # checked at the corners, the origin and off-diagonal points. The
    # corners sit at |α|² = 25, which the oracle needs 60 padding levels to
    # reach.
    *_, (_, _, state) = chain_prefixes(cfg, Schedule.from_string("qp"), ["C", "C"], psi0)
    for axis in (default_grid(), np.linspace(-4, 4, 21), np.linspace(-4, 4, 401)):
        grid = wigner(state, axis, axis)
        last, mid = len(axis) - 1, len(axis) // 2
        for i, j in [(0, 0), (last, last), (0, last), (mid, mid), (mid // 3, last), (last, mid // 2)]:
            expected = wigner_point(state, axis[i], axis[j], pad=60)
            assert grid[i, j] == pytest.approx(expected, abs=1e-10)


@pytest.fixture(scope="module")
def wigner_states(cfg, psi0, target, first_level):
    """Real parity-even states (both mirrors), among them the uniform qp
    chain post; a real post with nonzero levels of both parities (the p
    mirror only) and a complex post (no mirror: its cosine and sine parts
    are evaluated at the distinct |p| and combined). The last two breed the
    different first-level posts C and S1, measured in q and in p, and keep
    each step's likeliest outcome: with unequal arms the kept mode holds
    both parities."""
    *_, (_, _, qp_chain) = chain_prefixes(cfg, Schedule.from_string("qp"), ["C", "S"], psi0)
    probs, posts = first_level
    c, s1 = (select_outcome(quadrature_basis(cfg, "q"), probs, token) for token in ("C", "S1"))
    q_probs, q_posts = breed_step(posts[c], posts[s1], "q", cfg)
    p_probs, p_posts = breed_step(posts[c], posts[s1], "p", cfg)
    q_post, qp_post = q_posts[np.argmax(q_probs)], p_posts[np.argmax(p_probs)]
    assert qp_chain.dtype == np.float64 and not qp_chain[1::2].any()
    assert q_post.dtype == np.float64 and q_post[1::2].any() and q_post[0::2].any()
    assert qp_post.dtype == np.complex128 and qp_post.imag.any()
    return {
        "input": psi0,
        "target": target,
        "qp_chain": qp_chain,
        "q_post": q_post,
        "qp_post": qp_post,
    }


def test_wigner_reduced_paths_match_the_unreduced_kernel(monkeypatch, wigner_states):
    # the default axes, an even-length antisymmetric q axis with an
    # asymmetric p axis, an asymmetric q axis, and one-point q axes. On an
    # antisymmetric q axis of several points the parity-even states are
    # evaluated on an x grid over the rows q ≥ 0 only, shorter than their
    # grid on the same axis with its first point one ulp nearer 0, which is
    # not antisymmetric; every other state's x grid is as long on both.
    x_lengths = []

    def counted(max_n, x):
        x_lengths.append(len(x))
        return hermite_functions(max_n, x)

    monkeypatch.setattr(metrics, "hermite_functions", counted)
    axes = [
        (default_grid(), default_grid()),
        (np.linspace(-4, 4, 20), np.linspace(-3, 3.5, 17)),
        (np.linspace(-2, 4, 31), default_grid()),
        (np.array([0.0]), np.array([-0.3, 0.3])),
        (np.array([1.0]), np.linspace(-2, 1, 7)),
    ]
    for q_axis, p_axis in axes:
        unmirrored = q_axis.copy()
        unmirrored[0] = np.nextafter(unmirrored[0], 0)
        halved = len(q_axis) > 1 and np.array_equal(q_axis, -q_axis[::-1])
        for name, state in wigner_states.items():
            values = wigner(state, q_axis, p_axis)
            expected = unreduced_wigner(state, q_axis, p_axis)
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-13)
            length = x_lengths[-1]
            wigner(state, unmirrored, p_axis)
            one_parity = name in ("input", "target", "qp_chain")
            assert (length < x_lengths[-1]) == (halved and one_parity), name
            assert length <= x_lengths[-1], name


def test_wigner_of_a_zero_padded_state_is_bitwise_the_same(wigner_states):
    # the step, the x grid and the y sum follow the levels a state occupies,
    # not its length: a real one-parity, a real mixed-parity and a complex
    # state draw the same grid padded with 0, 30 and 450 zero levels
    axes = [(default_grid(), default_grid()), (np.linspace(-2, 4, 31), default_grid())]
    for name in ("input", "qp_chain", "q_post", "qp_post"):
        state = wigner_states[name]
        for q_axis, p_axis in axes:
            grid = wigner(state, q_axis, p_axis)
            for pad in (0, 30, 450):
                padded = np.concatenate([state, np.zeros(pad, dtype=state.dtype)])
                np.testing.assert_array_equal(wigner(padded, q_axis, p_axis), grid, err_msg=name)


def test_wigner_reduced_paths_match_brute_force_oracle(wigner_states):
    axis = default_grid()
    for name, state in wigner_states.items():
        grid = wigner(state, axis, axis)
        for i, j in [(100, 100), (37, 160), (160, 37), (130, 80)]:
            expected = wigner_point(state, axis[i], axis[j], pad=60)
            assert grid[i, j] == pytest.approx(expected, abs=1e-10), (name, i, j)


def test_default_grid_wigner_is_bitwise_mirror_symmetric(wigner_states):
    axis = default_grid()
    np.testing.assert_array_equal(axis, -axis[::-1])
    np.testing.assert_array_equal(axis, 0.05 * np.arange(-100, 101))
    for name in ("input", "target", "qp_chain"):
        values = wigner(wigner_states[name], axis, axis)
        np.testing.assert_array_equal(values, values[::-1])
        np.testing.assert_array_equal(values, values[:, ::-1])
    # a real state with nonzero levels of both parities is mirrored in p
    values = wigner(wigner_states["q_post"], axis, axis)
    np.testing.assert_array_equal(values, values[:, ::-1])


def test_wigner_rejects_uneven_q_axis(psi0):
    axis = np.linspace(-3, 3, 31)
    for q_axis in (np.append(axis, 3.5), np.zeros(3)):
        with pytest.raises(ValueError, match="q_axis"):
            wigner(psi0, q_axis, axis)


def test_wigner_evaluates_the_wavefunction_once(monkeypatch, psi0):
    # from the Hermite functions up to the top occupied level, 4 for psi0
    calls = []

    def counted(max_n, x):
        calls.append(max_n)
        return hermite_functions(max_n, x)

    monkeypatch.setattr(metrics, "hermite_functions", counted)
    wigner(psi0, default_grid(), default_grid())
    assert calls == [5]


def test_wigner_normalization_and_symmetry(psi0):
    axis = np.linspace(-6.0, 6.0, 241)
    grid = wigner(psi0, axis, axis)
    assert np.trapezoid(np.trapezoid(grid, axis, axis=1), axis) == pytest.approx(1.0, abs=0.02)
    # psi0 has Fock support {0, 4}: fourfold rotational symmetry means the
    # grid is symmetric under q <-> p
    assert np.max(np.abs(grid - grid.T)) < 1e-8


def test_hermite_functions_match_oracle():
    x = np.linspace(-4, 4, 17)
    ours = hermite_functions(30, x)
    theirs = hermite_phi(29, x)
    assert np.max(np.abs(ours - theirs)) < 1e-12


def test_position_density_normalized(psi0, target):
    axis = np.linspace(-8, 8, 2001)
    for state in (psi0, target):
        density = position_density(state, axis)
        assert np.trapezoid(density, axis) == pytest.approx(1.0, abs=1e-4)


def test_position_density_of_a_real_state_matches_its_complex_cast(psi0, target):
    axis = np.linspace(-8, 8, 401)
    for state in (psi0, target):
        density = position_density(state, axis)
        expected = position_density(state.astype(complex), axis)
        np.testing.assert_allclose(density, expected, rtol=0, atol=1e-15)


def test_position_density_grid_spacing(target):
    # qunaught peaks sit sqrt(2 pi) apart
    axis = np.linspace(-6, 6, 4801)
    density = position_density(target, axis)
    peaks = [
        axis[i]
        for i in range(1, len(axis) - 1)
        if density[i] > density[i - 1] and density[i] > density[i + 1] and density[i] > 0.05
    ]
    spacings = np.diff(peaks)
    assert np.max(np.abs(spacings - math.sqrt(2 * math.pi))) < 0.05
