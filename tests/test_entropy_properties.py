"""Entropy properties over random mode counts, subsystem sizes and squeezing
vectors, for the public Gaussian API and for the sampler.

The sampler never forms a covariance matrix and is checked up to |s_i| = 5.
The public functions take a covariance that `evolve` has already rounded to
doubles, and that rounding alone moves the entropies by about
eps * exp(4 max|s_i|): past |s_i| = 3 the complement defect of the public
route exceeds 1e-9, and at |s_i| = 5 some spectra fall below the uncertainty
bound.  So the public API is checked up to |s_i| = 3.

At |s| = 5, S1 - S2 comes within 1e-9 of its strict upper bound k (1 - log 2),
so the bounds carry that allowance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagecurve import (
    RunConfig,
    SqueezingConfig,
    build_initial_covariance,
    derive_substream,
    evolve,
    max_subsystem_entropy,
    reduce_modes,
    reduce_subsystem,
    renyi2_entropy,
    sample_entropies,
    sample_haar_unitary,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from pagecurve.gaussian import _initial_diagonal
from pagecurve.haar import SeededStream, _haar_frame
from pagecurve.montecarlo import _entropies_for_sample

TOL = 1e-9
GAP = 1.0 - math.log(2.0)  # sup of S1 - S2 per mode
PUBLIC_MAX_S = 3.0
SAMPLER_MAX_S = 5.0


@st.composite
def systems(draw, max_s, equal=False):
    """(n, k, squeezing, seed) with 2 <= n <= 12, 0 < k < n and |s_i| <= max_s."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    strength = st.floats(-max_s, max_s, allow_nan=False)
    if equal:
        values = (draw(strength),) * n
    else:
        values = tuple(draw(st.lists(strength, min_size=n, max_size=n)))
    return n, k, SqueezingConfig(values), draw(st.integers(0, 2**32 - 1))


def public_entropies(sigma):
    return renyi2_entropy(sigma), von_neumann_entropy(symplectic_eigenvalues(sigma))


def public_state(n, squeezing, seed):
    u = sample_haar_unitary(n, SeededStream(seed, 0))
    return evolve(build_initial_covariance(squeezing), u)


def sampled(n, k, squeezing, seed):
    """The sampler's per-sample (S2, S1) of the first k and the first n - k modes."""
    config = RunConfig(
        n=n, squeezing=squeezing, subsystem_sizes=(k, n - k), samples=4, master_seed=seed
    )
    return sample_entropies(config, with_s1=True)


def kernel_on_unitaries(n, k, squeezing, seed, reverse_rows=False):
    """The sampler's kernel on the full Haar unitaries of samples 0-3 of (seed, namespace 0)."""
    scale = np.sqrt(_initial_diagonal(squeezing.values))
    rows = []
    for j in range(4):
        u = _haar_frame(n, n, [derive_substream(SeededStream(seed, 0), j).generator()])[0]
        u = u[::-1] if reverse_rows else u
        rows.append(_entropies_for_sample(u.T[None], n, scale, (k, n - k), True)[0])
    rows = np.array(rows)
    return rows[:, 0], rows[:, 1]


def assert_entropy_bounds(s2, s1, k):
    assert np.all(s2 - TOL <= s1)
    assert np.all(s1 <= s2 + k * GAP + TOL)


class TestPublicApi:
    @settings(max_examples=60, deadline=None)
    @given(systems(PUBLIC_MAX_S))
    def test_complement_and_bounds(self, system):
        n, k, squeezing, seed = system
        state = public_state(n, squeezing, seed)
        s2, s1 = public_entropies(reduce_subsystem(state, k))
        c2, c1 = public_entropies(reduce_modes(state, range(k, n)))
        assert abs(s2 - c2) <= TOL and abs(s1 - c1) <= TOL
        assert_entropy_bounds(np.array(s2), np.array(s1), k)

    @settings(max_examples=40, deadline=None)
    @given(systems(PUBLIC_MAX_S, equal=True))
    def test_renyi2_range(self, system):
        n, k, squeezing, seed = system
        s2 = renyi2_entropy(reduce_subsystem(public_state(n, squeezing, seed), k))
        assert 0.0 <= s2 <= max_subsystem_entropy(n, k, squeezing.values[0], 2) + TOL


class TestSampler:
    @settings(max_examples=60, deadline=None)
    @given(systems(SAMPLER_MAX_S))
    def test_complement_and_bounds(self, system):
        # reversing U's rows turns the first n - k modes into the complement
        # of the first k
        n, k, squeezing, seed = system
        s2, s1 = kernel_on_unitaries(n, k, squeezing, seed)
        r2, r1 = kernel_on_unitaries(n, k, squeezing, seed, reverse_rows=True)
        assert np.abs(s2 - r2[:, ::-1]).max() <= TOL
        assert np.abs(s1 - r1[:, ::-1]).max() <= TOL
        assert_entropy_bounds(s2[:, 0], s1[:, 0], k)
        assert_entropy_bounds(s2[:, 1], s1[:, 1], n - k)

    @settings(max_examples=40, deadline=None)
    @given(systems(SAMPLER_MAX_S, equal=True))
    def test_renyi2_range(self, system):
        n, k, squeezing, seed = system
        s2, _ = sampled(n, k, squeezing, seed)
        assert np.all(s2 >= 0.0)
        assert np.all(s2 <= max_subsystem_entropy(n, k, squeezing.values[0], 2) + TOL)

    @pytest.mark.parametrize("s", [8.0, 12.0])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_s1_at_large_squeezing(self, s, k):
        # past s ~ 8 the k - (n - k) symplectic eigenvalues that purity pins
        # to 1 round below 1 - PURITY_CLAMP; S1 uses only the top min(k, n - k)
        n, squeezing = 8, SqueezingConfig.equal(8, s)
        s2, s1 = kernel_on_unitaries(n, k, squeezing, 11)
        _, r1 = kernel_on_unitaries(n, k, squeezing, 11, reverse_rows=True)
        assert np.abs(s1 - r1[:, ::-1]).max() <= TOL * np.abs(s1).max()
        for col, size in ((0, k), (1, n - k)):
            assert np.all(s2[:, col] <= s1[:, col])
            assert np.all(s1[:, col] <= max_subsystem_entropy(n, size, s, 1))
        s2, s1 = sampled(n, k, squeezing, 11)
        assert np.all(s2 <= s1)
