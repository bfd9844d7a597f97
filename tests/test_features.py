"""Feature assembly invariants and the backend block layout contract."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pacgibbs.errors import InvalidFeatureError
from pacgibbs.features import assemble
from pacgibbs.gmm import GmmBackend, GmmParams


class TestAssemble:
    def test_zero_blocks_leave_only_constant(self):
        phi, phi_bar = assemble(np.zeros((1, 2)), np.zeros((1, 2)))
        assert phi[0] == pytest.approx([0, 0, 0, 0, 1])
        assert phi_bar[0] == pytest.approx([0, 0, 0, 0, 1])

    def test_direct_normalization(self):
        phi, phi_bar = assemble(np.array([[3.0]]), np.array([[0.0]]))
        assert phi[0] == pytest.approx([3.0, 0.0, 1.0])
        assert np.linalg.norm(phi_bar[0]) == pytest.approx(1.0, abs=1e-12)
        assert phi_bar[0] == pytest.approx(np.array([3.0, 0.0, 1.0]) / np.sqrt(10.0))

    def test_single_component_gmm_block(self):
        backend = GmmBackend(
            GmmParams(
                weights=np.array([1.0]),
                means=np.array([[0.0]]),
                variances=np.array([[1.0]]),
            ),
            variance_floor=np.array([1e-8]),
        )
        x = np.array([2.0])
        a = backend.approx_posterior([x])
        (block,) = backend.feature_block([x], np.array([[1.0]]), a)
        assert block == pytest.approx([2.0, 4.0, 1.0, 0.0])

    def test_nan_block_rejected(self):
        with pytest.raises(InvalidFeatureError):
            assemble(np.array([[np.nan]]), np.array([[0.0]]))

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
    )
    def test_shape_and_norm_invariants(self, bp, bm):
        phi, phi_bar = assemble(np.array([bp]), np.array([bm]))
        assert phi.shape == (1, len(bp) + len(bm) + 1)
        assert phi[0, -1] == 1.0
        assert np.linalg.norm(phi_bar[0]) == pytest.approx(1.0, abs=1e-12)

    def test_rows_of_a_stack_match_single_row_assembly(self):
        rng = np.random.default_rng(15)
        bp = rng.normal(size=(9, 4)) * 10.0 ** rng.integers(-3, 4, size=(9, 1))
        bm = rng.normal(size=(9, 3))
        phi, phi_bar = assemble(bp, bm)
        for i in range(9):
            phi_i, phi_bar_i = assemble(bp[i : i + 1], bm[i : i + 1])
            assert phi[i].tobytes() == phi_i[0].tobytes()
            np.testing.assert_allclose(phi_bar[i], phi_bar_i[0], rtol=2 * np.finfo(float).eps)
            assert np.linalg.norm(phi_bar[i]) == pytest.approx(1.0, abs=1e-15)

    def test_normalization_idempotent(self):
        _, phi_bar = assemble(np.array([[5.0, -2.0]]), np.array([[1.0]]))
        again = phi_bar[0] / np.linalg.norm(phi_bar[0])
        assert again == pytest.approx(phi_bar[0], abs=1e-15)
