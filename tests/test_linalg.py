import numpy as np
import pytest

from sdpack import linalg
from sdpack.errors import DimensionMismatch, InvalidInput, NotPsd


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    B = rng.standard_normal((n, rank))
    return B @ B.T


class TestEigh:
    def test_identity(self):
        dec = linalg.eigh_desc(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        dec = linalg.eigh_desc(np.diag([2.7, 0.3]))
        assert np.allclose(dec.eigenvalues, [2.7, 0.3])

    def test_dual_slack_matrix(self):
        # [[0.27, -0.27], [-0.27, 0.27]]: trace 0.54, det 0 -> eigenvalues (0.54, 0)
        s = np.array([[0.27, -0.27], [-0.27, 0.27]])
        dec = linalg.eigh_desc(s)
        assert np.allclose(dec.eigenvalues, [0.54, 0.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 7, 12):
            a = rng.standard_normal((n, n))
            s = 0.5 * (a + a.T)
            dec = linalg.eigh_desc(s)
            rec = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
            assert np.linalg.norm(rec - s) <= 1e-10 * max(1.0, np.linalg.norm(s))
            gram = dec.eigenvectors.T @ dec.eigenvectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            linalg.eigh_desc(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.eigh_desc(np.ones((2, 3)))


class TestRank:
    def test_zero_matrix(self):
        assert linalg.rank_tol(np.zeros((3, 3))) == 0

    def test_rank_one_outer_product(self):
        c = (np.sqrt(3) / 10.0) * np.array([9.0, 1.0])
        assert linalg.rank_tol(np.outer(c, c)) == 1

    def test_identity(self):
        assert linalg.rank_tol(np.eye(3)) == 3

    def test_bad_tolerance(self):
        with pytest.raises(InvalidInput):
            linalg.rank_tol(np.eye(2), tol=-1.0)

    @pytest.mark.parametrize("kind", ["zero", "negative_zero", "tiny_psd",
                                      "antisymmetric", "rank_one"])
    def test_zero_test_agrees_with_rank(self, kind):
        a = np.random.default_rng(31).standard_normal((4, 4))
        m = {"zero": np.zeros((4, 4)),
             "negative_zero": np.where(a > 0, 0.0, -0.0),
             "tiny_psd": 1e-300 * (a @ a.T),
             "antisymmetric": a - a.T,
             "rank_one": np.outer(a[0], a[0])}[kind]
        assert linalg.is_zero(m) == (linalg.rank_tol(m) == 0)
        assert linalg.is_zero(m) == (kind in ("zero", "negative_zero", "antisymmetric"))

    def test_queries_on_one_decomposition(self):
        m = random_psd(np.random.default_rng(32), 5, rank=3)
        dec = linalg.eigh_desc(m)
        assert dec.rank() == linalg.rank_tol(m) == 3
        assert np.array_equal(dec.range_basis(), linalg.range_basis(m))
        assert np.array_equal(dec.null_basis(), linalg.null_basis(m))
        assert np.array_equal(dec.pinv(), linalg.pinv(m))


class TestBases:
    def test_range_identity(self):
        u = linalg.range_basis(np.eye(2))
        assert u.shape == (2, 2)
        assert np.allclose(u.T @ u, np.eye(2))

    def test_range_diag(self):
        u = linalg.range_basis(np.diag([1.0, 0.0]))
        assert u.shape == (2, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_range_two_axes_in_r3(self):
        s = np.diag([1.0, 1.0, 0.0])
        u = linalg.range_basis(s)
        assert u.shape == (3, 2)
        assert np.allclose(u[2, :], 0.0, atol=1e-12)

    def test_null_diag(self):
        v = linalg.null_basis(np.diag([1.0, 0.0]))
        assert v.shape == (2, 1)
        assert abs(abs(v[1, 0]) - 1.0) < 1e-12

    def test_null_identity_empty(self):
        v = linalg.null_basis(np.eye(2))
        assert v.shape == (2, 0)

    def test_null_ones_matrix(self):
        v = linalg.null_basis(np.ones((2, 2)))
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert v.shape == (2, 1)
        assert min(np.linalg.norm(v[:, 0] - expected),
                   np.linalg.norm(v[:, 0] + expected)) < 1e-12

    def test_indefinite_rejected(self):
        with pytest.raises(NotPsd):
            linalg.range_basis(np.diag([1.0, -1.0]))

    def test_range_null_complement(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            u = linalg.range_basis(s)
            v = linalg.null_basis(s)
            assert u.shape[1] + v.shape[1] == n
            assert u.shape[1] == linalg.rank_tol(s)
            if u.shape[1] and v.shape[1]:
                assert np.abs(u.T @ v).max() <= 1e-10


class TestPsdFactor:
    def test_identity(self):
        a = linalg.psd_factor(np.eye(2))
        assert a.shape == (2, 2)
        assert np.allclose(a.T @ a, np.eye(2))

    def test_singular_diag(self):
        a = linalg.psd_factor(np.diag([4.0, 0.0]))
        assert a.shape == (1, 2)
        assert np.allclose(a.T @ a, np.diag([4.0, 0.0]))

    def test_full_matrix(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        a = linalg.psd_factor(m)
        assert np.linalg.norm(a.T @ a - m) <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_zero(self):
        a = linalg.psd_factor(np.zeros((3, 3)))
        assert a.shape == (0, 3)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            m = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            a = linalg.psd_factor(m)
            assert a.shape[0] == linalg.rank_tol(m)
            assert np.linalg.norm(a.T @ a - m) <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_not_psd(self):
        with pytest.raises(NotPsd) as exc:
            linalg.psd_factor(np.diag([1.0, -2.0]))
        assert exc.value.witness == pytest.approx(-2.0)


class TestPinv:
    def test_identity(self):
        assert np.allclose(linalg.pinv(np.eye(2)), np.eye(2))

    def test_singular_diag(self):
        assert np.allclose(linalg.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_rank_one(self):
        s = np.ones((2, 2))
        assert np.allclose(linalg.pinv(s), 0.25 * np.ones((2, 2)))

    def test_penrose_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            s = 0.5 * (a + a.T)
            p = linalg.pinv(s)
            scale = max(1.0, np.linalg.norm(s))
            assert np.linalg.norm(s @ p @ s - s) <= 1e-8 * scale
            assert np.linalg.norm(p @ s @ p - p) <= 1e-8 * max(1.0, np.linalg.norm(p))
            assert np.linalg.norm((s @ p).T - s @ p) <= 1e-8
            assert np.linalg.norm((p @ s).T - p @ s) <= 1e-8


class TestIsPsd:
    def test_dual_slack_of_tangent_instance(self):
        c = (np.sqrt(3) / 10.0) * np.array([9.0, 1.0])
        s = np.diag([2.7, 0.3]) - np.outer(c, c)
        ok, witness = linalg.is_psd(s)
        assert ok
        assert abs(witness) < 1e-12

    def test_negative_identity(self):
        ok, witness = linalg.is_psd(-np.eye(2))
        assert not ok
        assert witness == pytest.approx(-1.0)

    def test_zero(self):
        ok, _ = linalg.is_psd(np.zeros((2, 2)))
        assert ok
