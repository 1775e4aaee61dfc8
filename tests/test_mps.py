import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpstomo
from mpstomo import (
    FormatError,
    MatrixProductState,
    ParameterError,
    ResourceError,
    StateError,
    load_mps,
    max_canonical_defect,
    random_init,
    split_two_site,
    w_state,
)
from mpstomo.mps import outcome_indices
from mpstomo.rotations import rotation_matrices

from conftest import dense_from_tensors, shot_probability


def random_mps(n, q, d, rng):
    tensors = []
    for k in range(n):
        d1 = min(d, q**k, q ** (n - k))
        d2 = min(d, q ** (k + 1), q ** (n - k - 1))
        tensors.append(rng.standard_normal((d1, q, d2)) + 1j * rng.standard_normal((d1, q, d2)))
    m = MatrixProductState(tensors).canonicalize(0)
    t0 = m.tensor(0)
    t0 /= np.linalg.norm(t0)
    return m


class TestRandomInit:
    def test_product_when_bond_one(self):
        m = random_init(2, 2, 1, seed=7)
        assert m.bond_dims == [1]
        assert abs(m.norm() - 1.0) < 1e-10

    def test_deterministic(self):
        a = random_init(4, 2, 2, seed=7)
        b = random_init(4, 2, 2, seed=7)
        for k in range(4):
            np.testing.assert_array_equal(a.tensor(k), b.tensor(k))

    def test_qutrit_dense_norm(self):
        m = random_init(4, 3, 2, seed=0)
        vec = m.to_dense()
        assert vec.shape == (81,)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-10

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ParameterError):
            random_init(1, 2, 2, seed=0)
        with pytest.raises(ParameterError):
            random_init(3, 1, 2, seed=0)
        with pytest.raises(ParameterError):
            random_init(3, 2, 0, seed=0)


class TestCanonicalize:
    def test_idempotent_amplitudes(self, rng):
        m = random_mps(5, 2, 3, rng)
        once = m.canonicalize(2)
        twice = once.canonicalize(2)
        a = once.to_dense()
        b = twice.to_dense()
        phase = b[np.argmax(np.abs(b))] / a[np.argmax(np.abs(b))]
        assert abs(abs(phase) - 1.0) < 1e-12
        np.testing.assert_allclose(a * phase, b, atol=1e-12)

    def test_gauge_invariance(self, rng):
        m = random_mps(6, 2, 4, rng)
        for c in (0, 3, 5):
            f, r = m.fidelity_distance(m.canonicalize(c))
            assert abs(f - 1.0) < 1e-10

    def test_left_canonical_identity(self, rng):
        m = random_mps(6, 2, 4, rng).canonicalize(5)
        for k in range(5):
            t = m.tensor(k)
            g = np.einsum("ivj,ivl->jl", t.conj(), t)
            np.testing.assert_allclose(g, np.eye(g.shape[0]), atol=1e-10)
        assert max_canonical_defect(m) < 1e-10

    def test_right_canonical_identity(self, rng):
        m = random_mps(6, 2, 4, rng).canonicalize(0)
        for k in range(1, 6):
            t = m.tensor(k)
            g = np.einsum("ivj,lvj->il", t.conj(), t)
            np.testing.assert_allclose(g, np.eye(g.shape[0]), atol=1e-10)

    def test_preserves_norm(self, rng):
        m = random_mps(4, 3, 3, rng)
        assert abs(m.canonicalize(2).norm() - 1.0) < 1e-10


class TestAmplitude:
    """Rotated amplitudes, as the training NLL evaluates them."""

    def test_single_qubit_x_rotation(self):
        zero = MatrixProductState([np.array([1.0, 0.0]).reshape(1, 2, 1)])
        basis = (np.array([np.pi / 2]), np.array([0.0]))
        for m in (0.5, -0.5):
            assert abs(shot_probability(zero, basis, [m]) - 0.5) < 1e-12

    def test_rotated_completeness(self, rng):
        m = random_mps(5, 2, 3, rng)
        thetas = rng.uniform(0, np.pi, 5)
        phis = rng.uniform(0, 2 * np.pi, 5)
        basis = (thetas, phis)
        total = 0.0
        for v in range(2**5):
            ms = [0.5 - ((v >> (4 - j)) & 1) for j in range(5)]
            total += shot_probability(m, basis, ms)
        assert abs(total - 1.0) < 1e-9

    def test_rejects_out_of_range_outcome(self):
        with pytest.raises(ParameterError, match="out of range"):
            outcome_indices([0.5, 1.5, 0.5], 2)
        with pytest.raises(ParameterError, match="S - m integer"):
            outcome_indices([0.3, 0.5], 2)


class TestFidelityDistance:
    def test_identity(self, rng):
        m = random_mps(4, 2, 3, rng)
        f, r = m.fidelity_distance(m)
        assert abs(f - 1.0) < 1e-12 and r < 1e-6

    def test_orthogonal_product_states(self):
        up = np.array([1.0, 0.0]).reshape(1, 2, 1)
        down = np.array([0.0, 1.0]).reshape(1, 2, 1)
        a = MatrixProductState([up, up])
        b = MatrixProductState([down, down])
        f, r = a.fidelity_distance(b)
        assert f == 0.0
        assert abs(r - 1 / np.sqrt(2)) < 1e-12

    def test_matches_dense_inner_product(self, rng):
        a = random_mps(5, 2, 4, rng)
        b = random_mps(5, 2, 3, rng)
        f, _ = a.fidelity_distance(b)
        dense = abs(np.vdot(a.to_dense(), b.to_dense()))
        assert abs(f - dense) < 1e-10

    def test_symmetric(self, rng):
        a = random_mps(4, 2, 2, rng)
        b = random_mps(4, 2, 3, rng)
        assert abs(a.fidelity_distance(b)[0] - b.fidelity_distance(a)[0]) < 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ParameterError):
            random_mps(4, 2, 2, rng).fidelity_distance(random_mps(5, 2, 2, rng))


class TestMergeSplit:
    def test_requires_center_at_bond(self, rng):
        m = random_mps(5, 2, 3, rng).canonicalize(0)
        with pytest.raises(StateError):
            m.merge_adjacent(3)

    def test_merge_matches_dense_contraction(self, rng):
        m = random_mps(4, 2, 3, rng).canonicalize(1)
        merged = m.merge_adjacent(1)
        direct = np.einsum("ivj,jwl->ivwl", m.tensor(1), m.tensor(2))
        np.testing.assert_allclose(merged, direct, atol=1e-12)

    def test_exact_roundtrip(self, rng):
        m = random_mps(5, 2, 4, rng).canonicalize(2)
        before = m.to_dense()
        merged = m.merge_adjacent(2)
        left, right, w = split_two_site(merged, d_cap=64, eta=0.0, direction="right")
        assert w == 0.0
        tensors = [m.tensor(k) for k in range(5)]
        tensors[2], tensors[3] = left, right
        after = MatrixProductState(tensors).to_dense()
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_product_state_merge_is_rank_one(self):
        m = random_init(4, 2, 1, seed=3).canonicalize(1)
        merged = m.merge_adjacent(1)
        d1, q, q2, d2 = merged.shape
        s = np.linalg.svd(merged.reshape(d1 * q, q2 * d2), compute_uv=False)
        assert s[1] < 1e-12

    def test_bell_pair_truncation_weight(self):
        bell = np.zeros((1, 2, 2, 1), dtype=complex)
        bell[0, 0, 1, 0] = 1 / np.sqrt(2)
        bell[0, 1, 0, 0] = 1 / np.sqrt(2)
        _, _, w = split_two_site(bell, d_cap=1, eta=0.0, direction="left")
        assert abs(w - 0.5) < 1e-12

    def test_truncation_fidelity_identity(self, rng):
        data = rng.standard_normal((3, 2, 2, 3)) + 1j * rng.standard_normal((3, 2, 2, 3))
        data /= np.linalg.norm(data)
        left, right, w = split_two_site(data, d_cap=2, eta=0.0, direction="right")
        rebuilt = np.einsum("ivj,jwl->ivwl", left, right)
        overlap = abs(np.vdot(data, rebuilt))
        assert overlap >= np.sqrt(1.0 - w) - 1e-9

    def test_split_moves_center(self, rng):
        data = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
        left, right, _ = split_two_site(data, 8, 0.0, "right")
        g = np.einsum("ivj,ivl->jl", left.conj(), left)
        np.testing.assert_allclose(g, np.eye(g.shape[0]), atol=1e-12)
        left, right, _ = split_two_site(data, 8, 0.0, "left")
        g = np.einsum("ivj,lvj->il", right.conj(), right)
        np.testing.assert_allclose(g, np.eye(g.shape[0]), atol=1e-12)


    def test_gesvd_fallback_when_gesdd_fails(self, rng, monkeypatch):
        import scipy.linalg

        data = rng.standard_normal((2, 2, 2, 3)) + 1j * rng.standard_normal((2, 2, 2, 3))
        u, s, vh = scipy.linalg.svd(data.reshape(4, 6), full_matrices=False, lapack_driver="gesvd")
        calls = []

        def failing_svd(*args, **kwargs):
            calls.append(args)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        left, right, w = split_two_site(data, 8, 0.0, "right")
        assert len(calls) == 1 and w == 0.0
        np.testing.assert_allclose(left, u.reshape(2, 2, 4), atol=1e-12)
        s_kept = s / np.linalg.norm(s)
        np.testing.assert_allclose(right, (s_kept[:, None] * vh).reshape(4, 2, 3), atol=1e-12)


def test_import_leaves_scipy_unloaded():
    code = "import sys, mpstomo; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(mpstomo.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestRenyi2:
    def test_product_state_zero(self):
        m = random_init(5, 2, 1, seed=1)
        for k in range(4):
            assert abs(m.renyi2_entropy(k)) < 1e-12

    def test_bell_pair(self):
        from mpstomo import dimer_state

        assert abs(dimer_state(2).renyi2_entropy(0) - np.log(2)) < 1e-12

    def test_matches_dense_reduced_density_matrix(self, rng):
        n = 6
        m = random_mps(n, 2, 4, rng)
        vec = m.to_dense()
        for k in range(n - 1):
            rho = np.outer(vec, vec.conj()).reshape(2 ** (k + 1), 2 ** (n - k - 1), 2 ** (k + 1), 2 ** (n - k - 1))
            rho_left = np.einsum("ajbj->ab", rho)
            purity = float(np.trace(rho_left @ rho_left).real)
            assert abs(m.renyi2_entropy(k) - (-np.log(purity))) < 1e-9

    def test_bound(self, rng):
        n = 6
        m = random_mps(n, 2, 8, rng)
        for k in range(n - 1):
            bound = np.log(min(2 ** (k + 1), 2 ** (n - k - 1)))
            assert m.renyi2_entropy(k) <= bound + 1e-9


class TestToDense:
    def test_single_site(self):
        t = np.array([0.6, 0.8j]).reshape(1, 2, 1)
        m = MatrixProductState([t])
        np.testing.assert_allclose(m.to_dense(), [0.6, 0.8j])

    def test_w_state_coefficients(self):
        vec = w_state(3, 0.0).to_dense()
        expect = np.zeros(8, dtype=complex)
        for onehot in (0b100, 0b010, 0b001):
            expect[onehot] = 1 / np.sqrt(3)
        np.testing.assert_allclose(vec, expect, atol=1e-12)

    def test_matches_reference_contraction(self, rng):
        m = random_mps(4, 2, 3, rng)
        np.testing.assert_allclose(m.to_dense(), dense_from_tensors([m.tensor(k) for k in range(4)]), atol=1e-12)

    def test_size_limit(self):
        # 2**21 entries exceed DENSE_LIMIT; the check fires before any contraction
        m = MatrixProductState([np.ones((1, 2, 1))] * 21)
        with pytest.raises(ResourceError):
            m.to_dense()


class TestSerialization:
    def test_roundtrip_bitwise(self, rng, tmp_path):
        m = random_mps(5, 3, 4, rng)
        path = tmp_path / "state.mps"
        m.save(path)
        loaded = load_mps(path)
        assert loaded.n_sites == 5 and loaded.local_dim == 3
        for k in range(5):
            np.testing.assert_array_equal(loaded.tensor(k), m.tensor(k))

    def test_header_layout(self, rng, tmp_path):
        m = random_mps(3, 2, 2, rng)
        path = tmp_path / "state.mps"
        m.save(path)
        raw = path.read_bytes()
        assert raw[:4] == b"MPS1"
        n = int.from_bytes(raw[4:8], "little")
        q = int.from_bytes(raw[8:12], "little")
        assert (n, q) == (3, 2)
        bonds = np.frombuffer(raw, dtype="<u4", count=2, offset=12)
        assert list(bonds) == m.bond_dims

    # W4 layout: 12-byte header, bonds (2, 2, 2) at byte 12, then site
    # tensors of 4, 8, 8 and 4 complex entries at bytes 24, 88, 216 and 344;
    # 408 bytes in all
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda raw: raw[:8], "byte 8: file ends inside the 12-byte header"),
            (lambda raw: b"MPS2" + raw[4:], "byte 0: bad magic"),
            (lambda raw: raw[:18], "byte 12: bond header runs past the end"),
            (lambda raw: raw[:-8], "byte 344: site 3 tensor runs past the end"),
            (lambda raw: raw[:16] + struct.pack("<I", 10**6) + raw[20:],
             "byte 88: site 1 tensor runs past the end"),
            (lambda raw: raw[:120] + struct.pack("<d", np.nan) + raw[128:],
             "byte 120: non-finite entry in site 1"),
            (lambda raw: raw[:224] + struct.pack("<d", -np.inf) + raw[232:],
             "byte 216: non-finite entry in site 2"),
            (lambda raw: raw + bytes(8), "byte 408: trailing bytes"),
            (lambda raw: raw[:16] + struct.pack("<I", 0) + raw[20:],
             "byte 16: bond 1 has dimension 0"),
            # whole files: N = 2, q = 0 with bond header [1]; N = 0; N = 2, q = 1
            # with its two one-entry tensors
            (lambda raw: raw[:4] + struct.pack("<III", 2, 0, 1), "byte 8: local dimension 0"),
            (lambda raw: raw[:4] + struct.pack("<II", 0, 2), "byte 4: 0 sites"),
            (lambda raw: raw[:4] + struct.pack("<III", 2, 1, 1) + bytes(32),
             "byte 8: local dimension 1"),
        ],
        ids=["short-header", "bad-magic", "cut-bond-header", "cut-payload", "oversized-bond",
             "nan-real", "inf-imag", "trailing", "zero-bond", "q0", "n0", "q1"],
    )
    def test_malformed_file_names_byte_offset(self, tmp_path, mutate, message):
        path = tmp_path / "w4.mps"
        w_state(4, 0.1).save(path)
        raw = path.read_bytes()
        assert len(raw) == 408
        path.write_bytes(mutate(raw))
        with pytest.raises(FormatError, match=message):
            load_mps(path)

    def test_rotation_of_rotated_z_is_identity(self):
        u = rotation_matrices(0.0, 1.3, 0.5)
        np.testing.assert_array_equal(u, np.eye(2))
