"""Algebraic core: Jordan-Wigner fermions, supercharge decomposition,
matrix functions and gauge structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import block_diag

from susylattice import operators as op
from susylattice.tensorrep import TensorSpinRep


def test_operator_matrix_immutable_and_shapes():
    m = op.OperatorMatrix(np.eye(2))
    with pytest.raises(AttributeError):
        m.mat = np.zeros((2, 2))
    with pytest.raises(ValueError):
        op.OperatorMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        op.OperatorMatrix([[0, 1], [0, 0]], hermitian=True)


def test_spectral_vs_frobenius_norm():
    m = op.OperatorMatrix([[1, 1], [0, 1]])
    assert m.norm() == pytest.approx(1.618033988749895, abs=1e-12)
    assert m.fro() == pytest.approx(np.sqrt(3), abs=1e-12)


@settings(deadline=None, max_examples=8)
@given(n_sites=st.integers(1, 2), n_flavors=st.integers(1, 3))
def test_car_relations(n_sites, n_flavors):
    spec = op.LatticeSpec(n_sites, n_flavors)
    ops = op.fermion_ops(spec)
    eye = np.eye(spec.dim)
    for i, a in enumerate(ops):
        assert np.abs((a @ a).mat).max() < 1e-14
        for j, b in enumerate(ops):
            anti = (a @ b.dag + b.dag @ a).mat
            expect = eye if i == j else 0 * eye
            assert np.abs(anti - expect).max() < 1e-12


def test_mode_index_site_major():
    spec = op.LatticeSpec(3, 2)
    assert spec.mode_index(0, 0) == 0
    assert spec.mode_index(0, 1) == 1
    assert spec.mode_index(2, 1) == 5
    with pytest.raises(ValueError):
        spec.mode_index(3, 0)


def test_mode_bound_enforced():
    with pytest.raises(op.DimensionError):
        op.fermion_ops(op.LatticeSpec(5, 3))  # 15 modes > 14


def test_hermitian_function_matches_scalar():
    g = op.OperatorMatrix([[2, 0], [0, 3]], hermitian=True)
    e = op.hermitian_function(g, np.exp)
    assert np.allclose(e.mat, np.diag(np.exp([2.0, 3.0])))
    with pytest.raises(ValueError):
        op.hermitian_function(op.OperatorMatrix([[0, 1], [0, 0]]), np.exp)


def test_unitary_flow_is_conjugation():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g = op.OperatorMatrix(h + h.conj().T, hermitian=True)
    a = op.OperatorMatrix(rng.normal(size=(4, 4)))
    s = 0.37
    from scipy.linalg import expm
    u = expm(1j * s * g.mat)
    ref = u @ a.mat @ u.conj().T
    assert np.abs(op.unitary_flow(g, s, a).mat - ref).max() < 1e-12


def test_psd_sqrt_and_negative_rejection():
    h = op.OperatorMatrix(np.diag([0.0, 4.0]), hermitian=True)
    r = op.psd_sqrt(h)
    assert np.allclose(r.mat, np.diag([0.0, 2.0]))
    bad = op.OperatorMatrix(np.diag([-1.0, 1.0]), hermitian=True)
    with pytest.raises(ValueError):
        op.psd_sqrt(bad)


def test_cluster_eigenvalues():
    vals = np.array([1.0, 1.0 + 1e-12, 2.0, 2.0, 2.0])
    clusters = op.cluster_eigenvalues(vals)
    assert [(round(v, 6), m) for v, m in clusters] == [(1.0, 2), (2.0, 3)]


def test_gauge_charge_phases():
    spec = op.LatticeSpec(1, 1)
    a = op.fermion_ops(spec)[0]
    g = op.gauge_charge(a, 0.3)
    ref = np.exp(0.3j) * a.mat + np.exp(-0.3j) * a.mat.conj().T
    assert np.abs(g.mat - ref).max() < 1e-14


def test_nilpotency_residual_zero_matrix():
    z = op.OperatorMatrix(np.zeros((3, 3)))
    assert op.nilpotency_residual(z) == 0.0


def test_super_decompose_baby():
    spec = op.LatticeSpec(1, 1)
    a = op.fermion_ops(spec)[0]
    dec = op.super_decompose(a)
    # H = {a, a^dag} = 1, no kernel
    assert np.allclose(dec.h.mat, np.eye(2))
    assert np.abs(dec.p0.mat).max() < 1e-12
    clusters = op.spectrum(dec.g_alpha(0.0))
    assert [(round(v, 10), m) for v, m in clusters] == [(-1.0, 1), (1.0, 1)]


def test_super_decompose_rejects_non_nilpotent():
    q = op.OperatorMatrix([[0, 1], [1, 0]])
    with pytest.raises(op.NilpotencyError):
        op.super_decompose(q)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10 ** 6))
def test_decomposition_invariants_random_model_i_charge(seed):
    """Q = sum z_i a_i with random positive couplings: all invariants."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    z = rng.uniform(0.2, 2.0, size=n)
    spec = op.LatticeSpec(n, 1)
    ops = op.fermion_ops(spec)
    q = op.OperatorMatrix(sum(zi * ai.mat for zi, ai in zip(z, ops)))
    dec = op.super_decompose(q)
    op.verify_decomposition(dec)
    eye = np.eye(spec.dim)
    eta = dec.eta.mat
    resid = eta @ eta.conj().T + eta.conj().T @ eta - (eye - dec.p0.mat)
    assert np.abs(resid).max() < 1e-10


def test_gauge_rotate_reproduces_g_alpha():
    """e^{i alpha F/2} G_0 e^{-i alpha F/2} = G_alpha on the SUSY sector."""
    spec = op.LatticeSpec(2, 1)
    ops = op.fermion_ops(spec)
    q = op.OperatorMatrix(ops[0].mat + 2.0 * ops[1].mat)
    dec = op.super_decompose(q)
    rotated = dec.gauge_rotate(0.8)
    direct = op.gauge_charge(q, 0.8)
    assert (rotated - direct).norm() < 1e-10


def test_paired_spectrum_multiplicities():
    spec = op.LatticeSpec(2, 1)
    ops = op.fermion_ops(spec)
    q = op.OperatorMatrix(ops[0].mat + ops[1].mat)
    dec = op.super_decompose(q)
    for _, mult in dec.paired_spectrum:
        assert mult % 2 == 0


# ------------------------------------------- bit-string builder, block norms

_Z = np.diag([1.0, -1.0])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])


def kron_chain(factors):
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


@pytest.mark.parametrize("modes", range(1, 7))
def test_sparse_annihilators_match_kronecker_chain(modes):
    """Mode k is Z x ... x Z x lower x 1 x ... x 1, entry for entry."""
    ops = op.sparse_annihilators(modes)
    assert len(ops) == modes
    for k, a in enumerate(ops):
        ref = kron_chain([_Z] * k + [_LOWER] + [np.eye(2)] * (modes - k - 1))
        assert a.dtype == complex
        assert np.array_equal(a.toarray(), ref)


def test_bit_operator_z_with_sign_string():
    # sigma_z on the low bit of 3, times the string on the two high bits
    ref = kron_chain([_Z, _Z, _Z])
    assert np.array_equal(op.bit_operator(3, 1, "z", string=6).toarray(), ref)


_PAULIS = {"sx": [[0, 1], [1, 0]], "sy": [[0, -1j], [1j, 0]],
           "sz": [[1, 0], [0, -1]], "sp": [[0, 1], [0, 0]],
           "sm": [[0, 0], [1, 0]]}


@pytest.mark.parametrize("n", range(1, 6))
def test_tensor_site_operators_match_kronecker_paulis(n):
    """Site j is 1 x ... x sigma x ... x 1, then the Clifford identity."""
    rep = TensorSpinRep(n)
    eye = np.eye(2)
    for name, block in _PAULIS.items():
        ops = getattr(rep, name)
        assert len(ops) == n
        for j, mat in enumerate(ops):
            ref = kron_chain([eye] * j + [np.array(block)]
                             + [eye] * (n - j - 1) + [eye])
            assert np.array_equal(mat.toarray(), ref), (name, j)
    assert np.array_equal(rep.eta.toarray(),
                          kron_chain([np.eye(2 ** n), _LOWER]))


@pytest.mark.parametrize("n", (4, 6, 8))
@pytest.mark.parametrize("alpha", (0.0, 0.7))
def test_hermitian_norm_matches_dense_on_local_commutator(n, alpha):
    rep = TensorSpinRep(n)
    g, sz1 = rep.g_alpha(alpha), rep.sz[0]
    comm = -1j * (sz1 @ g - g @ sz1)
    dense = np.linalg.norm(comm.toarray(), 2)
    assert op.hermitian_norm(comm) == pytest.approx(dense, abs=1e-12)


def _shuffled_block_hermitian(rng, sizes):
    """Random Hermitian blocks of the given sizes, basis order shuffled so
    that no block is contiguous."""
    blocks = []
    for s in sizes:
        x = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        blocks.append(x + x.conj().T)
    dense = block_diag(*blocks)
    perm = rng.permutation(dense.shape[0])
    return dense[np.ix_(perm, perm)]


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_hermitian_norm_mixed_block_sizes(seed):
    rng = np.random.default_rng(seed)
    dense = _shuffled_block_hermitian(rng, (1, 3, 2, 3, 5, 1, 2, 4, 7))
    ref = np.linalg.norm(dense, 2)
    assert op.hermitian_norm(sparse.csr_matrix(dense)) == \
        pytest.approx(ref, abs=1e-12)


def test_hermitian_norm_takes_largest_modulus():
    """The norm is max|lambda|, here carried by a negative eigenvalue, and
    empty rows (zero 1x1 blocks) are harmless."""
    m = sparse.csr_matrix(np.diag([0.0, -3.0, 2.0, 0.0]))
    assert op.hermitian_norm(m) == 3.0
    assert op.hermitian_norm(sparse.csr_matrix((5, 5), dtype=complex)) == 0.0


def test_hermitian_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        op.hermitian_norm(sparse.csr_matrix(_LOWER))
    with pytest.raises(ValueError):
        op.hermitian_norm(sparse.csr_matrix(1j * np.eye(2)))
