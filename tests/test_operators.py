"""Algebraic core: Jordan-Wigner fermions, supercharge decomposition,
matrix functions and gauge structure."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import block_diag
from scipy.sparse.csgraph import connected_components

from susylattice import models, operators as op
from densedecomp import dense_decompose
from tensorrep import TensorSpinRep, z_operator


def test_built_operators_are_read_only():
    inst = models.build_model_ii((1.0, 2.0))
    dec = op.super_decompose(inst.q)
    for m in (inst.q, inst.h):
        rows, cols = m.nonzero()        # a stored entry: no pattern change
        with pytest.raises(ValueError):
            m[rows[0], cols[0]] = 1.0
    rows, cols = dec.eta.nonzero()
    with pytest.raises(ValueError):
        dec.eta[rows[0], cols[0]] = 1.0
    with pytest.raises(ValueError):
        dec.p0[0, 0] = 1.0


def test_super_decompose_leaves_its_argument_writable():
    q = op.sparse_annihilators(1)[0].toarray()
    op.super_decompose(q)
    q[0, 0] = 0.0
    qs = op.sparse_annihilators(1)[0].copy()
    op.super_decompose(qs)
    qs.data[0] = 1.0


def test_bracket_sparse_stays_sparse_and_matches_dense():
    a, b = op.sparse_annihilators(2)
    ad = a.conj().T
    for kind in ("commutator", "anticommutator"):
        got = op.bracket(ad, b, kind)
        assert sparse.issparse(got)
        assert np.array_equal(got.toarray(),
                              op.bracket(ad.toarray(), b.toarray(), kind))
    with pytest.raises(ValueError):
        op.bracket(a, b, "jordan")


def test_bracket_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        op.bracket(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        op.bracket(sparse.eye(2), sparse.eye(3))


@settings(deadline=None, max_examples=8)
@given(n_sites=st.integers(1, 2), n_flavors=st.integers(1, 3))
def test_car_relations(n_sites, n_flavors):
    spec = op.LatticeSpec(n_sites, n_flavors)
    ops = [a.toarray() for a in op.sparse_annihilators(spec.modes)]
    eye = np.eye(spec.dim)
    for i, a in enumerate(ops):
        assert np.abs(a @ a).max() < 1e-14
        for j, b in enumerate(ops):
            anti = a @ b.conj().T + b.conj().T @ a
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
        op.sparse_annihilators(op.LatticeSpec(5, 3).modes)  # 15 > 14


def test_hermitian_function_matches_scalar():
    g = np.array([[2, 0], [0, 3]], dtype=complex)
    e = op.hermitian_function(g, np.exp)
    assert np.allclose(e, np.diag(np.exp([2.0, 3.0])))
    with pytest.raises(ValueError):
        op.hermitian_function(np.array([[0, 1], [0, 0]], dtype=complex),
                              np.exp)


def test_unitary_flow_is_conjugation():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g = h + h.conj().T
    a = rng.normal(size=(4, 4)).astype(complex)
    s = 0.37
    from scipy.linalg import expm
    u = expm(1j * s * g)
    ref = u @ a @ u.conj().T
    assert np.abs(op.unitary_flow(g, s, a) - ref).max() < 1e-12


def test_unitary_flow_rejects_bad_input():
    g = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError, match="dimensions differ"):
        op.unitary_flow(g, 0.3, np.eye(4, dtype=complex))
    for s in (np.inf, np.nan, np.array([0.3, np.inf, 0.4]),
              np.array([0.3, 0.4, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            op.unitary_flow(g, s, g)
    with pytest.raises(ValueError, match="Hermitian"):
        op.unitary_flow(np.array([[0, 1], [0, 0]], dtype=complex), 0.3, g)


def test_cluster_eigenvalues():
    vals = np.array([1.0, 1.0 + 1e-12, 2.0, 2.0, 2.0])
    clusters = op.cluster_eigenvalues(vals)
    assert [(round(v, 6), m) for v, m in clusters] == [(1.0, 2), (2.0, 3)]


def test_gauge_charge_phases():
    spec = op.LatticeSpec(1, 1)
    a = op.sparse_annihilators(spec.modes)[0]
    g = op.gauge_charge(a, 0.3)
    assert sparse.issparse(g)
    ref = np.exp(0.3j) * a + np.exp(-0.3j) * a.conj().T
    assert np.abs((g - ref).toarray()).max() < 1e-14
    assert np.abs(op.gauge_charge(a.toarray(), 0.3)
                  - ref.toarray()).max() < 1e-14


def test_diagonal_eigenvalues_reads_and_guards_the_diagonal():
    h = sparse.diags([3.0, 1.0, 2.0]).tocsr().astype(complex)
    assert list(op.diagonal_eigenvalues(h)) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="not diagonal"):
        op.diagonal_eigenvalues(h + 1e-9 * sparse.eye(3, k=1))


def test_nilpotency_residual_zero_matrix():
    z = np.zeros((3, 3), dtype=complex)
    assert op.nilpotency_residual(z) == 0.0


def test_super_decompose_baby():
    spec = op.LatticeSpec(1, 1)
    a = op.sparse_annihilators(spec.modes)[0]
    dec = op.super_decompose(a)
    # H = {a, a^dag} = 1, no kernel
    assert np.allclose(dec.h.toarray(), np.eye(2))
    assert np.abs(dec.p0).max() < 1e-12
    clusters = op.cluster_eigenvalues(
        np.linalg.eigvalsh(dec.g_alpha(0.0).toarray()))
    assert [(round(v, 10), m) for v, m in clusters] == [(-1.0, 1), (1.0, 1)]


def test_super_decompose_rejects_non_nilpotent():
    q = np.array([[0, 1], [1, 0]], dtype=complex)
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
    ops = op.sparse_annihilators(spec.modes)
    q = sum(zi * ai for zi, ai in zip(z, ops))
    dec = op.super_decompose(q)
    op.verify_decomposition(dec)
    assert op.car_residual(dec) < 1e-10
    _assert_matches_dense(dec)


def _assert_matches_dense(dec):
    p0, eta, f, paired = dense_decompose(dec.q)
    assert np.abs(dec.p0 - p0).max() < 1e-10
    assert np.abs(dec.eta.toarray() - eta).max() < 1e-10
    assert np.abs(dec.f.toarray() - f).max() < 1e-10
    assert [m for _, m in dec.paired_spectrum] == [m for _, m in paired]
    assert np.allclose([e for e, _ in dec.paired_spectrum],
                       [e for e, _ in paired], rtol=1e-10, atol=0)


@pytest.mark.parametrize("name,build", (
    ("model_i_1", lambda: models.build_model_i((1.3,))),
    ("model_i_2", lambda: models.build_model_i((0.4, 1.7))),
    ("model_i_3", lambda: models.build_model_i((1.0, 2.0, 0.5))),
    ("model_ii_1", lambda: models.build_model_ii((0.8,))),
    ("model_ii_2", lambda: models.build_model_ii((1.0, 1.0))),
    ("model_ii_3", lambda: models.build_model_ii((0.6, 1.1, 1.9))),
    ("model_ii_4", lambda: models.build_model_ii((0.5, 0.9, 1.2, 1.4))),
    ("model_iii_2", lambda: models.build_model_iii_fock(2)[0]),
))
def test_blocked_decomposition_matches_dense_reference(name, build):
    dec = op.super_decompose(build().q, check=True)
    assert isinstance(dec.eta, sparse.csr_matrix)
    assert isinstance(dec.f, sparse.csr_matrix)
    assert isinstance(dec.p0, np.ndarray)
    _assert_matches_dense(dec)


def test_model_ii_six_sites_blocked_decomposition():
    """Kernel dimension 2^6 and every subset sum of z_i^2 as a 2^6-fold
    level: the exact Model II spectrum at the model's site cap."""
    z = (0.55, 0.8, 1.0, 1.15, 1.3, 1.45)
    dec = op.super_decompose(models.build_model_ii(z).q, check=True)
    assert round(np.trace(dec.p0).real, 9) == 2 ** 6
    sums = sorted(sum(z[i] ** 2 for i in range(6) if mask >> i & 1)
                  for mask in range(1, 2 ** 6))
    assert [m for _, m in dec.paired_spectrum] == [2 ** 6] * len(sums)
    assert np.allclose([e for e, _ in dec.paired_spectrum], sums,
                       rtol=1e-12, atol=0)


def _fock_patterns(build):
    """Q and H of a Fock model, plus the joint eta/P0 pattern that
    car_residual blocks over where the decomposition is small."""
    inst = build()
    mats = [inst.q, inst.h]
    if inst.spec.dim <= 256:
        dec = op.super_decompose(inst.q, check=False)
        mats.append(abs(dec.eta) + abs(sparse.csr_matrix(dec.p0)))
    return mats


FOCK_MODELS = {
    "baby": models.build_baby,
    **{f"model_i_{n}": lambda n=n: models.build_model_i((1.0,) * n)
       for n in (1, 2, 3, 10)},
    **{f"model_ii_{n}": lambda n=n: models.build_model_ii(
        (0.5, 0.9, 1.2, 1.4, 1.0, 0.7)[:n]) for n in range(1, 7)},
    **{f"model_iii_{n}": lambda n=n: models.build_model_iii_fock(n)[0]
       for n in range(1, 5)}}


@pytest.mark.parametrize("build", FOCK_MODELS.values(), ids=FOCK_MODELS)
def test_components_match_csgraph_on_fock_models(build):
    """The numpy labelling equals csgraph's labels array: the same
    partition, and the blocks stack in the same order."""
    for m in _fock_patterns(build):
        want = connected_components(m != 0, directed=False)[1]
        assert np.array_equal(op._components(m), want)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 6), dim=st.integers(1, 300),
       density=st.floats(0.0, 0.02))
def test_components_match_csgraph_on_random_patterns(seed, dim, density):
    """Directed random patterns with stored zeros: csgraph symmetrises the
    pattern and drops the zeros, and so must the numpy labelling."""
    m = sparse.random(dim, dim, density=density, format="csr",
                      random_state=seed)
    m.data[::3] = 0.0
    want = connected_components(m != 0, directed=False)[1]
    assert np.array_equal(op._components(m), want)


def test_verify_decomposition_catches_mutations():
    """A relative 1e-6 error in one eta entry breaks CAR, an odd level
    multiplicity breaks the pairing, and a 1e-6 diagonal shift of Q breaks
    the +-sqrt(E) symmetry of G_0."""
    dec = op.super_decompose(models.build_model_ii((0.7, 1.3)).q)
    eta = dec.eta.copy()
    eta.data[np.argmax(np.abs(eta.data))] *= 1 + 1e-6
    bad = dataclasses.replace(dec, eta=eta)
    assert op.car_residual(bad) > 1e-7
    with pytest.raises(ValueError, match="CAR"):
        op.verify_decomposition(bad)
    op.verify_pairing(bad)          # the pairing does not read eta
    (e_top, m_top), rest = dec.paired_spectrum[-1], dec.paired_spectrum[:-1]
    unpaired = dataclasses.replace(
        dec, paired_spectrum=rest + ((e_top, m_top - 1),))
    with pytest.raises(ValueError, match="odd multiplicity"):
        op.verify_decomposition(unpaired)
    shifted = dataclasses.replace(
        dec, q=dec.q + 1e-6 * sparse.identity(dec.q.shape[0], format="csr"))
    with pytest.raises(ValueError, match="do not match"):
        op.verify_decomposition(shifted)


def gauge_rotate(dec, alpha):
    """Conjugate G_0 by exp(i alpha F / 2); equals G_alpha.

    The half-angle is forced by F eta = eta, eta F = -eta: conjugation by
    exp(i t F) multiplies the odd part of G by exp(2 i t).
    """
    u = op.hermitian_function(dec.f, lambda v: np.exp(1j * alpha / 2 * v))
    return u @ dec.g_alpha(0.0) @ u.conj().T


def test_gauge_rotate_reproduces_g_alpha():
    """e^{i alpha F/2} G_0 e^{-i alpha F/2} = G_alpha on the SUSY sector."""
    spec = op.LatticeSpec(2, 1)
    ops = op.sparse_annihilators(spec.modes)
    q = ops[0] + 2.0 * ops[1]
    dec = op.super_decompose(q)
    rotated = gauge_rotate(dec, 0.8)
    direct = op.gauge_charge(q, 0.8).toarray()
    assert np.linalg.norm(rotated - direct, 2) < 1e-10


def test_paired_spectrum_multiplicities():
    spec = op.LatticeSpec(2, 1)
    ops = op.sparse_annihilators(spec.modes)
    q = ops[0] + ops[1]
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
    assert np.array_equal(z_operator(3, 1, string=6).toarray(), ref)


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
