"""Algebraic core: Jordan-Wigner fermions, supercharge decomposition,
matrix functions and gauge structure."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import block_diag
from scipy.sparse.csgraph import connected_components

from susylattice import models, operators as op
from densedecomp import dense_decompose
from expect import (cluster_eigenvalues_loop, csr, read_only_sparse,
                    sparse_entries)
from tensorrep import TensorSpinRep, z_operator


def _diags(diagonals):
    return op.Sparse.from_diagonals(diagonals)


def test_built_operators_are_read_only():
    inst = models.build_model_ii((1.0, 2.0))
    dec = op.super_decompose(inst.q)
    for m in (inst.q, inst.h, dec.eta, dec.p0):
        assert isinstance(m, op.Sparse)
        for stored in (m.data, m.rows, m.cols):     # no pattern change
            with pytest.raises(ValueError):
                stored[0] = stored[0]


def test_super_decompose_leaves_its_argument_writable():
    """Neither super_decompose nor the Sparse it decomposes freezes the
    caller's arrays."""
    q = op.sparse_annihilators(1)[0].toarray()
    op.super_decompose(q)
    q[0, 0] = 0.0
    rows, cols, data = np.array([0]), np.array([1]), np.array([1.0 + 0j])
    op.super_decompose(op.Sparse(rows, cols, data, (2, 2)))
    rows[0], cols[0], data[0] = 1, 0, 2.0


def test_bracket_sparse_stays_sparse_and_matches_dense():
    a, b = op.sparse_annihilators(2)
    ad = a.conj().T
    for kind in ("commutator", "anticommutator"):
        got = op.bracket(ad, b, kind)
        assert read_only_sparse(got)
        assert np.array_equal(got.toarray(),
                              op.bracket(ad.toarray(), b.toarray(), kind))
    with pytest.raises(ValueError):
        op.bracket(a, b, "jordan")


def test_bracket_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        op.bracket(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        op.bracket(_diags({0: np.ones(2)}), _diags({0: np.ones(3)}))


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


def _model_ii_levels(scale):
    """The paired spectrum of Model II with couplings (0.7, 1.3, 2.1) times
    `scale`, and its exact levels: the 7 nonzero subset sums of z_i^2."""
    z = np.array((0.7, 1.3, 2.1)) * scale
    exact = sorted({(z * z * np.array(bits)).sum()
                    for bits in np.ndindex(2, 2, 2) if any(bits)})
    dec = op.super_decompose(models.build_model_ii(tuple(z)).q)
    return dec.paired_spectrum, exact


@pytest.mark.parametrize("scale", (1.0, 1e-4, 1e-5))
def test_model_ii_levels_do_not_merge_at_small_couplings(scale):
    """The multiplets are those of the spectrum's own scale: Model II keeps
    its 7 levels of multiplicity 8 with the couplings scaled by 1e-4 and
    1e-5, where gaps below an absolute 1e-8 merged them into 4 and 1."""
    levels, exact = _model_ii_levels(scale)
    assert [m for _, m in levels] == [8] * 7
    assert np.allclose([e for e, _ in levels], exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("c", (1e-6, 1e-3, 1e3))
def test_decomposition_levels_scale_as_c_squared(c):
    """decompose(cQ) has the levels c^2 E of decompose(Q), with the same
    multiplicities."""
    q = models.build_model_ii((0.7, 1.3, 2.1)).q
    base = op.super_decompose(q).paired_spectrum
    scaled = op.super_decompose(c * q).paired_spectrum
    assert [m for _, m in scaled] == [m for _, m in base]
    assert np.allclose([e for e, _ in scaled], [c * c * e for e, _ in base],
                       rtol=1e-12, atol=0)


def test_gauge_charge_phases():
    spec = op.LatticeSpec(1, 1)
    a = op.sparse_annihilators(spec.modes)[0]
    g = op.gauge_charge(a, 0.3)
    assert read_only_sparse(g)
    ref = np.exp(0.3j) * a + np.exp(-0.3j) * a.conj().T
    assert np.abs((g - ref).toarray()).max() < 1e-14
    assert np.abs(op.gauge_charge(a.toarray(), 0.3)
                  - ref.toarray()).max() < 1e-14


def test_diagonal_eigenvalues_reads_and_guards_the_diagonal():
    h = _diags({0: [3.0, 1.0, 2.0]})
    assert list(op.diagonal_eigenvalues(h)) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="not diagonal"):
        op.diagonal_eigenvalues(h + 1e-9 * _diags({1: np.ones(2)}))


def test_nilpotency_residual_zero_matrix():
    z = np.zeros((3, 3), dtype=complex)
    assert op.nilpotency_residual(z) == 0.0


def test_super_decompose_baby():
    spec = op.LatticeSpec(1, 1)
    a = op.sparse_annihilators(spec.modes)[0]
    dec = op.super_decompose(a)
    # H = {a, a^dag} = 1, no kernel
    assert np.allclose(dec.h.toarray(), np.eye(2))
    assert abs(dec.p0).max() < 1e-12
    clusters = op.cluster_eigenvalues(
        np.linalg.eigvalsh(dec.g_alpha(0.0).toarray()))
    assert [(round(v, 10), m) for v, m in clusters] == [(-1.0, 1), (1.0, 1)]


def test_checked_decomposition_takes_at_most_seven_products(monkeypatch):
    """Q^2, the two halves of H, eta = Q f(H), the two halves of CAR and
    one G_alpha^2: the G_alpha^2 = H check takes one product, not one per
    angle."""
    q = models.build_model_ii((0.6, 1.0, 1.4)).q
    products = []

    def counted(a, b, matmul=op.Sparse.__matmul__):
        if isinstance(b, op.Sparse):
            products.append(b.shape)
        return matmul(a, b)
    monkeypatch.setattr(op.Sparse, "__matmul__", counted)
    op.super_decompose(q, check=True)
    assert 0 < len(products) <= 7


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
    assert np.abs(dec.p0.toarray() - p0).max() < 1e-10
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
    assert read_only_sparse(dec.eta)
    assert read_only_sparse(dec.f)
    assert read_only_sparse(dec.p0)
    _assert_matches_dense(dec)


def _assert_model_ii_exact_spectrum(z):
    """Kernel dimension 2^n and every subset sum of z_i^2 as a 2^n-fold
    level: the exact Model II spectrum on n = len(z) sites."""
    n = len(z)
    dec = op.super_decompose(models.build_model_ii(z).q, check=True)
    assert round(dec.p0.diagonal().sum().real, 9) == 2 ** n
    sums = sorted(sum(z[i] ** 2 for i in range(n) if mask >> i & 1)
                  for mask in range(1, 2 ** n))
    assert [m for _, m in dec.paired_spectrum] == [2 ** n] * len(sums)
    assert np.allclose([e for e, _ in dec.paired_spectrum], sums,
                       rtol=1e-12, atol=0)


def test_model_ii_six_sites_blocked_decomposition():
    _assert_model_ii_exact_spectrum((0.55, 0.8, 1.0, 1.15, 1.3, 1.45))


def test_model_ii_seven_sites_blocked_decomposition():
    """The site cap: 2^14 states, MAX_MODES."""
    _assert_model_ii_exact_spectrum((0.55, 0.8, 1.0, 1.15, 1.3, 1.45, 1.6))


def test_model_ii_dimension_bound():
    with pytest.raises(op.DimensionError):
        models.build_model_ii((1.0,) * 8)


@pytest.mark.parametrize("n", range(1, 6))
def test_p0_reads_dense_through_asarray(n):
    """np.asarray and np.trace, as a caller holding a dense P0 reads it:
    a fresh dense copy equal to toarray() and to the dense reference."""
    dec = op.super_decompose(models.build_model_ii(
        (0.55, 0.8, 1.0, 1.15, 1.3)[:n]).q)
    dense = np.asarray(dec.p0)
    assert isinstance(dense, np.ndarray) and dense.flags.writeable
    assert np.array_equal(dense, dec.p0.toarray())
    assert np.abs(dense - dense_decompose(dec.q)[0]).max() < 1e-10
    assert round(np.trace(dense).real, 9) == 2 ** n
    assert np.array_equal(np.asarray(dec.p0, dtype=complex), dense)
    with pytest.raises(ValueError):
        np.asarray(dec.p0, copy=False)


def _fock_patterns(build):
    """Q and H of a Fock model, plus the joint eta/P0 pattern where the
    decomposition is small."""
    inst = build()
    mats = [inst.q, inst.h]
    if inst.spec.dim <= 256:
        dec = op.super_decompose(inst.q, check=False)
        mats.append(abs(dec.eta) + abs(dec.p0))
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
        want = connected_components(csr(m) != 0, directed=False)[1]
        assert np.array_equal(op._components(m), want)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 6), dim=st.integers(1, 300),
       density=st.floats(0.0, 0.02))
def test_components_match_csgraph_on_random_patterns(seed, dim, density):
    """Directed random patterns given with zeros among their values:
    csgraph symmetrises the pattern and drops the zeros, and so must the
    Sparse built from them and its numpy labelling."""
    m = sparse.random(dim, dim, density=density, format="coo",
                      random_state=seed)
    m.data[::3] = 0.0
    want = connected_components(m != 0, directed=False)[1]
    got = op._components(op.Sparse(m.row, m.col, m.data, m.shape))
    assert np.array_equal(got, want)


def _exact(m):
    """{(row, col): Fraction} of a Sparse with real entries."""
    assert not m.data.imag.any()
    return {(r, c): Fraction(v) for r, c, v in
            zip(m.rows.tolist(), m.cols.tolist(), m.data.real.tolist())}


def _exact_sum(*terms):
    """The sum of {(row, col): Fraction} matrices, exact zeros dropped."""
    out = {}
    for t in terms:
        for rc, v in t.items():
            out[rc] = out.get(rc, 0) + v
    return {rc: v for rc, v in out.items() if v}


def _exact_matmul(*factors):
    """The product of {(row, col): Fraction} matrices, exact zeros dropped."""
    out = factors[0]
    for b in factors[1:]:
        by_row = {}
        for (k, c), v in b.items():
            by_row.setdefault(k, []).append((c, v))
        out = _exact_sum(*({(r, c): v * w} for (r, k), v in out.items()
                           for c, w in by_row.get(k, ())))
    return out


@pytest.mark.parametrize("build", (
    lambda: models.build_model_i((1.0, 2.0, 2.0)),
    lambda: models.build_model_i((1.0, 1.0, 3.0, 2.0)),
    lambda: models.build_model_ii((1.0, 2.0)),
    lambda: models.build_model_ii((1.0, 3.0, 2.0)),
), ids=("model_i_3", "model_i_4", "model_ii_2", "model_ii_3"))
def test_car_identity_in_exact_rationals(build):
    """With integer couplings H is a diagonal of integers that commutes with
    Q Q^dag and Q^dag Q, so eta eta^dag = Q H+ Q^dag and eta^dag eta =
    H+ Q^dag Q with H+ the pseudo-inverse: Q H+ Q^dag + H+ Q^dag Q + P0 = 1
    holds in Fractions, with no square root, and the float eta eta^dag
    matches Q H+ Q^dag."""
    q = build().q
    qe = _exact(q)
    qt = {(c, r): v for (r, c), v in qe.items()}
    h = _exact_sum(_exact_matmul(qe, qt), _exact_matmul(qt, qe))
    assert all(r == c for r, c in h)
    h_plus = {rc: 1 / v for rc, v in h.items()}
    p0 = {(i, i): 1 for i in range(q.shape[0]) if (i, i) not in h}
    ehe = _exact_matmul(qe, h_plus, qt)
    assert _exact_sum(ehe, _exact_matmul(h_plus, qt, qe), p0) == \
        {(i, i): 1 for i in range(q.shape[0])}
    want = np.zeros(q.shape)
    for (r, c), v in ehe.items():
        want[r, c] = float(v)
    dec = op.super_decompose(q)
    assert np.abs((dec.eta @ dec.eta.conj().T).toarray() - want).max() \
        < 1e-12


def test_verify_decomposition_catches_mutations():
    """A relative 1e-6 error in one eta entry breaks CAR, an odd level
    multiplicity breaks the pairing, and a 1e-6 diagonal shift of Q breaks
    the +-sqrt(E) symmetry of G_0."""
    dec = op.super_decompose(models.build_model_ii((0.7, 1.3)).q)
    data = dec.eta.data.copy()
    data[np.argmax(np.abs(data))] *= 1 + 1e-6
    bad = dataclasses.replace(dec, eta=op.Sparse(dec.eta.rows, dec.eta.cols,
                                                 data, dec.eta.shape))
    assert op.car_residual(bad) > 1e-7
    with pytest.raises(ValueError, match="CAR"):
        op.verify_decomposition(bad)
    assert op.decomposition_residuals(bad)["pairing"] <= op.PAIRING_TOL
    (e_top, m_top), rest = dec.paired_spectrum[-1], dec.paired_spectrum[:-1]
    unpaired = dataclasses.replace(
        dec, paired_spectrum=rest + ((e_top, m_top - 1),))
    with pytest.raises(ValueError, match="odd multiplicity"):
        op.verify_decomposition(unpaired)
    shifted = dataclasses.replace(
        dec, q=dec.q + 1e-6 * _diags({0: np.ones(dec.q.shape[0])}))
    with pytest.raises(ValueError, match="do not match"):
        op.verify_decomposition(shifted)


def gauge_rotate(dec, alpha):
    """Conjugate G_0 by exp(i alpha F / 2); equals G_alpha.

    The half-angle is forced by F eta = eta, eta F = -eta: conjugation by
    exp(i t F) multiplies the odd part of G by exp(2 i t).
    """
    u = op.hermitian_function(dec.f, lambda v: np.exp(1j * alpha / 2 * v))
    return u @ dec.g_alpha(0.0).toarray() @ u.conj().T


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
        assert a.data.dtype == complex
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
    assert op.hermitian_norm(dense) == \
        pytest.approx(ref, abs=1e-12)


def test_hermitian_norm_takes_largest_modulus():
    """The norm is max|lambda|, here carried by a negative eigenvalue, and
    empty rows (zero 1x1 blocks) are harmless."""
    m = _diags({0: [0.0, -3.0, 2.0, 0.0]})
    assert op.hermitian_norm(m) == 3.0
    assert op.hermitian_norm(np.zeros((5, 5), dtype=complex)) == 0.0


def test_hermitian_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        op.hermitian_norm(_LOWER)
    with pytest.raises(ValueError):
        op.hermitian_norm(1j * np.eye(2))


# ----------------------------------------------- the Sparse core against scipy

def _entries(rng, shape, density):
    """(rows, cols, data): random positions, repeats among them, and complex
    values with exact zeros and purely imaginary ones among them."""
    count = int(rng.integers(0, int(density * shape[0] * shape[1]) + 3))
    rows, cols = rng.integers(0, shape[0], count), rng.integers(0, shape[1],
                                                                 count)
    data = rng.normal(size=count) + 1j * rng.normal(size=count)
    data[rng.random(count) < 0.15] = 0.0
    data.real[rng.random(count) < 0.15] = 0.0
    return rows, cols, data


def _pair(rng, shape, density):
    """A Sparse and the scipy CSR of the same entries, with the number of
    entries summed into each position."""
    rows, cols, data = _entries(rng, shape, density)
    terms = np.zeros(shape, dtype=int)
    np.add.at(terms, (rows, cols), 1)
    return (op.Sparse(rows, cols, data, shape),
            sparse.csr_matrix((data, (rows, cols)), shape=shape), terms)


def _assert_agrees(got, want, terms=None):
    """`got` stores scipy's pattern once scipy drops its zeros, read-only;
    its values are == where an entry is one term (`terms`, per position,
    default one everywhere) and within 4 ulp elsewhere."""
    want = sparse.csr_matrix(want)
    want.sum_duplicates()
    want.eliminate_zeros()
    want = want.tocoo()
    assert isinstance(got, op.Sparse) and got.shape == want.shape
    assert np.array_equal(got.rows, want.row)
    assert np.array_equal(got.cols, want.col)
    assert got.nnz == want.nnz and got.data.size == want.nnz
    one = np.ones(got.nnz, bool) if terms is None \
        else terms[got.rows, got.cols] <= 1
    assert np.array_equal(got.data[one], want.data[one])
    assert (np.abs(got.data - want.data)
            <= 4 * np.spacing(np.abs(want.data))).all()
    for stored in (got.data, got.rows, got.cols):
        if stored.size:
            with pytest.raises(ValueError):
                stored[0] = stored[0]


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 64),
       k=st.integers(1, 64), n=st.integers(1, 64),
       density=st.floats(0.0, 0.3))
def test_sparse_core_matches_scipy(seed, m, k, n, density):
    """Every operation of operators.Sparse, lift and both constructors
    against scipy.sparse on random complex matrices."""
    rng = np.random.default_rng(seed)
    a, a_ref, a_terms = _pair(rng, (m, k), density)
    b, b_ref, _ = _pair(rng, (k, n), density)
    c, c_ref, _ = _pair(rng, (m, k), density)
    _assert_agrees(a, a_ref, a_terms)
    a_ref = sparse.csr_matrix(a.toarray())      # a's values, exactly
    b_ref, c_ref = (sparse.csr_matrix(x.toarray()) for x in (b, c))
    assert np.array_equal(a.toarray(), a_ref.toarray())
    products = (abs(a_ref) > 0).astype(int) @ (abs(b_ref) > 0).astype(int)
    _assert_agrees(a @ b, a_ref @ b_ref, products.toarray())
    _assert_agrees(a + c, a_ref + c_ref)
    _assert_agrees(a - c, a_ref - c_ref)
    z = complex(*rng.normal(size=2))
    for got, want in ((-a, -a_ref), (a * z, a_ref * z), (z * a, z * a_ref),
                      (2.5 * a, 2.5 * a_ref), (a / z, a_ref / z),
                      (a.conj(), a_ref.conj()), (a.T, a_ref.T),
                      (abs(a), abs(a_ref))):
        _assert_agrees(got, want)
    assert abs(a).max() == abs(a_ref).max()
    assert np.array_equal(a.diagonal(), a_ref.diagonal())
    x = rng.normal(size=k) + 1j * rng.normal(size=k)
    got, want = a @ x, a_ref @ x
    one = np.diff(a_ref.indptr) <= 1
    assert np.array_equal(got[one], want[one])
    assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()
    cliff = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    cliff[rng.random((2, 2)) < 0.3] = 0.0
    _assert_agrees(op.lift(a), sparse.kron(a_ref, np.eye(2), format="csr"))
    _assert_agrees(op.lift(a, cliff), sparse.kron(a_ref, cliff, format="csr"))
    offsets = sorted(set(rng.integers(-(m - 1), m, size=3).tolist()))
    diagonals = [rng.normal(size=m - abs(o)) + 1j * rng.normal(size=m - abs(o))
                 for o in offsets]
    if m - abs(offsets[0]) > 0:
        diagonals[0][0] = 0.0               # a stored zero scipy keeps
    _assert_agrees(op.Sparse.from_diagonals(dict(zip(offsets, diagonals))),
                   sparse.diags(diagonals, offsets, shape=(m, m),
                                dtype=complex))
    # apply_diagonals is the from_diagonals product bit for bit, the stored
    # zero included
    y = rng.normal(size=m) + 1j * rng.normal(size=m)
    got = op.apply_diagonals(dict(zip(offsets, diagonals)), y)
    want = op.Sparse.from_diagonals(dict(zip(offsets, diagonals))) @ y
    assert got.tobytes() == want.tobytes()
    for bad in (lambda: a @ op.Sparse([], [], [], (k + 1, n)),
                lambda: a @ np.ones(k + 1),
                lambda: a @ np.ones((k, 3)),     # 2-D: go column by column
                lambda: a @ np.ones(()),
                lambda: a + op.Sparse([], [], [], (m, k + 1)),
                lambda: a - op.Sparse([], [], [], (m + 1, k))):
        with pytest.raises(ValueError):
            bad()


# ------------------------------------- the Sparse constructor, bit for bit

_PARTS = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 1e-300, 1e150))


@st.composite
def _sparse_input(draw):
    """(rows, cols, data, shape): positions on a small grid, so keys
    repeat; parts from _PARTS or any finite float, so exact zeros, -0.0
    real and imaginary parts and sums that cancel occur; complex or real
    data; and, in half of the draws, strictly increasing keys."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    count = draw(st.integers(0, 24))
    part = _PARTS | st.floats(-1e3, 1e3)
    rows = np.array(draw(st.lists(st.integers(0, shape[0] - 1),
                                  min_size=count, max_size=count)), int)
    cols = np.array(draw(st.lists(st.integers(0, shape[1] - 1),
                                  min_size=count, max_size=count)), int)
    data = np.array(draw(st.lists(part, min_size=count, max_size=count)))
    if draw(st.booleans()):
        data = data + 1j * np.array(draw(st.lists(
            part, min_size=count, max_size=count)))
        data.real[data.real == 0] = draw(st.sampled_from((0.0, -0.0)))
    if draw(st.booleans()):     # already sorted, no repeats
        keys = sorted(set((rows * shape[1] + cols).tolist()))
        rows, cols = np.divmod(np.array(keys, int), shape[1])
        data = data[:len(keys)]
    return rows, cols, data, shape


_DIAGONAL = (np.arange(2), np.arange(2),       # .T needs no sort
             np.array([complex(-0.0, 1.0), complex(2.0, -0.0)]), (2, 2))


@settings(deadline=None, max_examples=150)
@given(a=_sparse_input(), b=_sparse_input(), c=st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3))
@example(a=_DIAGONAL, b=_DIAGONAL, c=1j)
def test_sparse_constructor_keeps_its_bits(a, b, c):
    """Every Sparse built, from random entries and by @, +, -, .T, conj(),
    abs and scalar *, stores the bytes of rows, cols and data that the
    constructor computed before it carried rows and cols through the
    sort (tests/expect.py keeps that constructor).  That holds both for
    the constructor and for Sparse._sorted, the path of the operations
    that keep a pattern, on the entries each is given; and .T, conj(),
    -, abs and scalar * store what that constructor stored for the
    entries they passed it before."""
    built = []
    init, presorted = op.Sparse.__init__, op.Sparse._sorted.__func__

    def check(m, want):
        built.append(m)
        for got, exp in zip((m.rows, m.cols, m.data), want):
            assert got.dtype == exp.dtype
            assert got.tobytes() == exp.tobytes()

    def checked(self, rows, cols, data, shape):
        want = sparse_entries(rows, cols, data, shape)
        init(self, rows, cols, data, shape)
        check(self, want)

    def checked_sorted(cls, rows, cols, data, shape):
        want = sparse_entries(rows, cols, data, shape)
        m = presorted(cls, rows, cols, data, shape)
        check(m, want)
        return m
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(op.Sparse, "__init__", checked)
        mp.setattr(op.Sparse, "_sorted", classmethod(checked_sorted))
        x, y = op.Sparse(*a), op.Sparse(*b)
        xt = x.T
        x.conj(), x * c, c * x, -x, abs(x), xt.T
        if y.shape == x.shape:
            x + y, x - y
        if y.shape[0] == x.shape[1]:
            x @ y
        x @ xt, xt @ x
    assert len(built) >= 9
    for m, (rows, cols, data, shape) in (
            (x.T, (x.cols, x.rows, x.data, x.shape[::-1])),
            (x.conj(), (x.rows, x.cols, x.data.conj(), x.shape)),
            (-x, (x.rows, x.cols, -x.data, x.shape)),
            (abs(x), (x.rows, x.cols, np.abs(x.data), x.shape)),
            (x * c, (x.rows, x.cols, x.data * c, x.shape)),
            (x * 0, (x.rows, x.cols, x.data * 0, x.shape))):
        for got, exp in zip((m.rows, m.cols, m.data),
                            sparse_entries(rows, cols, data, shape)):
            assert got.dtype == exp.dtype
            assert got.tobytes() == exp.tobytes()


# ------------------------------------- clustering, against its loop form

@st.composite
def _levels(draw):
    """(levels, tol): integer levels with a power-of-two tol, so that gaps
    fall exactly on the merge bound tol * (scale + |lambda|), or finite
    floats with CLUSTER_TOL; empty and one-level lists, repeats and
    negative levels included."""
    if draw(st.booleans()):
        vals = draw(st.lists(st.integers(-8, 8), max_size=12))
        return [float(v) for v in vals], draw(st.sampled_from(
            (0.5, 0.25, 0.125, 0.0625)))
    part = st.sampled_from((0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9, 2.5)) \
        | st.floats(-1e6, 1e6)
    return draw(st.lists(part, max_size=12)), op.CLUSTER_TOL


@settings(deadline=None, max_examples=300)
@given(levels=_levels())
def test_cluster_eigenvalues_keeps_the_loop_bits(levels):
    """cluster_eigenvalues splits at the gaps its one vectorised test
    finds and gives the clusters of its per-level loop form
    (tests/expect.py), each mean and multiplicity bit for bit."""
    vals, tol = levels

    def bits(clusters):
        return [(np.float64(v).tobytes(), type(m), m) for v, m in clusters]
    assert bits(op.cluster_eigenvalues(vals, tol)) == \
        bits(cluster_eigenvalues_loop(vals, tol))


def test_cluster_eigenvalues_merges_a_gap_exactly_at_the_bound():
    """Gap 3 at |lambda| = 4 with scale 8 and tol 1/4 is exactly on the
    bound and merges; gap 3 at |lambda| = 3 is above it and splits."""
    assert op.cluster_eigenvalues([-8.0, 1.0, 4.0], 0.25) == \
        [(-8.0, 1), (2.5, 2)]
    assert op.cluster_eigenvalues([-8.0, 0.0, 3.0], 0.25) == \
        [(-8.0, 1), (0.0, 1), (3.0, 1)]
    assert op.cluster_eigenvalues([]) == []
    assert op.cluster_eigenvalues([2.0]) == [(2.0, 1)]
