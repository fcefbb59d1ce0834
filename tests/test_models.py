"""Concrete lattice models: builders, closed-form supertransformation
automorphisms, the nilpotency counterexample, pair algebra and BCS shadow."""

import numpy as np
import pytest

from susylattice import dicke, models, operators
from susylattice.reporting import DEFAULT_TOLERANCES
from expect import (fock_sector_spectrum, read_only_sparse,
                    symmetric_sector_basis)

FLOW_POINTS = (0.1, 0.7, np.pi / 2, 2.0)

# frozen from dense evaluation of the N=3 periodic candidate; equals 1/(2 sqrt 3)
COUNTEREXAMPLE_RESIDUAL = 0.2886751345948129


def _car_ok(a_s, dim_ops, tol=1e-10):
    """a(s)^2 = 0 and {a(s), a(s)^dag} = 1."""
    sq = np.linalg.norm(a_s @ a_s, 2)
    anti = np.linalg.norm(a_s @ a_s.conj().T + a_s.conj().T @ a_s
                          - np.eye(a_s.shape[0]), 2)
    return sq < tol and anti < tol


# --------------------------------------------------------------------- baby

def test_baby_model_structure():
    inst = models.build_baby()
    assert np.allclose(inst.h.toarray(), np.eye(2))
    g0 = inst.g_alpha(0.0)
    assert np.allclose(g0.toarray(), np.array([[0, 1], [1, 0]]))
    for alpha in (0.0, 0.4, 2.2):
        g = inst.g_alpha(alpha)
        assert np.allclose((g @ g).toarray(), np.eye(2), atol=1e-12)


def test_baby_flow_endpoints():
    a = operators.sparse_annihilators(1)[0].toarray()
    assert np.linalg.norm(models.baby_flow_closed(0.0, 0.0) - a, 2) < 1e-14
    assert np.linalg.norm(models.baby_flow_closed(np.pi / 2, 0.0)
                          - a.conj().T, 2) < 1e-12
    mid = models.baby_flow_closed(np.pi / 4, 0.0)
    ref = (a + a.conj().T) / 2 + 0.5j * (a.conj().T @ a - a @ a.conj().T)
    assert np.abs(mid - ref).max() < 1e-12


@pytest.mark.parametrize("s", FLOW_POINTS)
@pytest.mark.parametrize("alpha", (0.0, 0.6, 1.9))
def test_baby_flow_matches_conjugation(s, alpha):
    inst = models.build_baby()
    a = operators.sparse_annihilators(inst.spec.modes)[0]
    brute = operators.unitary_flow(inst.g_alpha(alpha), s, a)
    closed = models.baby_flow_closed(s, alpha)
    assert np.linalg.norm(brute - closed, 2) < 1e-10
    assert _car_ok(closed, 1)


# ------------------------------------------------------------------ model I

def test_model_i_h_is_scalar():
    for z in ((1.0,), (1.0, 1.0, 1.0), (1.0, 2.0, 2.0)):
        inst = models.build_model_i(z)
        assert np.abs(inst.h.toarray()
                      - sum(x * x for x in z) * np.eye(2 ** len(z))).max() \
            < 1e-12


def test_model_i_collective_mode_norm():
    z = (1.0, 2.0, 2.0)
    inst = models.build_model_i(z)
    eta = inst.q * (1.0 / np.sqrt(sum(x * x for x in z)))
    assert np.linalg.norm(eta.toarray(), 2) == pytest.approx(1.0, abs=1e-12)


def test_model_i_rejects_bad_couplings():
    with pytest.raises(ValueError):
        models.build_model_i((1.0, -1.0))
    with pytest.raises(operators.DimensionError):
        models.build_model_i((1.0,) * 13)


@pytest.mark.parametrize("s", FLOW_POINTS)
def test_model_i_flow_matches_conjugation(s):
    z = (1.0, 1.0)
    inst = models.build_model_i(z)
    g = inst.g_alpha(0.0)
    ops = operators.sparse_annihilators(inst.spec.modes)
    for k in range(2):
        brute = operators.unitary_flow(g, s, ops[k])
        closed = models.model_i_flow_closed(k, s, inst)
        assert np.linalg.norm(brute - closed, 2) < 1e-10
        assert _car_ok(closed, 2)


def test_model_i_flow_cross_site_car():
    inst = models.build_model_i((1.0, 2.0))
    a0 = models.model_i_flow_closed(0, 0.3, inst)
    a1 = models.model_i_flow_closed(1, 0.3, inst)
    for b in (a1, a1.conj().T):
        anti = operators.bracket(a0, b, "anticommutator")
        assert np.linalg.norm(anti, 2) < 1e-10


def test_model_i_not_local():
    z = (1.0, 1.0)
    inst = models.build_model_i(z)
    ops = operators.sparse_annihilators(inst.spec.modes)
    moved = operators.unitary_flow(inst.g_alpha(0.0), np.pi / 4, ops[0])
    comm = operators.bracket(moved, ops[1].toarray(), "commutator")
    assert np.linalg.norm(comm, 2) > 1e-3


def test_model_i_time_evolution_trivial():
    inst = models.build_model_i((1.0, 2.0))
    probe = operators.sparse_annihilators(inst.spec.modes)[0]
    comm = operators.bracket(inst.h, probe, "commutator")
    assert np.linalg.norm(comm.toarray(), 2) < 1e-12


def test_model_i_reduces_to_baby():
    baby = models.baby_flow_closed(0.7, 0.0)
    via_model_i = models.model_i_flow_closed(0, 0.7,
                                             models.build_model_i((1.0,)))
    assert np.linalg.norm(baby - via_model_i, 2) < 1e-10


# ----------------------------------------------------------------- model II

def test_model_ii_h_structure():
    inst = models.build_model_ii((1.0,))
    clusters = operators.cluster_eigenvalues(
        np.linalg.eigvalsh(inst.h.toarray()))
    assert [(round(v, 10), m) for v, m in clusters] == [(0.0, 2), (1.0, 2)]


def test_model_ii_up_vacuum_annihilated():
    """Any state with no up-particles is killed by Q (needs a_down) and by
    Q^dag (carries n_up)."""
    inst = models.build_model_ii((1.0,))
    spec = inst.spec
    ops = operators.sparse_annihilators(spec.modes)
    vac = np.zeros(spec.dim)
    vac[0] = 1.0
    dn_occupied = ops[spec.mode_index(0, 1)].conj().T @ vac
    for state in (vac, dn_occupied):
        assert np.linalg.norm(inst.q @ state) < 1e-14
        assert np.linalg.norm(inst.q.conj().T @ state) < 1e-14


def test_model_ii_kernel_degeneracy():
    inst = models.build_model_ii((1.0, 1.0))
    vals = np.linalg.eigvalsh(inst.h.toarray())
    kernel = int(np.sum(np.abs(vals) < 1e-10))
    assert kernel == 4  # down-spin factor free: 2^N states
    # every eigenvalue at least 2^N-fold degenerate
    for _, mult in operators.cluster_eigenvalues(vals):
        assert mult % 4 == 0


def test_model_ii_down_mode_time_invariant():
    inst = models.build_model_ii((1.0, 2.0))
    spec = inst.spec
    dn = operators.sparse_annihilators(spec.modes)[spec.mode_index(0, 1)]
    comm = operators.bracket(inst.h, dn, "commutator")
    assert np.linalg.norm(comm.toarray(), 2) < 1e-12


@pytest.mark.parametrize("s", FLOW_POINTS)
def test_model_ii_flow_matches_conjugation(s):
    z = (1.0, 1.0)
    inst = models.build_model_ii(z)
    spec = inst.spec
    g = inst.g_alpha(0.0)
    ops = operators.sparse_annihilators(spec.modes)
    for k in range(2):
        up_c, dn_c = models.model_ii_flow_closed(k, s, inst)
        up_b = operators.unitary_flow(g, s, ops[spec.mode_index(k, 0)])
        dn_b = operators.unitary_flow(g, s, ops[spec.mode_index(k, 1)])
        assert np.linalg.norm(up_c - up_b, 2) < 1e-10
        assert np.linalg.norm(dn_c - dn_b, 2) < 1e-10
        anti = operators.bracket(up_c, dn_c, "anticommutator")
        assert np.linalg.norm(anti, 2) < 1e-10


def test_model_ii_flow_singularity_handled():
    """G has a kernel; the phi(0) = is extension must keep the flow exact."""
    inst = models.build_model_ii((1.0,))
    up_c, dn_c = models.model_ii_flow_closed(0, 0.7, inst)
    dn_b = operators.unitary_flow(inst.g_alpha(0.0), 0.7,
                                  operators.sparse_annihilators(
                                      inst.spec.modes)[
                                      inst.spec.mode_index(0, 1)])
    assert np.linalg.norm(dn_c - dn_b, 2) < 1e-10


# ------------------------------------------------- flows over an array of s

def _assert_stack_is_per_s(stack, per_s):
    """stack[i] equals per_s(FLOW_POINTS[i]) to 1e-15."""
    assert stack.shape[0] == len(FLOW_POINTS)
    for layer, s in zip(stack, FLOW_POINTS):
        assert np.abs(layer - per_s(s)).max() <= 1e-15


@pytest.mark.parametrize("build,alpha", (
    (models.build_baby, 0.6),
    (lambda: models.build_model_i((1.0, 2.0, 2.0)), 0.0),
    (lambda: models.build_model_ii((1.0,)), 0.0),
    (lambda: models.build_model_ii((1.0, 1.0)), 0.0)),
    ids=("baby", "model_i", "model_ii_1", "model_ii_2"))
def test_unitary_flow_stack_matches_scalar_calls(build, alpha):
    inst = build()
    g = inst.g_alpha(alpha)
    for a in operators.sparse_annihilators(inst.spec.modes):
        _assert_stack_is_per_s(
            operators.unitary_flow(g, np.array(FLOW_POINTS), a),
            lambda s: operators.unitary_flow(g, s, a))


@pytest.mark.parametrize("build,alpha", (
    (lambda: models.build_model_i((1.0, 2.0, 2.0)), 0.0),
    (lambda: models.build_model_ii((0.7, 1.3)), 0.4)),
    ids=("model_i", "model_ii"))
@pytest.mark.parametrize("s", (0.7, np.array(FLOW_POINTS)), ids=("s", "s1d"))
def test_unitary_flow_operator_stack_is_per_operator(build, alpha, s):
    """A (modes, d, d) stack of operators flows bit for bit like one call
    per operator, with the operator axis first."""
    inst = build()
    g = inst.g_alpha(alpha)
    ops = operators.sparse_annihilators(inst.spec.modes)
    stack = operators.unitary_flow(g, s, np.stack([a.toarray() for a in ops]))
    assert stack.shape == (len(ops), *np.shape(s), *g.shape)
    for layer, a in zip(stack, ops):
        assert np.array_equal(layer, operators.unitary_flow(g, s, a))


@pytest.mark.parametrize("alpha", (0.0, 0.6, 1.9))
def test_baby_flow_stack_matches_scalar_calls(alpha):
    _assert_stack_is_per_s(
        models.baby_flow_closed(np.array(FLOW_POINTS), alpha),
        lambda s: models.baby_flow_closed(s, alpha))


@pytest.mark.parametrize("k", range(3))
def test_model_i_flow_stack_matches_scalar_calls(k):
    inst = models.build_model_i((1.0, 2.0, 2.0))
    _assert_stack_is_per_s(
        models.model_i_flow_closed(k, np.array(FLOW_POINTS), inst),
        lambda s: models.model_i_flow_closed(k, s, inst))


@pytest.mark.parametrize("z,k", (((1.0,), 0), ((1.0, 1.0), 0),
                                 ((1.0, 1.0), 1), ((0.7, 1.3), 1)))
def test_model_ii_flow_stack_matches_scalar_calls(z, k):
    """z = (1.0,) puts s on the kernel of G, where phi(0) = is."""
    inst = models.build_model_ii(z)
    stacks = models.model_ii_flow_closed(k, np.array(FLOW_POINTS), inst)
    for flavor, stack in enumerate(stacks):
        _assert_stack_is_per_s(
            stack, lambda s: models.model_ii_flow_closed(k, s, inst)[flavor])


# ----------------------------------------------------------- counterexample

def test_hopping_candidate_not_nilpotent():
    q = models.hopping_supercharge(3, (1.0, 1.0, 1.0), periodic=True)
    ok, res = models.nilpotency_check(q)
    assert not ok
    assert res > 1e-3
    assert res == pytest.approx(COUNTEREXAMPLE_RESIDUAL, abs=1e-12)
    assert res == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)), abs=1e-12)


def test_model_builders_are_nilpotent():
    for inst in (models.build_baby(), models.build_model_i((1.0, 2.0)),
                 models.build_model_ii((1.0, 1.0)),
                 models.build_model_iii_fock(2)[0]):
        ok, res = models.nilpotency_check(inst.q)
        assert ok, res
    assert models.nilpotency_check(np.zeros((2, 2), dtype=complex))[0]


# ---------------------------------------------------------------- model III

def test_model_iii_propositions():
    inst, pair = models.build_model_iii_fock(2)
    eye = np.eye(inst.spec.dim)
    eta = pair.eta_n
    # (i) eta CAR on the full Fock space
    assert np.linalg.norm((eta @ eta).toarray(), 2) < 1e-12
    assert np.abs((eta @ eta.conj().T + eta.conj().T @ eta).toarray()
                  - eye).max() < 1e-10
    # (iii) [M, eta] = 0
    comm = operators.bracket(pair.m_n, pair.eta_n, "commutator")
    assert np.linalg.norm(comm.toarray(), 2) < 1e-12
    for b in pair.b_ops:
        assert np.linalg.norm((b @ b).toarray(), 2) < 1e-14
    for b, a3 in zip(pair.b_ops, pair.a3_ops):
        comm = operators.bracket(b, a3, "commutator")
        assert np.linalg.norm(comm.toarray(), 2) < 1e-12


def test_model_iii_pair_car_on_pair_sector():
    _, pair = models.build_model_iii_fock(2)
    p = pair.pair_projector.toarray()
    eye = np.eye(p.shape[0])
    for b in pair.b_ops:
        resid = p @ ((b @ b.conj().T + b.conj().T @ b).toarray() - eye) @ p
        assert np.linalg.norm(resid, 2) < 1e-12


def test_model_iii_expansion_on_pair_sector():
    inst, pair = models.build_model_iii_fock(3)
    p = pair.pair_projector
    expansion = models.hss_pair_expansion(pair)
    assert np.linalg.norm((p @ (inst.h - expansion) @ p).toarray(), 2) \
        < 1e-10


def test_model_iii_m_norm_exact_law():
    """||M_N|| = sqrt((floor(N/2)+1)(N - floor(N/2)))/sqrt(N) exactly; the
    asymptotic sqrt(N)/2 is approached from above with ratio sqrt(1+2/N)."""
    for n in (1, 2, 3, 4):
        k = n // 2
        exact = np.sqrt((k + 1) * (n - k) / n)
        assert models.fock_m_norm(n) == pytest.approx(exact, abs=1e-10)
    # the helper agrees with the dense operator where the latter is cheap
    _, pair = models.build_model_iii_fock(2)
    assert np.linalg.norm(pair.m_n.toarray(), 2) == \
        pytest.approx(models.fock_m_norm(2), abs=1e-12)


def test_model_iii_even_n_extra_ground_states():
    """N=2: pairwise-anticorrelated pair states join the kernel."""
    inst, pair = models.build_model_iii_fock(2)
    vals = np.linalg.eigvalsh(inst.h.toarray())
    # the a^3 factor alone contributes 2^N kernel states; the pair singlet
    # sector enlarges it further for even N
    assert int(np.sum(np.abs(vals) < 1e-10)) > 4


def test_model_iii_builds_sparse_at_its_cap():
    """n = 4 (dimension 4096) builds without dense operators, and the pair
    expansion of H holds on the pair sector there too (sparse exact norm)."""
    inst, pair = models.build_model_iii_fock(4)
    assert inst.h.shape == (4096, 4096)
    p = pair.pair_projector
    resid = p @ (inst.h - models.hss_pair_expansion(pair)) @ p
    assert operators.hermitian_norm(resid) < 1e-10


def test_model_iii_dimension_bound():
    with pytest.raises(operators.DimensionError):
        models.build_model_iii_fock(5)


def test_symmetric_sector_spectrum_shape():
    vals = models.model_iii_symmetric_sector_spectrum(2)
    assert len(vals) == 6
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    # ceiling of the normalized H: N(N+2)/(4N) = 1 at N=2
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_sector_columns_of_h_give_h_times_the_basis_bit_for_bit(n):
    """H[:, S] B, with S the rows where the sector basis B is nonzero, has
    the bytes of H B: every entry kept sums the full product's terms in
    the same order."""
    inst, pair = models.build_model_iii_fock(n)
    bmat = symmetric_sector_basis(pair)
    nz = np.nonzero(bmat)
    b = operators.Sparse(*nz, bmat[nz], bmat.shape)
    cols = inst.h_columns(nz[0])
    assert cols.nnz < inst.h.nnz
    got, want = cols @ b, inst.h @ b
    for name in ("rows", "cols", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_sector_spectrum_never_forms_the_full_h(monkeypatch):
    """At n = 4 the sector spectrum reads H only on the sector's columns:
    with ModelInstance.h made to raise, it still runs."""
    def refuse(self):
        raise AssertionError("the full H was formed")
    monkeypatch.setattr(models.ModelInstance, "h", property(refuse))
    vals = models.model_iii_symmetric_sector_spectrum(4)
    assert len(vals) == 10
    # ceiling of the normalized H: N(N+2)/(4N) = 1.5 at N=4
    assert vals[-1] == pytest.approx(1.5, abs=1e-10)


@pytest.mark.parametrize("n", (2, 3))
def test_locked_pair_sector_is_the_fock_model_on_locked_states(n):
    """On the 8^n Fock states whose pairs are locked, taken in their order,
    the Fock eta_N is the sector's eta_N and the Fock Q is minus the
    sector's Q: the sector's b_i carries no Jordan-Wigner sign, the Fock
    a^1_i a^2_i a sign -1."""
    inst, pair = models.build_model_iii_fock(n)
    sector, eta = models.build_model_iii_sector(n)
    locked = np.flatnonzero(pair.pair_projector.diagonal())
    assert locked.size == sector.q.shape[0] == 4 ** n
    on = np.ix_(locked, locked)
    assert np.array_equal(pair.eta_n.toarray()[on], eta.toarray())
    assert np.array_equal(inst.q.toarray()[on], -sector.q.toarray())


@pytest.mark.parametrize("n", (2, 3, 4))
def test_sector_spectrum_keeps_the_fock_bytes(n):
    """The 4^n sector route gives the bytes of the 8^n Fock route
    (tests/expect.py keeps it), the spectrum that verify's dicke_cross_rep
    and `spectrum --model model_iii` print."""
    got = models.model_iii_symmetric_sector_spectrum(n)
    assert got.tobytes() == fock_sector_spectrum(n).tobytes()


@pytest.mark.parametrize("n", (5, 6))
def test_sector_spectrum_matches_dicke_above_the_fock_cap(n):
    """Past the Fock space's 4 sites the sector spectrum is still the
    Dicke H_SS spectrum (residuals about 1e-15)."""
    got = models.model_iii_symmetric_sector_spectrum(n)
    want = dicke.hss_eigenvalues(dicke.collective_ops(n))
    assert np.abs(got - want).max() <= DEFAULT_TOLERANCES["spectral"]


def test_model_iii_sector_dimension_bound():
    with pytest.raises(operators.DimensionError, match="at most 8 sites"):
        models.build_model_iii_sector(9)


# ------------------------------------------------------- sparse builders

BUILT = (
    ("baby", models.build_baby),
    ("model_i", lambda: models.build_model_i((1.0, 2.0, 0.5))),
    ("model_ii", lambda: models.build_model_ii((1.0, 0.7))),
    ("model_iii", lambda: models.build_model_iii_fock(2)[0]),
)


@pytest.mark.parametrize("name,build", BUILT)
def test_builders_return_read_only_csr(name, build):
    inst = build()
    for m in (inst.q, inst.h):
        assert read_only_sparse(m)
    q = inst.q.toarray()
    assert np.abs(inst.h.toarray()
                  - (q @ q.conj().T + q.conj().T @ q)).max() < 1e-14


def test_pair_hopping_and_bcs_operators_are_read_only_csr():
    _, pair = models.build_model_iii_fock(2)
    bcs = [models.build_bcs(2, rep) for rep in ("fock", "dicke")]
    for m in (*pair.b_ops, *pair.a3_ops, pair.m_n, pair.eta_n,
              pair.pair_projector, models.hopping_supercharge(3),
              *(b.h_bcs for b in bcs), *(b.h_ss for b in bcs)):
        assert read_only_sparse(m)


# --------------------------------------------------------------------- bcs

def test_bcs_fock_matches_pairing_hamiltonian():
    bcs = models.build_bcs(2, "fock")
    m = models.build_model_iii_fock(2)[1].m_n
    assert np.linalg.norm((bcs.h_bcs + m.conj().T @ m).toarray(), 2) < 1e-14
    assert bcs.diff_norm <= 1.0 + 1e-12


def test_bcs_dicke_bounded_difference():
    for n in (2, 4, 8):
        bcs = models.build_bcs(n, "dicke")
        assert bcs.diff_norm <= 1.0 + 1e-12


@pytest.mark.parametrize("rep,n", (("fock", 2), ("fock", 3), ("fock", 4),
                                   ("dicke", 2), ("dicke", 4), ("dicke", 8),
                                   ("dicke", 16)))
def test_bcs_difference_norm_is_exactly_one(rep, n):
    """||H_BCS + H_SS|| = ||eta eta^dag S_z|| / N = 1: the top |S_z| = N."""
    diff = models.build_bcs(n, rep).diff_norm
    assert abs(diff - 1.0) <= DEFAULT_TOLERANCES["identity"]


def test_bcs_rejects_oversize_fock():
    with pytest.raises(operators.DimensionError):
        models.build_bcs(5, "fock")
    with pytest.raises(ValueError):
        models.build_bcs(2, "nope")
