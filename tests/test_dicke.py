"""Collective-spin engine: ladder algebra, distinguished states, ceiling
eigenproblem and the quadrature constructions."""

import ast
from pathlib import Path

import mpmath
import numpy as np
import pytest

from susylattice import dicke, models
from susylattice.operators import ETA, Sparse, apply_diagonals, lift
from expect import (SparseDicke, build_g_alpha_dicke, build_hss_dicke,
                    ceiling_state_ladder, expectation, full_ladder_arrays,
                    hss_unnormalized, kron_basis_vector, read_only_sparse)


@pytest.mark.parametrize("n", (1, 2, 5, 40))
def test_commutation_relations(n):
    ops = SparseDicke(n)
    sp, sm, sz = (m.toarray() for m in (ops.s_plus, ops.s_minus, ops.s_z))
    assert np.abs(sp @ sm - sm @ sp - sz).max() < 1e-10
    assert np.abs(sz @ sp - sp @ sz - 2 * sp).max() < 1e-10
    assert np.abs(sz @ sm - sm @ sz + 2 * sm).max() < 1e-10


@pytest.mark.parametrize("n", (1, 2, 7))
def test_casimir(n):
    ops = SparseDicke(n)
    s2 = (ops.s_x @ ops.s_x + ops.s_y @ ops.s_y
          + ops.s_z @ ops.s_z).toarray()
    assert np.abs(s2 - n * (n + 2) * np.eye(n + 1)).max() < 1e-10


def test_n1_pauli():
    ops = SparseDicke(1)
    assert np.allclose(ops.s_plus.toarray(), [[0, 0], [1, 0]])
    assert np.allclose(ops.s_z.toarray(), np.diag([-1.0, 1.0]))


def test_n2_ladder_amplitude():
    # forced by the doubled-spacing commutators at s = 1
    ops = SparseDicke(2)
    lowest = np.array([1.0, 0.0, 0.0])
    assert np.linalg.norm(ops.s_plus @ lowest) == pytest.approx(np.sqrt(2))


def _eta_full(ops):
    return lift(Sparse.from_diagonals({0: np.ones(ops.n + 1)}), ETA)


def test_lifted_operators_commute_with_eta():
    ops = SparseDicke(3)
    eta = _eta_full(ops)
    for m in (lift(ops.s_plus), lift(ops.s_z), lift(ops.s_x)):
        comm = (m @ eta - eta @ m)
        assert abs(comm).max() < 1e-14


# --------------------------------------------------------- the Clifford lift

def _multiplet_operators(ops):
    """Every DickeOperators multiplet operator, and S_+ S_-."""
    return {"s_plus": ops.s_plus, "s_minus": ops.s_minus, "s_z": ops.s_z,
            "s_x": ops.s_x, "s_y": ops.s_y,
            "s_plus_s_minus": ops.s_plus @ ops.s_minus}


def _probe_vectors(dim, rng):
    """Two random complex vectors, then basis vectors: all of them up to
    dimension 16, else the first, middle and last two."""
    out = [rng.normal(size=dim) + 1j * rng.normal(size=dim)
           for _ in range(2)]
    picks = range(dim) if dim <= 16 else (0, 1, dim // 2 - 1, dim // 2,
                                          dim - 2, dim - 1)
    for k in picks:
        e = np.zeros(dim, dtype=complex)
        e[k] = 1.0
        out.append(e)
    return out


def _bits(a):
    """The IEEE bit patterns of a complex array, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", (1, 7, 200, 5000))
def test_lift_apply_is_the_lifted_product_bit_for_bit(n):
    """The lifted apply, apply_diagonals(ops.diagonals(name, lo, hi), rows)
    on rows lo .. hi - 1 of v.reshape(-1, 2), is lift(a) @ v to the last
    bit, over the whole vector and over a window of rows outside which v
    vanishes (an empty one included), and so is S_+ applied after S_-: the
    probes that apply an operator without building its lift keep every
    golden byte."""
    ops = SparseDicke(n)
    rng = np.random.default_rng(n)
    vectors = _probe_vectors(ops.dim, rng)
    lo, hi = sorted(rng.integers(0, n + 2, size=2))
    window = np.zeros(ops.dim, dtype=complex)
    window[2 * lo:2 * hi] = vectors[0][2 * lo:2 * hi]

    def lift_apply(name, rows, lo=0):
        return apply_diagonals(ops.diagonals(name, lo, lo + len(rows)), rows)
    for name in ("s_plus", "s_minus", "s_z", "s_x", "s_y"):
        full = lift(getattr(ops, name))
        for v in vectors:
            got = lift_apply(name, v.reshape(-1, 2)).ravel()
            assert np.array_equal(got, full @ v), name
        got = lift_apply(name, window.reshape(-1, 2)[lo:hi], lo)
        assert np.array_equal(got.ravel(), (full @ window)[2 * lo:2 * hi]), \
            name
        assert lift_apply(name, np.zeros((0, 2)), 0).shape == (0, 2)
    sp, sm = lift(ops.s_plus), lift(ops.s_minus)
    for v in vectors:
        got = lift_apply("s_plus", lift_apply("s_minus", v.reshape(-1, 2)))
        assert np.array_equal(got.ravel(), sp @ (sm @ v))


def _same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("n", (1, 2, 257, dicke.MAX_PARTICLES))
def test_windows_are_slices_of_the_full_arrays_bit_for_bit(n):
    """window(lo, hi), amp, sz and diagonals(name, lo, hi) give the bytes of
    the slices of the arrays DickeOperators held whole, and diagonals the
    dict it built from them; windows clipped at either end, past the top
    and empty included."""
    ops = dicke.collective_ops(n)
    amp, sz = full_ladder_arrays(n)
    assert _same_bytes(ops.amp, amp) and _same_bytes(ops.sz, sz)
    mid = n // 2
    for lo, hi in ((0, None), (0, n + 1), (0, 1), (0, 2), (0, 5),
                   (mid, mid + 1), (max(mid - 3, 0), mid + 4), (n - 1, n + 1),
                   (n, n + 1), (n, n + 9), (2, None), (n + 1, n + 3),
                   (mid, mid), (3, 1), (0, 0)):
        top = n + 1 if hi is None else hi
        got_amp, got_sz = ops.window(lo, hi)
        assert _same_bytes(got_amp, amp[lo:max(top - 1, 0)]), (lo, hi)
        assert _same_bytes(got_sz, sz[lo:top]), (lo, hi)
        a = amp[lo:n if hi is None else max(hi - 1, 0)]
        want = {"s_plus": {-1: a}, "s_minus": {1: a}, "s_z": {0: sz[lo:hi]},
                "s_x": {-1: a, 1: a}, "s_y": {-1: -1j * a, 1: 1j * a}}
        for name, diagonals in want.items():
            got = ops.diagonals(name, lo, hi)
            assert list(got) == list(diagonals), name
            assert all(_same_bytes(got[k], d) for k, d in diagonals.items())


@pytest.mark.parametrize("n", (1, 2, 257, dicke.MAX_PARTICLES))
def test_basis_states_are_the_kron_vectors_with_their_scanned_span(n):
    """A basis state writes its one 1 into zeros: the bytes of the np.kron
    vector it replaced, and the span it records is the scanned run."""
    for k in sorted({0, n // 2, n // 2 + 1, n}):
        state = dicke._basis_state(n, k, "e_k")
        assert _same_bytes(state.vector, kron_basis_vector(n, k))
        scanned = dicke.DickeState(vector=state.vector, label="scan", n=n)
        assert state.span == scanned.span == (k, k + 1)


@pytest.mark.parametrize("n", (1, 2, 7, 200))
def test_multiplet_csr_is_the_ladder_expression(n):
    """The Sparse that SparseDicke.matrix builds from the diagonals holds,
    bit for bit and signed zeros included, the entries of the ladder
    expressions S_x = S_+ + S_- and S_y = (S_+ - S_-)/i."""
    ops = SparseDicke(n)
    sp, sm = ops.s_plus, ops.s_minus
    for got, want in ((ops.s_x, sp + sm), (ops.s_y, (sp - sm) / 1j)):
        assert np.array_equal(_bits(got.toarray()), _bits(want.toarray()))


@pytest.mark.parametrize("n", (1, 7))
def test_lift_is_the_kronecker_product(n):
    """lift(a, c) is a (x) c, ladder-major: the identity by default, or
    ETA on the Clifford factor."""
    for name, a in _multiplet_operators(SparseDicke(n)).items():
        for c, got in ((np.eye(2), lift(a)), (ETA, lift(a, ETA))):
            assert read_only_sparse(got)
            assert np.array_equal(got.toarray(), np.kron(a.toarray(), c)), \
                name


SRC = Path(dicke.__file__).resolve().parent


def _product_space_sites():
    """(module, top-level definition) of every call, in the collective layer
    (dicke, limits), of the Sparse (rows, cols, data) constructor or of a
    Kronecker product other than numpy's dense np.kron."""
    sites = set()
    for stem in ("dicke", "limits"):
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                built = (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name)
                         and node.func.id in ("Sparse", "kron"))
                attr = (isinstance(node, ast.Attribute) and node.attr == "kron"
                        and not (isinstance(node.value, ast.Name)
                                 and node.value.id == "np"))
                if built or attr:
                    sites.add((stem, getattr(top, "name", None)))
    return sites


def test_one_clifford_lift():
    """The product-space order lives in operators.lift alone: the collective
    layer builds no product-space matrix of its own, and the Dicke layer
    keeps no lifted copies of its operators.  dicke.py takes nothing from
    .operators but DimensionError, so it cannot build a Sparse."""
    assert _product_space_sites() == set()
    text = (SRC / "dicke.py").read_text(encoding="utf-8")
    for word in ("_full", "_lifted", "cached_property"):
        assert word not in text, word
    imported = {(getattr(node, "module", None), alias.name)
                for node in ast.walk(ast.parse(text))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert {m for m in imported if "operators" in repr(m)} == {
        ("operators", "DimensionError")}


def test_bounds_and_errors():
    with pytest.raises(ValueError):
        dicke.collective_ops(0)
    with pytest.raises(dicke.DimensionError):
        dicke.collective_ops(20001)


def test_hss_gauge_independence_and_psd():
    ops = dicke.collective_ops(5)
    h = build_hss_dicke(ops).toarray()
    for alpha in (0.0, 1.1):
        g = build_g_alpha_dicke(ops, alpha).toarray()
        assert np.abs(g @ g - h).max() < 1e-10
    assert np.linalg.eigvalsh(h).min() > -1e-10


def test_g_alpha_spectrum_pm_symmetric():
    ops = dicke.collective_ops(4)
    g = build_g_alpha_dicke(ops, 0.3).toarray()
    vals = np.sort(np.linalg.eigvalsh(g))
    assert np.abs(vals + vals[::-1]).max() < 1e-10


@pytest.mark.parametrize("n", (2, 3, 4))
def test_cross_representation_spectrum(n):
    fock = models.model_iii_symmetric_sector_spectrum(n)
    dvals = dicke.hss_eigenvalues(dicke.collective_ops(n))
    assert np.abs(np.sort(fock) - dvals).max() < 1e-9


def test_hss_low_spectrum_structure():
    """Doubled Witten tower: 0,0,1,1,1,1,2-2/n (x4), ..."""
    n = 64
    vals = dicke.hss_eigenvalues(dicke.collective_ops(n))
    assert np.abs(vals[:2]).max() < 1e-12
    assert np.abs(vals[2:6] - 1.0).max() < 1e-12
    assert np.abs(vals[6:10] - (2.0 - 2.0 / n)).max() < 1e-12


def test_ground_state_properties():
    ops = SparseDicke(6)
    gs = dicke.ground_state(ops)
    h = build_hss_dicke(ops)
    assert np.linalg.norm(h @ gs.vector) < 1e-12
    assert expectation(gs, lift(ops.s_z)).real == pytest.approx(-6.0)
    assert abs(expectation(gs, lift(ops.s_x))) < 1e-14
    assert abs(expectation(gs, lift(ops.s_y))) < 1e-14
    # Clifford factor annihilated by eta^dag
    assert np.linalg.norm(_eta_full(ops).conj().T @ gs.vector) < 1e-14


@pytest.mark.parametrize("n", (2, 4, 100))
def test_ceiling_ladder_eigenrelations(n):
    ops = SparseDicke(n)
    psi1, psi2 = ceiling_state_ladder(ops)
    sz = ops.s_z
    spin2 = psi2.vector.reshape(n + 1, 2)[:, 1]
    spin1 = psi1.vector.reshape(n + 1, 2)[:, 1]
    assert np.linalg.norm(sz @ spin2) < 1e-12          # S_z psi2 = 0
    assert np.abs(sz @ spin1 - 2 * spin1).max() < 1e-12
    hu = hss_unnormalized(ops)
    for psi in (psi1, psi2):
        val = expectation(psi, hu).real
        resid = np.linalg.norm(hu @ psi.vector - val * psi.vector)
        assert abs(4 * val - n * (n + 2)) < 1e-9 * n * (n + 2)
        assert resid < 1e-9 * n


@pytest.mark.parametrize("n", (2, 4, 50, 100, 200))
def test_ceiling_closed_form_matches_ladder(n):
    """The literal ladder: S_+ applied N/2 times to the lowest state (and
    once more for psi1), normalized after every step."""
    ops = SparseDicke(n)
    v = np.zeros(n + 1, dtype=complex)
    v[0] = 1.0
    ladder = []
    for _ in range(n // 2 + 1):
        v = ops.s_plus @ v
        v /= np.linalg.norm(v)
        ladder.append(v)
    psi1, psi2 = ceiling_state_ladder(ops)
    for state, want in ((psi2, ladder[-2]), (psi1, ladder[-1])):
        spin = state.vector.reshape(n + 1, 2)[:, 1]
        assert np.abs(spin - want).max() <= 1e-14
        assert not state.vector.reshape(n + 1, 2)[:, 0].any()


def test_ceiling_ladder_needs_even_n():
    with pytest.raises(ValueError):
        ceiling_state_ladder(dicke.collective_ops(3))


def test_ceiling_law_integer_arithmetic():
    for n in range(2, 1001, 2):
        v1, v2 = dicke.ceiling_law_exact(n)
        assert v1 == n * (n + 2)
        assert v2 == n * (n + 2)


def test_ceiling_integral_overlap_and_normalization():
    for n in (2, 8, 40):
        ops = dicke.collective_ops(n)
        _, psi2 = ceiling_state_ladder(ops)
        integral = dicke.ceiling_state_integral(ops)
        assert abs(dicke.overlap(integral, psi2)) > 1 - 1e-8
        assert integral.meta["c_norm_residual"] < 1e-8


def test_ceiling_integral_n2_64_nodes():
    ops = dicke.collective_ops(2)
    _, psi2 = ceiling_state_ladder(ops)
    integral = dicke.ceiling_state_integral(ops, n_nodes=64)
    assert abs(dicke.overlap(integral, psi2)) > 1 - 1e-10


def test_ceiling_integral_sz_invariance():
    ops = dicke.collective_ops(8)
    integral = dicke.ceiling_state_integral(ops)
    spin = integral.vector.reshape(9, 2)[:, 1]
    phase = np.exp(1j * 0.37 * np.arange(-8, 9, 2))
    assert np.linalg.norm(phase * spin - spin) < 1e-10


def test_ceiling_integral_grid_validation():
    ops = dicke.collective_ops(8)
    with pytest.raises(ValueError):
        dicke.ceiling_state_integral(ops, n_nodes=16)  # < 4N
    with pytest.raises(ValueError):
        dicke.ceiling_state_integral(dicke.collective_ops(3))


def test_quadrature_overlap_converges_geometrically():
    ops = dicke.collective_ops(16)
    _, psi2 = ceiling_state_ladder(ops)
    deficits = []
    for nodes in (64, 128, 256):
        st = dicke.ceiling_state_integral(ops, n_nodes=nodes)
        deficits.append(1 - abs(dicke.overlap(st, psi2)))
    # already at machine floor for these grids
    assert max(deficits) < 1e-12


def test_cos_power_integral():
    assert dicke.cos_power_integral(2) == pytest.approx(np.pi / 2, abs=1e-12)
    assert dicke.cos_power_integral(4) == pytest.approx(3 * np.pi / 8,
                                                        abs=1e-12)


@pytest.mark.parametrize("n", (8, 40, 256, 2001))
def test_cos_power_integral_matches_wallis_product(n):
    """Against the exact integral from Wallis' recursion
    I_n = (n-1)/n I_{n-2}, I_0 = pi, I_1 = 2, at 40 digits."""
    with mpmath.workdps(40):
        exact = mpmath.pi if n % 2 == 0 else mpmath.mpf(2)
        for m in range(2 + n % 2, n + 1, 2):
            exact *= mpmath.mpf(m - 1) / m
        assert abs(dicke.cos_power_integral(n) / exact - 1) < 1e-12


@pytest.mark.parametrize("n", (40, 256, 2000, 20000))
def test_coherent_spin_amplitudes_match_exact_binomials(n):
    """Component k is sqrt(C(n,k)/2^n) e^{i alpha (2k-n)}, here from the
    binomial recursion C(n,k+1) = C(n,k)(n-k)/(k+1) at 30 digits."""
    alpha = 0.3
    amp = dicke.coherent_spin_amplitudes(n, alpha)
    exact = []
    with mpmath.workdps(30):
        term = mpmath.mpf(2) ** -n
        for k in range(n + 1):
            exact.append(float(mpmath.sqrt(term)))
            term = term * (n - k) / (k + 1)
    phase = np.exp(1j * alpha * (2 * np.arange(n + 1) - n))
    assert np.max(np.abs(amp - np.array(exact) * phase)) < 2e-12


@pytest.mark.parametrize("n", (1, 3, 12))
def test_bogoliubov_state_local_expectations(n):
    alpha = 0.4
    ops = SparseDicke(n)
    bs = dicke.bogoliubov_state(ops, alpha)
    assert expectation(bs, lift(ops.s_x)).real / n == pytest.approx(
        np.cos(2 * alpha), abs=1e-12)
    # the phase convention puts the spins along (cos 2a, -sin 2a, 0)
    assert expectation(bs, lift(ops.s_y)).real / n == pytest.approx(
        -np.sin(2 * alpha), abs=1e-12)
    assert abs(expectation(bs, lift(ops.s_z))) < 1e-12


def test_bogoliubov_n1_alpha0():
    bs = dicke.bogoliubov_state(dicke.collective_ops(1), 0.0)
    spin = bs.vector.reshape(2, 2)[:, 1]
    assert np.allclose(spin, [1 / np.sqrt(2), 1 / np.sqrt(2)])


@pytest.mark.parametrize("n", (1410, 4096, dicke.MAX_PARTICLES))
def test_bogoliubov_normalized_at_large_n(n):
    """Log-factorial rounding alone misses the 1e-14 norm check at these
    n."""
    amp = dicke.coherent_spin_amplitudes(n, 0.3)
    assert abs(np.linalg.norm(amp) - 1.0) <= 1e-14
    ops = SparseDicke(n)
    bs = dicke.bogoliubov_state(ops, 0.3)
    assert expectation(bs, lift(ops.s_x)).real / n == pytest.approx(
        np.cos(0.6), abs=1e-12)


@pytest.mark.parametrize("n", (5, 40, 500))
def test_bogoliubov_overlap_decay(n):
    ops = dicke.collective_ops(n)
    a, b = 0.3, 0.7
    ov = dicke.overlap(dicke.bogoliubov_state(ops, a),
                       dicke.bogoliubov_state(ops, b))
    assert abs(ov) == pytest.approx(abs(np.cos(a - b)) ** n, abs=1e-10)


def test_coherent_superposition_recovers_ceiling():
    for n in (8, 200):
        ops = dicke.collective_ops(n)
        _, psi2 = ceiling_state_ladder(ops)
        coh = dicke.coherent_superposition(ops, lambda a: 1.0,
                                           n_nodes=max(256, 4 * n))
        assert abs(dicke.overlap(coh, psi2)) > 1 - 1e-6


def test_coherent_superposition_concentrated_weight():
    """A sharply peaked weight approaches the Bogoliubov state."""
    ops = dicke.collective_ops(12)
    peaked = dicke.coherent_superposition(
        ops, lambda a: np.exp(-200.0 * a * a), n_nodes=2048)
    bs = dicke.bogoliubov_state(ops, 0.0)
    assert abs(dicke.overlap(peaked, bs)) > 1 - 1e-3


def test_coherent_superposition_vanishing_norm():
    ops = dicke.collective_ops(4)
    with pytest.raises(dicke.VanishingNormError):
        # e^{i alpha} selects an odd S_z sector, empty for even n
        dicke.coherent_superposition(ops, lambda a: np.exp(1j * a))


def test_coherent_incoherent_local_agreement():
    """g = 1: local expectations match the incoherent angular average."""
    n = 16
    ops = SparseDicke(n)
    coh = dicke.coherent_superposition(ops, lambda a: 1.0)
    val = expectation(coh, lift(ops.s_x)).real / n
    nodes = -np.pi + 2 * np.pi * (np.arange(512) + 0.5) / 512
    incoherent = np.mean([np.cos(2 * a) for a in nodes])
    assert val == pytest.approx(incoherent, abs=1e-10)


def test_overlap_validations():
    a = dicke.ground_state(dicke.collective_ops(2))
    b = dicke.ground_state(dicke.collective_ops(3))
    with pytest.raises(ValueError):
        dicke.overlap(a, b)
    c2 = ceiling_state_ladder(dicke.collective_ops(2))[1]
    assert abs(dicke.overlap(a, c2)) < 1e-14
    assert dicke.overlap(a, a) == pytest.approx(1.0)


def test_state_norm_validation():
    with pytest.raises(ValueError):
        dicke.DickeState(vector=np.array([1.0, 1.0], dtype=complex),
                         label="bad", n=0)
