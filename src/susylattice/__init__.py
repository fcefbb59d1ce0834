"""Exact numerical laboratory for supersymmetric fermion-lattice models:
finite-size Fock and collective-spin representations plus the probes that
make their infinite-volume limits falsifiable."""

__version__ = "1.0.0"

from .operators import (
    LatticeSpec,
    SuperDecomposition,
    DimensionError,
    NilpotencyError,
    fermion_ops,
    bracket,
    hermitian_function,
    unitary_flow,
    spectrum,
    cluster_eigenvalues,
    gauge_charge,
    nilpotency_residual,
    super_decompose,
    verify_decomposition,
)
from .models import (
    ModelInstance,
    PairAlgebraOps,
    BcsModel,
    build_baby,
    baby_flow_closed,
    build_model_i,
    model_i_flow_closed,
    build_model_ii,
    model_ii_flow_closed,
    build_model_iii_fock,
    fock_m_norm,
    model_iii_symmetric_sector_spectrum,
    build_bcs,
    hopping_supercharge,
    nilpotency_check,
)
from .dicke import (
    DickeOperators,
    DickeState,
    VanishingNormError,
    collective_ops,
    build_g_alpha_dicke,
    build_hss_dicke,
    hss_unnormalized,
    hss_eigenvalues,
    ground_state,
    ceiling_state_ladder,
    ceiling_state_integral,
    ceiling_law_exact,
    bogoliubov_state,
    coherent_superposition,
    overlap,
    expectation,
)
from .limits import (
    FluctuationParams,
    FitResult,
    WittenLimitModel,
    extrapolate,
    sweep,
    fluctuation_expectation,
    gaussian_target,
    weyl_relation_probe,
    bs_gaussian_probe,
    odlro,
    witten_limit,
    bs_free_evolution,
    macroscopic_probe,
    collective_m_norm,
)
from .tensorrep import TensorSpinRep
