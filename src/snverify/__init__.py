"""Exact desk-scale toolkit for symmetric-group representation theory and
entanglement verification: Young's orthogonal irreps, the group Fourier
transform, weak Fourier sampling, Kronecker coefficients, maximally
entangled subspace states, and the two-step verification algorithm with
numerically certified robustness bounds.
"""

import types

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    NumericalConsistencyError,
    ResourceLimitError,
    SnverifyError,
)
from .symgroup import (
    Partition,
    Permutation,
    StandardTableau,
    adjacent_transposition_decomposition,
    class_size,
    compose,
    conjugacy_class_of,
    enumerate_group,
    enumerate_partitions,
    enumerate_tableaux,
    inverse,
    irrep_dimension,
)
from .characters import irrep_character, lightning_distribution
from .yyrep import (
    GroupRep,
    fourier_transform_matrix,
    identity_times_irrep,
    irrep,
    regular_representations,
    rep_evaluate,
    rep_stack,
    tensor_rep,
)
from .wfs import (
    KrausElement,
    Multiplicity,
    Projector,
    gpe_kraus,
    isotypic_block_basis,
    kronecker_coefficient,
    measure_wfs,
    wfs_projector,
)
from .entangled import (
    StateVector,
    phi_plus,
    psi_lambda,
    unvec,
    vec,
)
from .verifier import (
    AcceptanceOperator,
    CertificationTrial,
    TestReport,
    certify_corollary_bound,
    certify_lemma_bound,
    channel_E,
    internal_test_probability,
    run_verifier_sampled,
    verification_acceptance_operator,
)
from .selftest import run_selftest

__version__ = "0.1.0"

# Every public name imported above, and no submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
