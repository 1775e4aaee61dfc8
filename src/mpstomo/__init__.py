"""Pure-state tomography with a matrix-product-state generative model.

Single-shot projective measurements in random local bases train an MPS by
DMRG-style two-site sweeps on a penalized log-likelihood; the run history
doubles as a target-free fidelity estimator once its convergence constant
is calibrated by virtual tomography.
"""

from .config import ExperimentConfig, TrainConfig, load_config
from .errors import (
    DegenerateStateError,
    EstimateOutOfRegime,
    FormatError,
    ParameterError,
    PartialReconstructionError,
    ResourceError,
    StateError,
    TomographyError,
)
from .estimation import (
    CalibrationResult,
    PowerLawFit,
    StageRecord,
    estimate_fidelity,
    extrapolate_replicas,
    fit_power_law,
    per_site_fidelity,
    r_succ,
    run_virtual,
)
from .measurement import (
    Dataset,
    draw_shots,
    fixed_bases,
    measure_batch,
    sample_bases,
)
from .mps import (
    MatrixProductState,
    load_mps,
    max_canonical_defect,
    random_init,
    split_two_site,
)
from .oracle import (
    DenseState,
    dense_probabilities,
    dense_probability,
    fixed_basis_probabilities,
    fixed_basis_reconstruct,
    kl_divergence,
)
from .rotations import rotation_matrices, wigner_d_matrix
from .runner import (
    replicas_to_threshold,
    report,
    run_scaling_suite,
    run_tomography,
)
from .states import TargetSpec, build_target, cluster_state, dimer_state, random_target, w_state
from .training import BondObjective, LossReport, nll, train_stage

__version__ = "0.1.0"
