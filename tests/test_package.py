"""The names ``import mpstomo`` exports: the pipeline and its data types.

Internals (the bond objective, ``split_two_site``, the dense oracle) are
imported from their modules; adding or dropping an export means updating
the list below.
"""

import types

import mpstomo

PUBLIC_NAMES = [
    "CalibrationResult", "Dataset", "DegenerateStateError", "EstimateOutOfRegime",
    "ExperimentConfig", "FormatError", "LossReport", "MatrixProductState",
    "ParameterError", "PartialReconstructionError", "PowerLawFit", "ResourceError",
    "StageRecord", "StateError", "TargetSpec", "TomographyError", "TrainConfig",
    "build_target", "cluster_state", "dimer_state", "draw_shots", "estimate_fidelity",
    "fit_power_law", "fixed_bases", "load_config", "load_mps", "measure_batch", "nll",
    "per_site_fidelity", "r_succ", "random_init", "random_target",
    "replicas_to_threshold", "report", "rotation_matrices", "run_scaling_suite",
    "run_tomography", "run_virtual", "sample_bases", "train_stage", "w_state",
]


def test_public_names():
    exported = sorted(
        name for name, value in vars(mpstomo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == sorted(PUBLIC_NAMES)
