"""The names ``import mpstomo`` exports: the pipeline and its data types.

Internals (the bond objective, ``split_two_site``, the dense oracle) are
imported from their modules; adding or dropping an export means updating
the list below.
"""

import ast
import types
from pathlib import Path

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


def test_modules_use_every_name_they_import():
    # no linter runs on this package; an import kept for another module's
    # sake says so with "# noqa: F401"
    unused = []
    for path in sorted(Path(mpstomo.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        for node in imports:
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            if noqa or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []
