"""The traced benchmark (``bench/tracing.py``) patches entry points by name.

A refactor that renames or moves one of them would break ``--trace 1``
only when someone runs it; this test fails first.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _load_tracing().PATCHES


@pytest.mark.parametrize("span", sorted(PATCHES))
def test_patched_names_exist_on_their_owners(span):
    for owner, attr in PATCHES[span]:
        assert attr in owner.__dict__, f"{span}: {owner.__name__} has no {attr!r}"


def test_bond_objective_keeps_the_attributes_the_hooks_read(rng):
    from mpstomo import measure_batch, random_init, w_state

    from conftest import bond_objective

    obj, merged = bond_objective(
        random_init(4, 2, 2, seed=1), 1, measure_batch(w_state(4), 20, 0.0, rng), 0.1
    )
    obj.gradient(merged)
    for attr in ("count", "shape", "penalty_weight", "clamped_last"):
        assert hasattr(obj, attr), attr


def test_hooks_read_the_arguments_they_count():
    # the hooks read call arguments by position (``args[2]`` of
    # _sample_outcome_indices is the shot count); a reordering would skew
    # counters such as sampled_shots without any error
    from mpstomo import measurement, runner, training

    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    from_file = measurement.Dataset.__dict__["from_file"].__func__  # cls first, as traced
    for fn, name, index in [
        (measurement._sample_outcome_indices, "count", 2),
        (measurement.measure_batch, "count", 1),
        (training.train_stage, "config", 2),
        (measurement.Dataset.to_file, "path", 1),
        (from_file, "path", 1),
        (runner.write_run_dir, "out_dir", 0),
    ]:
        param = list(inspect.signature(fn).parameters.values())[index]
        assert param.name == name and param.kind in positional, f"{fn.__qualname__}: {name}"
