"""The traced benchmark (``bench/tracing.py``) patches entry points by name.

A refactor that renames or moves one of them would break ``--trace 1``
only when someone runs it; this test fails first.
"""

import importlib.util
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
