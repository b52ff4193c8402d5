"""The benchmark's span table names only functions the package still has."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import TARGETS  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.owner}.{t.attr}")
def test_every_span_target_resolves_on_its_module_or_class(target):
    # a renamed or moved function would leave its span counting nothing
    module, _, cls = target.owner.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, target.attr, None))
