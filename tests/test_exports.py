"""Every name a module exports through __all__ resolves."""

from __future__ import annotations

import pytest

import repeatcap
import repeatcap.numerics


@pytest.mark.parametrize("module", (repeatcap, repeatcap.numerics), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
