import importlib

import pytest


@pytest.mark.parametrize("module", [
    "mlstab", "mlstab.weights", "mlstab.solver", "mlstab.special", "mlstab.resolvent",
    "mlstab.analysis", "mlstab.problems", "mlstab.tables"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
