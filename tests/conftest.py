"""Fixtures shared by the test modules."""

import pytest

from lgrin import training as tr


@pytest.fixture
def corrupt_gradient(monkeypatch):
    """Call with a registry name to offset that group's analytic gradient in
    ``training.registry_grads``: a negative control for the gradient check."""
    real = tr.registry_grads

    def corrupt(name):
        def registry_grads(registry, grads):
            out = real(registry, grads)
            out[name] = out[name] + 1e-2
            return out

        monkeypatch.setattr(tr, "registry_grads", registry_grads)

    return corrupt
