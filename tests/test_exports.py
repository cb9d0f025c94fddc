"""Every name a module lists in ``__all__`` exists in it."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    [
        "braidconway",
        "braidconway.braid",
        "braidconway.burau",
        "braidconway.polyring",
        "braidconway.skein3",
    ],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_full_twist_difference_lives_beside_the_leaf_it_equals():
    import braidconway
    from braidconway import burau, skein3

    assert braidconway.full_twist_difference is skein3.full_twist_difference
    assert not hasattr(burau, "full_twist_difference")
