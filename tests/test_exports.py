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


def test_import_leaves_out_what_only_some_commands_need():
    # The process pool, dataclasses (and the inspect module it loads) and
    # the verify claims cost start-up time on every command.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import braidconway

    script = (
        "import sys\n"
        "from braidconway import burau, cli, skein3\n"
        "names = ('concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect',\n"
        "         'braidconway.claims')\n"
        "print([name for name in names if name in sys.modules])\n"
    )
    src = str(Path(braidconway.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
