"""The package's public surface: `__all__` and the top-level names agree."""

import types

import minimaxsplit


def test_every_exported_name_imports():
    namespace = {}
    exec("from minimaxsplit import *", namespace)
    missing = [name for name in minimaxsplit.__all__ if name not in namespace]
    assert missing == []
    assert len(set(minimaxsplit.__all__)) == len(minimaxsplit.__all__)


def test_every_public_name_is_exported():
    public = {name for name, value in vars(minimaxsplit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(minimaxsplit.__all__)) == []
