"""The package's public surface is exactly uqc.__all__."""

import inspect

import uqc


def test_every_exported_name_resolves():
    missing = [name for name in uqc.__all__ if not hasattr(uqc, name)]
    assert missing == []


def test_exports_are_the_public_attributes():
    # submodules (uqc.engine, ...) are attributes too, but not exports
    public = {name for name, value in vars(uqc).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(uqc.__all__) == sorted(public)
    assert len(set(uqc.__all__)) == len(uqc.__all__)
