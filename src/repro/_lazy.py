"""Lazy package surfaces (PEP 562) for ``repro``, ``repro.sim``, ``repro.harness``.

A package that imports its submodules in order to re-export their names
makes every entry point pay for every substrate (the simulator loaded
asyncio, the runtime loaded the scheduler).  These packages declare
``{submodule: names}`` instead.  A name is looked up in its defining
submodule on *every* access and never bound in the package, so a name
patched where it is defined is seen patched through the package.
"""

import sys
from importlib import import_module
from typing import Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s module namespace."""
    home = {name: submodule for submodule, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(home[name], package), name)

    def __dir__():
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__, sorted(home)
