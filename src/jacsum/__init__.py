"""Exact verification of Jacobsthal-number identities and rigorous
enclosure of the four reciprocal series built on them.

All arithmetic on any decision path is exact (integers and rationals);
floor/ceiling claims about series limits are decided through adaptive
interval refinement, never through floating point.

The package API is the union of the `__all__` lists of `identities`,
`intervals`, `sequence`, `series` and `theorems`; each name is listed
once, in its own module.  `import jacsum` imports none of them: a name is
looked up on first access in the first of them, in the order of
`_MODULES`, whose `__all__` lists it, importing the modules it passes, and
is then kept in the package (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("intervals", "sequence", "series", "theorems", "identities")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [item for module in _MODULES for item in __getattr__(module).__all__]
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            return globals().setdefault(name, getattr(module, name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
