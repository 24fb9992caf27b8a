"""The one way a faulty server or client class is made.

A faulty party starts from the honest code and deviates: its class is
a behaviour *mixin* placed in front of an honest server or client
class.  :func:`derive` builds that class once per ``(mixin,
honest_cls)`` pair, so ``isinstance`` checks, public aliases and
plan-built overrides all meet the same class object;
:func:`named_variant` takes the mixin from a table of named behaviours.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.errors import ConfigurationError

#: Derived classes by ``(mixin, honest_cls)``.
_VARIANTS: Dict[Tuple[type, type], type] = {}


def derive(mixin: type, honest_cls: type, name: str) -> type:
    """``class name(mixin, honest_cls)``, built on first request and
    memoized: later calls for the pair return the same class whatever
    ``name`` they pass."""
    variant = _VARIANTS.get((mixin, honest_cls))
    if variant is None:
        variant = _VARIANTS[mixin, honest_cls] = type(
            name, (mixin, honest_cls),
            {"__module__": mixin.__module__, "__doc__": mixin.__doc__})
    return variant


def named_variant(table: Dict[str, Tuple[type, Tuple[type, ...]]],
                  kind: str, honest_cls: type, behaviour: str) -> type:
    """``honest_cls`` running ``table[behaviour]`` (``name -> (mixin,
    honest classes it deviates from)``), derived once; raises
    :class:`ConfigurationError` for an unknown name or a class it does
    not deviate from."""
    if behaviour not in table:
        raise ConfigurationError(
            f"unknown {kind} {behaviour!r}; choose "
            f"from {tuple(sorted(table))}")
    mixin, deviates_from = table[behaviour]
    if not issubclass(honest_cls, deviates_from):
        raise ConfigurationError(
            f"{kind} {behaviour!r} deviates from "
            f"{' or '.join(cls.__name__ for cls in deviates_from)}, "
            f"not {honest_cls.__name__}")
    return derive(mixin, honest_cls,
                  mixin.__name__ + honest_cls.__name__.removeprefix("Atomic"))
