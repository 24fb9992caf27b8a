"""The one way a faulty server class is made.

A faulty server starts from the honest code and deviates: its class is
a behaviour *mixin* placed in front of an honest server class.
:func:`derive` builds that class once per ``(mixin, server_cls)`` pair,
so ``isinstance`` checks, public aliases and plan-built overrides all
meet the same class object.  Its two callers are
:func:`repro.faults.failstop.fail_stop` (crash faults) and
:func:`repro.faults.byzantine_servers.byzantine` (named Byzantine
behaviours).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Derived classes by ``(mixin, server_cls)``.
_VARIANTS: Dict[Tuple[type, type], type] = {}


def derive(mixin: type, server_cls: type, name: str) -> type:
    """``class name(mixin, server_cls)``, built on first request and
    memoized: later calls for the pair return the same class whatever
    ``name`` they pass."""
    variant = _VARIANTS.get((mixin, server_cls))
    if variant is None:
        variant = _VARIANTS[mixin, server_cls] = type(
            name, (mixin, server_cls),
            {"__module__": mixin.__module__, "__doc__": mixin.__doc__})
    return variant
