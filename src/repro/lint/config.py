"""Per-rule module scoping for :mod:`repro.lint`.

Protocol-correctness rules (determinism, quorum arithmetic, handler
completeness) only make sense on protocol modules; running the
determinism pack on the workload generator, which seeds RNGs on
purpose, would be noise.  Scoping is expressed as dotted-module-name
prefixes and only applies to modules inside the ``repro`` package:
modules scanned from anywhere else (e.g. test fixtures with seeded
violations) are always in scope, so fixtures exercise every rule.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Protocol modules: the paper's actual storage/broadcast/agreement
#: logic plus the simulator substrate it runs on.  The observability
#: plane (``repro.obs``, including the health/SLO/time-series layer in
#: ``repro.obs.health``/``slo``/``timeseries``) is held to the same
#: determinism bar — its only wall-clock reads live in
#: ``repro.obs.clock`` behind explicit waivers.
PROTOCOL_PREFIXES: Tuple[str, ...] = (
    "repro.core",
    "repro.avid",
    "repro.broadcast",
    "repro.agreement",
    "repro.net",
    "repro.baselines",
    "repro.faults",
    "repro.obs",
    # The chaos plane interposes on the protocol hot path and promises
    # bit-for-bit replay, so it is held to the same determinism and
    # handler-completeness bar as the protocols it perturbs.
    "repro.chaos",
    # The kv plane multiplexes protocol instances over the wire and
    # must keep shard maps, batching, and retries deterministic.
    "repro.kv",
    # The repair plane re-disperses blocks and swaps fleet members on
    # live clusters; its scheduling (task order, replacement points)
    # must replay bit-for-bit like everything else on the hot path.
    "repro.repair",
)

#: Extra modules held to the determinism bar beyond the protocol core:
#: the erasure/crypto kernels and the shared primitives they memoize
#: through.  Their hot-path caches must stay deterministic (seeded runs
#: replay identically), which is exactly what ``det-cache-order``
#: checks — the sanctioned :mod:`repro.common.lru` cache is exempted
#: inside the rule itself, not by scope carve-outs.
DETERMINISM_EXTRA_PREFIXES: Tuple[str, ...] = (
    "repro.erasure",
    "repro.crypto",
    "repro.common",
)

#: Packages where Byzantine payload data must be sanitized before it
#: reaches protocol state, the erasure decoder, client completion, or
#: the wire — the taint pack's scope.  Baselines and faults are
#: excluded on purpose: fault injectors *produce* Byzantine data, and
#: the crash-only baselines skip verification by design.
TAINT_PREFIXES: Tuple[str, ...] = (
    "repro.core",
    "repro.avid",
    "repro.broadcast",
    "repro.kv",
    # Repair reconstructs values from server-supplied blocks and writes
    # them back to protocol state — classic taint territory.
    "repro.repair",
)

#: Default scope per rule pack.  An empty tuple means "every module".
DEFAULT_SCOPES: Dict[str, Tuple[str, ...]] = {
    "determinism": PROTOCOL_PREFIXES + DETERMINISM_EXTRA_PREFIXES,
    "quorum": PROTOCOL_PREFIXES,
    "handlers": PROTOCOL_PREFIXES,
    "wire": (),
    "taint": TAINT_PREFIXES,
}


def in_scope(pack: str, dotted: str) -> bool:
    """Whether a rule pack applies to module ``dotted``.

    Scoping by :data:`DEFAULT_SCOPES` is only enforced for ``repro.*``
    modules (see module docstring).
    """
    if dotted.startswith("repro.lint"):
        # The linter does not lint itself with protocol rules.
        return pack == "wire"
    if not (dotted == "repro" or dotted.startswith("repro.")):
        return True
    prefixes = DEFAULT_SCOPES.get(pack, ())
    if not prefixes:
        return True
    return any(dotted == p or dotted.startswith(p + ".")
               for p in prefixes)
