"""Machine-readable benchmark emission.

The experiments print human-readable tables; performance tracking needs
the same numbers as data.  When a bench directory is configured —
``repro experiments --bench-dir DIR`` or the ``REPRO_BENCH_DIR``
environment variable — :func:`emit_bench` writes each experiment's
structured rows as ``BENCH_<name>.json`` into it; with no directory
configured it is a no-op, so experiments stay dependency- and
side-effect-free by default.  ``repro kv-bench`` and ``repro monitor``
write their documents through the same function.

The JSON payload round-trips dataclass rows (via
``dataclasses.asdict``), :class:`~repro.common.ids.PartyId` values
(as their printed names), and byte strings (as length placeholders).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Optional

from repro.common.ids import PartyId

#: environment variable naming the directory ``BENCH_*.json`` files go to
BENCH_ENV = "REPRO_BENCH_DIR"


def bench_dir() -> Optional[Path]:
    """The configured bench output directory, or ``None`` if benching
    is disabled."""
    configured = os.environ.get(BENCH_ENV, "").strip()
    return Path(configured) if configured else None


def to_jsonable(value: Any) -> Any:
    """Convert experiment payloads (dataclasses, PartyIds, bytes,
    containers) to JSON-serializable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(dataclasses.asdict(value))
    if isinstance(value, bytes):
        return {"bytes": len(value)}
    if isinstance(value, PartyId):
        return str(value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def emit_bench(name: str, payload: Any,
               directory: Optional[Path] = None) -> Optional[Path]:
    """Write ``BENCH_<name>.json`` into the bench directory.

    ``directory`` overrides the environment configuration; with neither
    set, nothing is written and ``None`` is returned.  Returns the path
    written otherwise.
    """
    target_dir = directory if directory is not None else bench_dir()
    if target_dir is None:
        return None
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"BENCH_{name}.json"
    document = {"bench": name, "data": to_jsonable(payload)}
    path.write_text(json.dumps(document, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    return path
