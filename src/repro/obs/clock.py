"""Wall-clock quarantine for the observability plane.

Protocol modules run under the simulator's *logical* clock and must stay
free of real-time reads — the determinism lint (:mod:`repro.lint`)
enforces this over every protocol package, :mod:`repro.obs` included.
Benchmark harnesses still need wall-clock timers (e.g. to report how
long a sweep took on real hardware), so every real-time read in the
library lives here, behind explicit waivers, and nowhere else.

Nothing in this module may influence protocol behaviour: timers are
write-only measurement, never control flow.
"""

from __future__ import annotations

import time  # lint: disable=det-wallclock


def wall_seconds() -> float:
    """A monotonic wall-clock reading in seconds (measurement only)."""
    return time.perf_counter()  # lint: disable=det-wallclock

