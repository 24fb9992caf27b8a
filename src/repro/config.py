"""System-wide protocol configuration.

A :class:`SystemConfig` fixes everything the trusted initialization
algorithm of the model sets up before the run: the number of servers ``n``,
the corruption bound ``t``, the erasure-code reconstruction threshold
``k``, the block-commitment flavour, and the threshold-signature scheme
(for Protocol AtomicNS).  All protocol components of one deployment share a
single config instance.

Resilience: the paper's protocols require ``n > 3t`` (optimal).  The
erasure code may use any ``1 <= k <= n - t`` (Theorem 2); the default is
``k = n - t``, which minimizes storage blow-up at ``n / (n - t)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.crypto.commitment import CommitmentScheme, make_commitment_scheme
from repro.crypto.threshold import ThresholdScheme, make_scheme
from repro.erasure.coder import ErasureCoder


@dataclass
class SystemConfig:
    """Parameters shared by all parties of one storage deployment.

    Parameters
    ----------
    n:
        Number of servers.
    t:
        Maximum number of Byzantine servers tolerated; requires
        ``n > 3t``.
    k:
        Erasure-code threshold, ``1 <= k <= n - t``; defaults to ``n - t``
        (minimum storage).  ``k = 1`` degenerates to full replication.
    commitment:
        ``"vector"`` for the paper's hash vectors ``D`` (Figures 1-3) or
        ``"merkle"`` for the hash-tree optimization of Section 2.3.
    threshold_backend:
        ``"ideal"`` (fast; default) or ``"shoup"`` (full RSA threshold
        scheme) — used only by AtomicNS.
    seed:
        Seed for all protocol randomness (key dealing, nonces).
    """

    n: int
    t: int
    k: Optional[int] = None
    commitment: str = "vector"
    threshold_backend: str = "ideal"
    seed: int = 0
    _coder: ErasureCoder = field(init=False, repr=False, default=None)
    _commitment_scheme: CommitmentScheme = field(
        init=False, repr=False, default=None)
    _threshold_scheme: Optional[ThresholdScheme] = field(
        init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.n <= 3 * self.t:
            raise ConfigurationError(
                f"optimal resilience requires n > 3t, got n={self.n} "
                f"t={self.t}")
        if self.k is None:
            self.k = self.n - self.t
        if not 1 <= self.k <= self.n - self.t:
            raise ConfigurationError(
                f"erasure threshold must satisfy 1 <= k <= n - t, got "
                f"k={self.k} with n={self.n} t={self.t}")
        self._coder = ErasureCoder(self.n, self.k)
        self._commitment_scheme = make_commitment_scheme(
            self.commitment, self.n)
        self._threshold_scheme = None

    # -- derived quantities -------------------------------------------------

    @property
    def quorum(self) -> int:
        """``n - t`` — the size of every client-side wait quorum."""
        return self.n - self.t

    @property
    def ready_amplify(self) -> int:
        """``t + 1`` — readys that prove one honest server sent ready."""
        return self.t + 1

    @property
    def deliver_quorum(self) -> int:
        """``2t + 1`` — readys that guarantee delivery everywhere."""
        return 2 * self.t + 1

    # -- shared components -----------------------------------------------------

    @property
    def coder(self) -> ErasureCoder:
        """The deployment's ``(n, k)`` erasure coder."""
        return self._coder

    @property
    def commitment_scheme(self) -> CommitmentScheme:
        """The deployment's block-commitment scheme."""
        return self._commitment_scheme

    @property
    def threshold_scheme(self) -> ThresholdScheme:
        """The dealt ``(n, t)``-threshold signature scheme (lazy: dealt on
        first use, as by the trusted initialization algorithm)."""
        if self._threshold_scheme is None:
            self._threshold_scheme = make_scheme(
                self.threshold_backend, self.n, self.t,
                rng=random.Random(self.seed))
        return self._threshold_scheme


def require_n_gt_4t(config: SystemConfig, protocol: str) -> None:
    """The ``n > 4t`` baselines' deployment precondition: raise
    :class:`ConfigurationError` naming ``protocol`` unless
    ``config.n > 4 * config.t``."""
    if config.n <= 4 * config.t:
        raise ConfigurationError(
            f"{protocol} requires n > 4t, got n={config.n} t={config.t}")
