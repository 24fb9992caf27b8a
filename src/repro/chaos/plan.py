"""Declarative fault plans: bounded, seeded, model-respecting faults.

A :class:`FaultPlan` is a *complete, serializable description* of the
faults one run injects — which parties are designated faulty, which of
their messages are dropped, duplicated, corrupted, or delayed (and how
many: every rule carries a budget), whether a transient partition
separates the network (and when it must heal), and which servers crash
(and whether they recover).  Plans are plain data: they JSON round-trip
losslessly, so a failing ``(seed, plan)`` pair is a self-contained
reproducer that replays bit-for-bit (see :mod:`repro.chaos.campaign`).

Every fault kind is constrained so the paper's model still holds:

* drop / duplicate / corrupt / delay apply only to messages touching a
  party the plan *designates faulty* — mangling a faulty party's traffic
  is ordinary Byzantine behaviour, while honest-to-honest channels stay
  reliable, exactly as the model's secure-channels assumption requires;
* delays are finite (a held message is released after a bounded number
  of scheduling decisions) and partitions carry a mandatory heal point,
  so *eventual delivery* — run completeness — is preserved;
* :meth:`FaultPlan.validate` rejects plans whose faulty set exceeds the
  resilience bound ``t`` unless the plan explicitly declares
  ``exceeds_t`` (how the campaign probes the ``n = 3t`` boundary, where
  the paper proves no protocol can survive).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import server_id
from repro.faults.failstop import TRIGGERS
from repro.net.schedulers import (
    FifoScheduler,
    PartitionScheduler,
    RandomScheduler,
    Scheduler,
    SlowPartiesScheduler,
)

#: Message-level fault kinds a :class:`FaultRule` can inject.
RULE_KINDS = ("drop", "duplicate", "corrupt", "delay")

#: Adversarial scheduler families a plan can compose with; each is
#: built by :meth:`SchedulerSpec.build`.
SCHEDULER_NAMES = ("random", "fifo", "slow-parties", "partition")

@dataclass(frozen=True)
class SchedulerSpec:
    """An adversarial scheduler swept alongside the plan's faults.

    Schedulers re-order (never suppress) deliveries, so they need no
    Byzantine budget: ``fifo`` delivers in send order, ``slow_servers``
    starves the named servers' deliveries to last place, and a
    ``partition`` scheduler deprioritises cross-``group`` traffic until
    ``heal_after`` scheduling decisions have passed.  All preserve eventual delivery, keeping run
    completeness intact — which is why a scheduler entry is legal even
    in plans with an empty faulty set.
    """

    name: str = "random"
    slow_servers: Tuple[int, ...] = ()
    group: Tuple[int, ...] = ()
    heal_after: Optional[int] = None

    def validate(self, n: Optional[int] = None) -> None:
        """Raise :class:`ConfigurationError` on malformed specs."""
        if self.name not in SCHEDULER_NAMES:
            raise ConfigurationError(
                f"unknown scheduler {self.name!r}; choose from "
                f"{SCHEDULER_NAMES}")
        if self.name == "slow-parties" and not self.slow_servers:
            raise ConfigurationError(
                "slow-parties scheduler needs at least one slow server")
        if self.name == "partition":
            if not self.group:
                raise ConfigurationError(
                    "partition scheduler needs a non-empty group")
            if self.heal_after is None or self.heal_after < 1:
                raise ConfigurationError(
                    "partition scheduler must heal: heal_after must be "
                    "a positive decision count")
        for index in self.slow_servers + self.group:
            if index < 1:
                raise ConfigurationError(
                    "scheduler server entries must be 1-based indices")
            if n is not None and index > n:
                raise ConfigurationError(
                    f"scheduler server index {index} outside 1..{n}")

    def build(self, seed: int) -> Scheduler:
        """Instantiate the scheduler for one run (seeded); a malformed
        spec raises as in :meth:`validate`."""
        self.validate()
        if self.name == "fifo":
            return FifoScheduler()
        if self.name == "slow-parties":
            return SlowPartiesScheduler(
                {server_id(index) for index in self.slow_servers},
                seed=seed)
        if self.name == "partition":
            return PartitionScheduler(
                {server_id(index) for index in self.group},
                heal_after=self.heal_after, seed=seed)
        return RandomScheduler(seed)

    def to_json(self) -> Dict[str, Any]:
        """The spec as a plain JSON-serializable dictionary."""
        doc: Dict[str, Any] = {"name": self.name}
        if self.slow_servers:
            doc["slow_servers"] = list(self.slow_servers)
        if self.group:
            doc["group"] = list(self.group)
        if self.heal_after is not None:
            doc["heal_after"] = self.heal_after
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "SchedulerSpec":
        """Inverse of :meth:`to_json`."""
        return cls(name=doc.get("name", "random"),
                   slow_servers=tuple(doc.get("slow_servers", ())),
                   group=tuple(doc.get("group", ())),
                   heal_after=doc.get("heal_after"))


@dataclass(frozen=True)
class FaultRule:
    """One bounded message fault at a designated-faulty party.

    The rule matches in-flight messages whose sender *or* recipient is
    server ``party`` (1-based index), optionally narrowed to one message
    type; at most ``limit`` matching messages are affected.  ``delay``
    (for the ``"delay"`` kind) is how many scheduling decisions the
    message is held before re-entering the in-flight bag.
    """

    kind: str
    party: int
    mtype: Optional[str] = None
    limit: int = 1
    delay: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on malformed rules."""
        if self.kind not in RULE_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{RULE_KINDS}")
        if self.party < 1:
            raise ConfigurationError(
                f"fault rule party must be a 1-based server index, "
                f"got {self.party}")
        if self.limit < 1:
            raise ConfigurationError(
                f"fault rule budget must be positive, got {self.limit}")
        if self.kind == "delay" and self.delay < 1:
            raise ConfigurationError(
                "delay rules need a positive hold duration (unbounded "
                "delay would violate eventual delivery)")

    def to_json(self) -> Dict[str, Any]:
        """The rule as a plain JSON-serializable dictionary."""
        doc: Dict[str, Any] = {"kind": self.kind, "party": self.party,
                               "limit": self.limit}
        if self.mtype is not None:
            doc["mtype"] = self.mtype
        if self.kind == "delay":
            doc["delay"] = self.delay
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "FaultRule":
        """Inverse of :meth:`to_json`."""
        return cls(kind=doc["kind"], party=doc["party"],
                   mtype=doc.get("mtype"), limit=doc.get("limit", 1),
                   delay=doc.get("delay", 0))


@dataclass(frozen=True)
class PartitionSpec:
    """A transient network partition with a mandatory heal point.

    Messages crossing between the servers in ``group`` and the rest of
    the network (including clients) are held until ``heal_at``
    scheduling decisions have occurred, then released in send order.
    The heal point is not optional: a permanent partition would violate
    run completeness, and a run that never completes proves nothing
    about the protocol (wait-freedom is only promised for complete
    runs).
    """

    group: Tuple[int, ...]
    heal_at: int

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on malformed partitions."""
        if not self.group:
            raise ConfigurationError("partition group must be non-empty")
        if any(index < 1 for index in self.group):
            raise ConfigurationError(
                "partition group entries must be 1-based server indices")
        if self.heal_at < 1:
            raise ConfigurationError(
                "partitions must heal: heal_at must be positive")

    def to_json(self) -> Dict[str, Any]:
        """The partition as a plain JSON-serializable dictionary."""
        return {"group": list(self.group), "heal_at": self.heal_at}

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "PartitionSpec":
        """Inverse of :meth:`to_json`."""
        return cls(group=tuple(doc["group"]), heal_at=doc["heal_at"])


@dataclass(frozen=True)
class CrashSpec:
    """A fail-stop crash of one server, optionally recovering.

    The server behaves honestly for its first ``after`` deliveries and
    then goes silent; with ``recover_after`` set, it comes back up once
    that many further messages have reached it while down, replaying
    the buffered backlog (see :mod:`repro.faults.failstop`).

    ``trigger`` selects the clock both points count: ``"messages"``
    (the historical default, counting this server's own deliveries) or
    ``"decisions"`` (the injector's global scheduling-decision counter,
    which keeps advancing while delay or partition holds starve the
    server — so crash/recovery windows compose predictably with them).

    A crash with neither ``recover_after`` nor ``replace_after`` is a
    *permanent* crash: the server stays silent forever and the fleet
    has permanently spent one unit of resilience budget.
    ``replace_after`` instead declares that the fleet must *reconfigure*:
    that many scheduling decisions after the crash point, the repair
    plane (when one is attached — see :mod:`repro.repair`) swaps in a
    fresh member at the same identity and re-disperses its blocks.  The
    two recovery modes are mutually exclusive — a server either comes
    back with its state (fail-recovery) or is replaced amnesiac
    (reconfiguration), never both.
    """

    server: int
    after: int = 0
    recover_after: Optional[int] = None
    trigger: str = "messages"
    replace_after: Optional[int] = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on malformed crash specs."""
        if self.server < 1:
            raise ConfigurationError(
                f"crash server must be a 1-based index, got {self.server}")
        if self.after < 0:
            raise ConfigurationError("crash point cannot be negative")
        if self.recover_after is not None and self.recover_after < 1:
            raise ConfigurationError(
                "recover_after must be positive when given")
        if self.replace_after is not None and self.replace_after < 1:
            raise ConfigurationError(
                "replace_after must be positive when given")
        if self.recover_after is not None and self.replace_after is not None:
            raise ConfigurationError(
                "recover_after and replace_after are mutually exclusive: "
                "a server either recovers with its state or is replaced "
                "amnesiac, never both")
        if self.trigger not in TRIGGERS:
            raise ConfigurationError(
                f"unknown crash trigger {self.trigger!r}; choose from "
                f"{TRIGGERS}")

    def to_json(self) -> Dict[str, Any]:
        """The crash spec as a plain JSON-serializable dictionary.

        The default trigger is omitted so pre-existing reproducer files
        (and their digests) remain stable.
        """
        doc: Dict[str, Any] = {"server": self.server, "after": self.after}
        if self.recover_after is not None:
            doc["recover_after"] = self.recover_after
        if self.trigger != "messages":
            doc["trigger"] = self.trigger
        if self.replace_after is not None:
            doc["replace_after"] = self.replace_after
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "CrashSpec":
        """Inverse of :meth:`to_json`."""
        return cls(server=doc["server"], after=doc["after"],
                   recover_after=doc.get("recover_after"),
                   trigger=doc.get("trigger", "messages"),
                   replace_after=doc.get("replace_after"))


@dataclass(frozen=True)
class ByzantineSpec:
    """One server running a registered Byzantine behaviour.

    ``behaviour`` names an entry in
    :data:`repro.faults.byzantine_servers.BYZANTINE_BEHAVIOURS` — a
    deviation from the honest code of the protocol under test, holding
    only the party's own key material and channels
    (:func:`repro.faults.byzantine_servers.byzantine` derives the class
    for that protocol's server).  Unlike message rules (which mangle
    traffic in flight), a behaviour replaces the party's *code*, so
    campaigns can sweep malicious members — inflated timestamps,
    equivocating or stale reads, corrupt or withheld blocks, stale or
    forged metadata — alongside crashes.
    """

    server: int
    behaviour: str

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on malformed specs."""
        if self.server < 1:
            raise ConfigurationError(
                f"byzantine server must be a 1-based index, "
                f"got {self.server}")
        from repro.faults.byzantine_servers import BYZANTINE_BEHAVIOURS
        if self.behaviour not in BYZANTINE_BEHAVIOURS:
            raise ConfigurationError(
                f"unknown byzantine behaviour {self.behaviour!r}; choose "
                f"from {tuple(sorted(BYZANTINE_BEHAVIOURS))}")

    def to_json(self) -> Dict[str, Any]:
        """The spec as a plain JSON-serializable dictionary."""
        return {"server": self.server, "behaviour": self.behaviour}

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "ByzantineSpec":
        """Inverse of :meth:`to_json`."""
        return cls(server=doc["server"], behaviour=doc["behaviour"])


@dataclass(frozen=True)
class FaultPlan:
    """The complete fault schedule of one chaos run.

    ``faulty`` designates the Byzantine-budget servers (1-based
    indices); every message-level rule and every permanent crash must
    target a designated party, so the honest majority the protocols
    rely on is exactly the undisturbed one.  ``seed`` drives all
    injector randomness (corruption keystreams), making the plan's
    effect a pure function of ``(plan, workload seed)``.
    """

    name: str = "custom"
    seed: int = 0
    faulty: Tuple[int, ...] = ()
    rules: Tuple[FaultRule, ...] = ()
    partition: Optional[PartitionSpec] = None
    crashes: Tuple[CrashSpec, ...] = ()
    #: Servers running registered Byzantine behaviours (code-level
    #: deviation, as opposed to the message-level ``rules``).
    byzantine: Tuple[ByzantineSpec, ...] = ()
    #: Adversarial scheduler composed with the faults (``None`` keeps
    #: the campaign's default seeded random scheduler).
    scheduler: Optional[SchedulerSpec] = None
    #: Declared intent to exceed the resilience bound (used by boundary
    #: probes); without it, :meth:`validate` rejects ``|faulty| > t``.
    exceeds_t: bool = False

    def __post_init__(self) -> None:
        # ``faulty`` is a set of indices; normalize its order so equal
        # plans compare (and serialize) identically.
        object.__setattr__(self, "faulty",
                           tuple(sorted(set(self.faulty))))

    def validate(self, n: int, t: int) -> None:
        """Check the plan against a deployment; raise on violations.

        Everything that would silently break the model is rejected
        here: out-of-range parties, rules at parties not designated
        faulty, unbounded delays, heal-free partitions, and faulty sets
        larger than ``t`` (unless ``exceeds_t`` declares the plan as a
        deliberate resilience-boundary probe).
        """
        faulty = set(self.faulty)
        for index in sorted(faulty):
            if not 1 <= index <= n:
                raise ConfigurationError(
                    f"faulty server index {index} outside 1..{n}")
        if len(faulty) > t and not self.exceeds_t:
            raise ConfigurationError(
                f"plan designates {len(faulty)} faulty servers but the "
                f"deployment tolerates t={t}; set exceeds_t to probe "
                f"beyond the bound deliberately")
        for rule in self.rules:
            rule.validate()
            if rule.party not in faulty:
                raise ConfigurationError(
                    f"fault rule targets server {rule.party}, which the "
                    f"plan does not designate faulty — faults at honest "
                    f"parties would break the model's channel guarantees")
        if self.partition is not None:
            self.partition.validate()
            if any(index > n for index in self.partition.group):
                raise ConfigurationError(
                    f"partition group exceeds deployment size n={n}")
        seen: set = set()
        for crash in self.crashes:
            crash.validate()
            if not 1 <= crash.server <= n:
                raise ConfigurationError(
                    f"crash server index {crash.server} outside 1..{n}")
            if crash.server in seen:
                raise ConfigurationError(
                    f"server {crash.server} crashed twice in one plan")
            seen.add(crash.server)
            if crash.server not in faulty:
                raise ConfigurationError(
                    f"crashing server {crash.server} requires designating "
                    f"it faulty (a crash is a fault)")
        byz_seen: set = set()
        for spec in self.byzantine:
            spec.validate()
            if not 1 <= spec.server <= n:
                raise ConfigurationError(
                    f"byzantine server index {spec.server} outside 1..{n}")
            if spec.server in byz_seen:
                raise ConfigurationError(
                    f"server {spec.server} assigned two byzantine "
                    f"behaviours in one plan")
            byz_seen.add(spec.server)
            if spec.server in seen:
                raise ConfigurationError(
                    f"server {spec.server} both crashes and runs a "
                    f"byzantine behaviour — one body of deviant code per "
                    f"party")
            if spec.server not in faulty:
                raise ConfigurationError(
                    f"byzantine behaviour at server {spec.server} requires "
                    f"designating it faulty")
        if self.scheduler is not None:
            self.scheduler.validate(n)

    def build_scheduler(self, seed: int):
        """The seeded scheduler a run under this plan uses: the plan's
        adversarial one when it names one, the random one otherwise."""
        return (self.scheduler or SchedulerSpec()).build(seed)

    def to_json(self) -> Dict[str, Any]:
        """The plan as a plain JSON-serializable dictionary."""
        doc: Dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "faulty": sorted(self.faulty),
            "rules": [rule.to_json() for rule in self.rules],
            "crashes": [crash.to_json() for crash in self.crashes],
        }
        if self.partition is not None:
            doc["partition"] = self.partition.to_json()
        if self.byzantine:
            doc["byzantine"] = [spec.to_json() for spec in self.byzantine]
        if self.scheduler is not None:
            doc["scheduler"] = self.scheduler.to_json()
        if self.exceeds_t:
            doc["exceeds_t"] = True
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_json` (lossless round-trip)."""
        partition = doc.get("partition")
        scheduler = doc.get("scheduler")
        return cls(
            name=doc.get("name", "custom"),
            seed=doc.get("seed", 0),
            faulty=tuple(doc.get("faulty", ())),
            rules=tuple(FaultRule.from_json(entry)
                        for entry in doc.get("rules", ())),
            partition=(PartitionSpec.from_json(partition)
                       if partition is not None else None),
            crashes=tuple(CrashSpec.from_json(entry)
                          for entry in doc.get("crashes", ())),
            byzantine=tuple(ByzantineSpec.from_json(entry)
                            for entry in doc.get("byzantine", ())),
            scheduler=(SchedulerSpec.from_json(scheduler)
                       if scheduler is not None else None),
            exceeds_t=bool(doc.get("exceeds_t", False)),
        )

    # -- shrink support ------------------------------------------------------

    def with_rule(self, index: int, rule: FaultRule) -> "FaultPlan":
        """A copy with rule ``index`` replaced (used by the shrinker to
        halve budgets)."""
        rules = self.rules[:index] + (rule,) + self.rules[index + 1:]
        return replace(self, rules=rules)
