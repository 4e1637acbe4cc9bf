"""The scatter-gather's decisions, as a state machine that does no I/O.

:class:`GatherState` is fed four events — ``start``, ``on_reply``,
``on_failure``, ``on_timer`` — each stamped with the ``now`` of a clock
it is handed, and answers each with its one kind of action,
:class:`Launch`.  Its driver owns sockets, threads and the clock: the
router's threads in production, a virtual clock in tests.

Per selected dataset: walk the replica preference list.  A failure,
refusal, stale fingerprint or missing answer with nothing else in flight
fails over to the next owner at once; a launch outstanding for
``hedge_delay`` hedges its open datasets at their next owners (at most
``max_hedges`` times each).  The first answer wins, and partials are
fingerprint-verified, so which replica answers never changes a ranking
bit; a reply counts only for names its launch asked for; nothing
launches at or after ``deadline_at``.  ``fired`` counts hedge launches,
``wins`` those that answered some dataset first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from repro.spell.partials import DatasetPartial

__all__ = ["GatherResult", "GatherState", "Launch"]


@dataclass(frozen=True)
class Launch:
    """Ask node ``nid`` for the partials of ``names``."""

    nid: str
    names: tuple[str, ...]
    is_hedge: bool


class GatherResult(NamedTuple):
    contributions: dict[str, DatasetPartial]
    skipped: list[str]
    failures: dict[str, list[str]]
    nodes: dict[str, dict]
    fired: int
    wins: int


class GatherState:
    """One gather; ``owners`` maps each selected dataset to its replicas, in preference order."""

    def __init__(self, selected: Sequence[str], owners: Mapping[str, Sequence[str]],
                 expected_fingerprints: Mapping[str, str], *, max_hedges: int,
                 hedge_delay: float, deadline_at: float | None) -> None:
        self.selected = list(selected)
        self._owners = {name: list(owners[name]) for name in self.selected}
        self._expected = expected_fingerprints
        self._max_hedges, self._hedge_delay = max_hedges, hedge_delay
        self._deadline_at = deadline_at
        self._inflight = dict.fromkeys(self.selected, 0)
        self._hedges = dict.fromkeys(self.selected, 0)
        self._open = set(self.selected)  # neither answered nor exhausted
        self._fuses: dict[Launch, float] = {}  # outstanding launch -> hedge time
        self.contributions: dict[str, DatasetPartial] = {}
        self.failures: dict[str, list[str]] = {name: [] for name in self.selected}
        self.nodes: dict[str, dict] = {}
        self.fired = self.wins = 0
        self.expired = False

    @property
    def finished(self) -> bool:
        return self.expired or not self._open

    def next_wakeup(self) -> float | None:
        """When :meth:`on_timer` next has something to do (``None``: never)."""
        if self.finished:
            return None
        deadline = () if self._deadline_at is None else (self._deadline_at,)
        return min((*self._fuses.values(), *deadline), default=None)

    def result(self) -> GatherResult:
        skipped = [name for name in self.selected if name not in self.contributions]
        return GatherResult(
            self.contributions, skipped, self.failures, self.nodes, self.fired, self.wins
        )

    # ------------------------------------------------------------------ events
    def start(self, now: float) -> list[Launch]:
        return self._step(now, self.selected)

    def on_timer(self, now: float) -> list[Launch]:
        return self._step(now, ())

    def on_failure(self, launch: Launch, error: str, now: float) -> list[Launch]:
        self._land(launch)["error"] = error
        self._fail(launch.nid, dict.fromkeys(launch.names, error))
        return self._step(now, launch.names)

    def on_reply(self, launch: Launch, reply: Mapping, now: float) -> list[Launch]:
        node = self._land(launch)
        reasons: dict[str, str] = {}  # why an asked dataset was not answered
        first = False
        for name in launch.names:
            wire = reply["partials"].get(name)
            if wire is None:
                reasons[name] = reply["refused"].get(name, f"no answer for {name}")
            elif wire["fingerprint"] != self._expected.get(name):
                # scored, but not over the content the catalog names: the
                # refusal the shard should have made
                reasons[name] = (
                    f"stale content: shard scored {str(wire['fingerprint'])[:12]}, "
                    f"router expects {str(self._expected.get(name))[:12]}"
                )
            elif name in self._open:
                self.contributions[name] = DatasetPartial(**wire)
                node["served"].append(name)
                self._open.discard(name)
                first = True
        node["refused"].update(self._fail(launch.nid, reasons))
        self.wins += int(first and launch.is_hedge)
        return self._step(now, launch.names)

    # --------------------------------------------------------------- internals
    def _land(self, launch: Launch) -> dict:
        self._fuses.pop(launch, None)
        for name in launch.names:
            self._inflight[name] -= 1
        return self.nodes.setdefault(launch.nid, {"served": [], "refused": {}})

    def _fail(self, nid: str, reasons: Mapping[str, str]) -> dict[str, str]:
        """Record why ``nid`` did not answer each still-open dataset."""
        reasons = {name: why for name, why in reasons.items() if name in self._open}
        for name, why in reasons.items():
            self.failures[name].append(f"{nid}: {why}")
        return reasons

    def _can_hedge(self, name: str) -> bool:
        owners_left = bool(self._owners[name])
        return name in self._open and owners_left and self._hedges[name] < self._max_hedges

    def _step(self, now: float, touched: Sequence[str]) -> list[Launch]:
        """After an event at ``now``: expire; fail over the ``touched``
        datasets left with nothing in flight, or exhaust them if no owner
        is left; hedge for every launch whose fuse has burnt."""
        if self.finished:
            return []
        if self._deadline_at is not None and now >= self._deadline_at:
            self.expired = True
            return []
        idle = [n for n in touched if n in self._open and not self._inflight[n]]
        launches = self._assign(idle, now, is_hedge=False)
        self._open.difference_update(n for n in idle if not self._inflight[n])
        due = [launch for launch, at in self._fuses.items() if at <= now]
        for launch in due:
            del self._fuses[launch]
        hedged = [n for n in dict.fromkeys(n for f in due for n in f.names) if self._can_hedge(n)]
        return launches + self._assign(hedged, now, is_hedge=True)

    def _assign(self, names: Sequence[str], now: float, *, is_hedge: bool) -> list[Launch]:
        """Ask each of ``names`` its next owner, one launch per node."""
        groups: dict[str, list[str]] = {}
        for name in names:
            if self._owners[name]:
                groups.setdefault(self._owners[name].pop(0), []).append(name)
        launches = [Launch(nid, tuple(batch), is_hedge) for nid, batch in groups.items()]
        for launch in launches:
            for name in launch.names:
                self._inflight[name] += 1
                self._hedges[name] += int(is_hedge)
            if any(self._can_hedge(name) for name in launch.names):
                self._fuses[launch] = now + self._hedge_delay
        self.fired += len(launches) if is_hedge else 0
        return launches
