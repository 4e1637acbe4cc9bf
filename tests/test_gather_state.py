"""The gather's policy on a virtual clock: no thread, no socket, no sleep.

:class:`~repro.cluster_serving.gather.GatherState` decides scatter,
failover, hedging and expiry from events stamped with a clock it is
handed, so :func:`replay` can drive it with a heap of scripted shard
outcomes instead of real shards.  The outcomes speak
:class:`~repro.rpc.faults.FaultPlan`'s vocabulary — a reply, a transport
failure (a reset, garbage, a refused connect), a stall (the reply lands
:data:`STALL_SECONDS` late) — and, per asked dataset, an answer, a
refusal, a stale fingerprint or silence, plus a name nobody asked for.
The partials are real ones from a small :class:`~repro.spell.SpellIndex`,
so every complete gather must merge bit-identically to a single node.
"""

from __future__ import annotations

import ast
import heapq
import time
from dataclasses import dataclass

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro.cluster_serving.gather as gather_module
from repro.cluster_serving.gather import GatherState, Launch
from repro.cluster_serving.ring import plan_assignment
from repro.spell import SpellIndex
from repro.spell.partials import GeneUniverse
from repro.synth import make_spell_compendium

NODES = ("shard-0", "shard-1", "shard-2")
#: how late a stalled reply lands (``FaultPlan``'s default ``stall_seconds``)
STALL_SECONDS = 5.0
#: drawn per launch and per asked dataset; answers are drawn twice as
#: often, so that complete gathers (and the bit-identity check) are common
KINDS = ("reply", "reply", "fail", "stall")
FATES = ("answer", "answer", "refuse", "stale", "silent")


@dataclass(frozen=True)
class World:
    """A small compendium's catalog, its real partials and its oracle."""

    universe: GeneUniverse
    query: list[str]
    selected: list[str]
    fingerprints: dict[str, str]
    wires: dict[str, dict]  # name -> the partial as a shard sends it
    plans: dict[int, dict[str, list[str]]]  # replication -> owners
    oracle: object  # SpellIndex.search(query)


@pytest.fixture(scope="module")
def world() -> World:
    comp, truth = make_spell_compendium(
        n_datasets=6, n_relevant=2, n_genes=60, n_conditions=6,
        module_size=8, query_size=3, seed=11,
    )
    index = SpellIndex.build(comp)
    query = list(truth.query_genes)
    identities = [(ds.name, ds.fingerprint) for ds in comp]
    return World(
        universe=GeneUniverse([(ds.name, ds.gene_ids) for ds in comp]),
        query=query,
        selected=list(comp.names),
        fingerprints=dict(identities),
        wires={
            p.name: {
                "name": p.name, "fingerprint": p.fingerprint,
                "n_query_present": p.n_query_present, "weight": p.weight,
                "scores": p.scores,
            }
            for p in index.search_partials(query)
        },
        plans={r: plan_assignment(identities, NODES, replication=r) for r in (1, 2, 3)},
        oracle=index.search(query),
    )


def new_state(world: World, *, replication=2, max_hedges=1, hedge_delay=0.05,
              deadline_at=None) -> GatherState:
    return GatherState(
        world.selected, world.plans[replication], world.fingerprints,
        max_hedges=max_hedges, hedge_delay=hedge_delay, deadline_at=deadline_at,
    )


def reply_for(world: World, launch: Launch, fates, extra=None) -> dict:
    """What a shard sends back when each asked name meets its fate."""
    partials, refused = {}, {}
    for name, fate in zip(launch.names, fates):
        if fate == "answer":
            partials[name] = world.wires[name]
        elif fate == "stale":
            partials[name] = dict(world.wires[name], fingerprint="e" * 40)
        elif fate == "refuse":
            refused[name] = "dataset not owned by this shard"
    if extra is not None:
        partials[extra] = world.wires[extra]
    return {"partials": partials, "refused": refused}


def replay(state: GatherState, script):
    """Drive ``state`` to the end on a virtual clock starting at 0.

    ``script(launch)`` returns ``(delay, ("reply", reply) | ("fail",
    error))``: when and how that launch lands.  A landing due no later
    than the state's next wakeup is delivered first, as a queue read
    would be.  Returns the launch log ``[(t, launch)]``, the landings
    delivered ``[(t, launch, kind, payload)]`` and the finishing time.
    """
    now, log, delivered, pending = 0.0, [], [], []
    actions = state.start(now)
    while True:
        for launch in actions:
            log.append((now, launch))
            delay, (kind, payload) = script(launch)
            heapq.heappush(pending, (now + delay, len(log), launch, kind, payload))
        if state.finished:
            return log, delivered, now
        wake = state.next_wakeup()
        if pending and (wake is None or pending[0][0] <= wake):
            now, _, launch, kind, payload = heapq.heappop(pending)
            delivered.append((now, launch, kind, payload))
            on = state.on_failure if kind == "fail" else state.on_reply
            actions = on(launch, payload, now)
        else:
            # after every event the state has acted on all that was due
            assert wake is not None and wake > now, "stuck: nothing in flight or due"
            now = wake
            actions = state.on_timer(now)


def assert_bit_identical(world: World, contributions: dict) -> None:
    resolved = world.universe.resolve(world.query, None)
    merged = world.universe.merge(
        world.query, resolved.query_used, resolved.query_missing, resolved.q_slots,
        world.selected, contributions,
    )
    assert merged.datasets == world.oracle.datasets
    assert merged.genes.ids.tolist() == world.oracle.genes.ids.tolist()
    assert merged.genes.scores.tobytes() == world.oracle.genes.scores.tobytes()
    assert merged.genes.n_datasets.tolist() == world.oracle.genes.n_datasets.tolist()


# -------------------------------------------------------------- the property
@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    replication=st.sampled_from((1, 2, 3)),
    max_hedges=st.integers(0, 2),
    hedge_delay=st.sampled_from((0.01, 0.05, 0.2)),
    deadline_at=st.sampled_from((None, 0.05, 0.3, 1.0, 6.0)),
)
def test_any_event_order_keeps_the_gather_contract(
    world, data, replication, max_hedges, hedge_delay, deadline_at
):
    """Whatever the shards do and in whatever order it lands, the gather
    keeps its contract (ROADMAP item 4's invariants)."""
    state = new_state(world, replication=replication, max_hedges=max_hedges,
                      hedge_delay=hedge_delay, deadline_at=deadline_at)

    def script(launch: Launch):
        kind = data.draw(st.sampled_from(KINDS), label="kind")
        delay = data.draw(st.sampled_from((0.0, 0.001, 0.01, 0.05, 0.1, 0.3)), label="delay")
        if kind == "fail":
            return delay, ("fail", "connection closed mid-frame (0/8 bytes)")
        fates = data.draw(st.lists(st.sampled_from(FATES), min_size=len(launch.names),
                                   max_size=len(launch.names)), label="fates")
        unasked = [n for n in world.selected if n not in launch.names]
        extra = data.draw(st.sampled_from([None, *unasked]), label="extra")
        reply = reply_for(world, launch, fates, extra)
        return (STALL_SECONDS if kind == "stall" else delay), ("reply", reply)

    log, delivered, finished_at = replay(state, script)
    result = state.result()
    launches = [launch for _, launch in log]
    event("expired" if state.expired else "partial" if result.skipped else "complete")

    # what the delivered landings say happened, replayed independently
    first: dict[str, Launch] = {}
    wins = 0
    for _, launch, kind, reply in delivered:
        if kind != "reply":
            continue
        fresh = [
            name for name in launch.names  # only the names it was asked
            if name not in first
            and reply["partials"].get(name, {}).get("fingerprint") == world.fingerprints[name]
        ]
        first.update(dict.fromkeys(fresh, launch))
        wins += bool(fresh) and launch.is_hedge

    # no launch at or after the deadline
    assert deadline_at is None or all(t < deadline_at for t, _ in log)
    # hedges per dataset <= max_hedges; each (dataset, node) asked at most once
    for name in world.selected:
        asked = [launch for launch in launches if name in launch.names]
        assert sum(launch.is_hedge for launch in asked) <= max_hedges
        assert len({launch.nid for launch in asked}) == len(asked)
    # the hedge counts are what the action log implies
    assert result.fired == sum(launch.is_hedge for launch in launches)
    assert result.wins == wins <= result.fired
    # the first answer wins, and only for a name its launch asked for
    assert {name: launch.nid for name, launch in first.items()} == {
        name: nid for nid, node in result.nodes.items() for name in node["served"]
    }
    assert set(result.contributions) == set(first)
    for name, partial in result.contributions.items():
        # a stale fingerprint is never merged
        assert partial.fingerprint == world.fingerprints[name]
        assert partial.scores is world.wires[name]["scores"]
    if state.expired:
        assert deadline_at is not None and finished_at >= deadline_at
        return
    # every dataset ends answered or exhausted, exactly once
    answered, skipped = set(result.contributions), set(result.skipped)
    assert answered.isdisjoint(skipped) and answered | skipped == set(world.selected)
    assert len(skipped) == len(result.skipped)
    for name in result.skipped:
        # exhausted: every owner was asked, and each said why not
        assert {launch.nid for launch in launches if name in launch.names} == set(
            world.plans[replication][name]
        )
        assert result.failures[name]
    if not result.skipped:
        assert_bit_identical(world, result.contributions)


# --------------------------------------------------------------- the cases
def test_a_hedge_beats_a_stalled_primary_in_virtual_time(world):
    """The millisecond twin of ``test_chaos``'s stalled-shard hedge:
    ``shard-0`` holds every reply 5 s, its datasets' hedges land at
    ``hedge_delay`` + the replica's latency, and the merge is the oracle."""
    hedge_delay, latency = 0.05, 0.002
    wall = time.perf_counter()
    state = new_state(world, hedge_delay=hedge_delay)

    def script(launch):
        delay = STALL_SECONDS if launch.nid == "shard-0" else latency
        return delay, ("reply", reply_for(world, launch, ["answer"] * len(launch.names)))

    log, _, finished_at = replay(state, script)
    result = state.result()
    hedges = [(t, launch) for t, launch in log if launch.is_hedge]
    stalled = {name for name, owners in world.plans[2].items() if owners[0] == "shard-0"}
    assert stalled  # the plan gave shard-0 something to stall
    assert {name for _, launch in hedges for name in launch.names} == stalled
    assert all(t == hedge_delay for t, _ in hedges)
    assert finished_at == pytest.approx(hedge_delay + latency)
    assert result.skipped == []
    assert result.fired == result.wins == len(hedges)
    assert_bit_identical(world, result.contributions)
    assert time.perf_counter() - wall < 0.5


def test_hedge_counts_are_per_launch(world):
    """One hedge launch that answers three datasets first is one win."""
    a, b, c = world.selected[:3]
    state = GatherState(
        [a, b, c], {name: ["n0", "n1"] for name in (a, b, c)}, world.fingerprints,
        max_hedges=1, hedge_delay=0.05, deadline_at=None,
    )

    def script(launch):
        delay = STALL_SECONDS if launch.nid == "n0" else 0.001
        return delay, ("reply", reply_for(world, launch, ["answer"] * 3))

    log, _, _ = replay(state, script)
    assert [launch for _, launch in log] == [
        Launch("n0", (a, b, c), False), Launch("n1", (a, b, c), True),
    ]
    assert (state.result().fired, state.result().wins) == (1, 1)


def test_a_reply_counts_only_for_the_names_it_asked(world):
    """An unrequested name in a reply cannot end the gather early, and an
    asked name the reply leaves out is a failure with a reason."""
    a, b, c = world.selected[:3]
    owners = {a: ["n0", "n2"], b: ["n1"], c: ["n0"]}
    state = GatherState([a, b, c], owners, world.fingerprints,
                        max_hedges=0, hedge_delay=0.05, deadline_at=None)
    (to_n0, to_n1) = state.start(0.0)
    assert (to_n0, to_n1) == (Launch("n0", (a, c), False), Launch("n1", (b,), False))
    # n0 also answers b, which it was not asked for, and says nothing of a
    reply = {"partials": {c: world.wires[c], b: world.wires[b]}, "refused": {}}
    assert state.on_reply(to_n0, reply, 0.001) == [Launch("n2", (a,), False)]
    assert not state.finished
    assert state.result().failures[a] == [f"n0: no answer for {a}"]
    assert state.nodes["n0"]["served"] == [c]
    assert state.on_reply(to_n1, reply_for(world, to_n1, ["answer"]), 0.3) == []
    assert state.on_failure(Launch("n2", (a,), False), "reset", 0.31) == []
    assert state.finished
    result = state.result()
    assert set(result.contributions) == {b, c} and result.skipped == [a]
    assert result.failures[a] == [f"n0: no answer for {a}", "n2: reset"]


def test_expiry_launches_nothing(world):
    """A deadline that passes stops the gather: the timer fires at it, no
    failover or hedge is launched then, and the state says why."""
    state = new_state(world, deadline_at=0.02)
    first = state.start(0.0)
    assert state.next_wakeup() == 0.02
    assert state.on_failure(first[0], "reset", 0.02) == []
    assert state.finished and state.expired
    assert state.next_wakeup() is None


# ----------------------------------------------------------- structure lock
def test_the_gather_policy_does_no_io():
    """``gather.py`` imports no thread, queue, clock, socket, selector,
    event loop or RPC module: its only clock is the ``now`` it is handed."""
    banned = {"threading", "queue", "time", "socket", "selectors", "asyncio"}
    tree = ast.parse(open(gather_module.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    for name in imported:
        assert name.split(".")[0] not in banned, name
        assert not name.startswith("repro.rpc"), name
