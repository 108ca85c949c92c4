"""Synthetic co-occurrence data with known entity labels.

A world of N entities carries a scalar attribute x; an entity "occupies"
the range [x-3, x+3], and a new entity is made attribute-ambiguous with
probability p_a by sampling its x inside an already occupied range.  M
symmetric entity relationships are added, a fraction p_r_a of them
constructed so that two relationships connect pairwise look-alike entities
(ambiguous relationships).  Finally R co-occurrence records are emitted:
a uniform initiator entity, extended with further entities with
continuation probability p_c, each draw directed at one of the initiator's
remaining neighbors with probability p_r (an undirected draw ends the
edge), every member contributing one reference value from a unit-variance
Gaussian around its entity's x.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate

from .corpus import Dataset, GoldLabeling, ingest, records_of

OCCUPIED_HALF_WIDTH = 3.0
FRESH_GRID_SPACING = 7.0
VALUE_DECIMALS = 1


@dataclass
class GenParams:
    n_entities: int = 100
    n_relationships: int = 200
    n_hyperedges: int = 500
    p_a: float = 0.3
    p_r_a: float = 0.0
    p_c: float = 0.5
    p_r: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_entities, self.n_relationships, self.n_hyperedges) < 0:
            raise ValueError("counts must be non-negative")
        for nm in ("p_a", "p_r_a", "p_r"):
            v = getattr(self, nm)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{nm} out of range: {v}")
        if not 0.0 <= self.p_c < 1.0:
            raise ValueError(f"p_c out of range: {self.p_c}")


@dataclass
class Entity:
    id: str
    x: float
    ambiguous: bool  # attribute placed inside another entity's range
    nbrs: set[str] = field(default_factory=set)

    @property
    def lo(self) -> float:
        return self.x - OCCUPIED_HALF_WIDTH

    @property
    def hi(self) -> float:
        return self.x + OCCUPIED_HALF_WIDTH


@dataclass
class SyntheticWorld:
    entities: list[Entity]
    relationships: list[tuple[str, str]] = field(default_factory=list)
    ambiguous_relationships: int = 0
    relationship_fallbacks: int = 0

    def entity(self, eid: str) -> Entity:
        return self.entities[int(eid[1:])]

    def ranges_intersect(self, e1: Entity, e2: Entity) -> bool:
        return abs(e1.x - e2.x) <= 2 * OCCUPIED_HALF_WIDTH


@dataclass
class SyntheticOutput:
    dataset: Dataset
    gold: GoldLabeling
    world: SyntheticWorld

    @property
    def records(self) -> list[dict]:
        """The records ``dataset`` was ingested from, rendered from it by
        ``corpus.records_of`` on each read: the corpus is stored once."""
        return list(records_of(self.dataset))


def create_entities(params: GenParams, rng: random.Random) -> SyntheticWorld:
    entities: list[Entity] = []
    placed: list[float] = []  # every entity's x, sorted
    used_slots: set[int] = set()
    slot_pool = max(4 * params.n_entities, 16)
    for i in range(params.n_entities):
        if entities and rng.random() < params.p_a:
            host = rng.choice(entities)
            x = rng.uniform(host.lo, host.hi)
            entities.append(Entity(id=f"e{i}", x=x, ambiguous=True))
            insort(placed, x)
            continue
        # fresh value: random grid slot whose occupied range is clear of
        # every existing range (ambiguous entities can spill past their
        # host's grid cell, so check explicitly); the nearest x on either
        # side is the closest, as float subtraction is monotone
        while True:
            slot = rng.randrange(slot_pool)
            if slot in used_slots:
                continue
            x = slot * FRESH_GRID_SPACING
            k = bisect_left(placed, x)
            if all(abs(x - near) > 2 * OCCUPIED_HALF_WIDTH
                   for near in placed[max(k - 1, 0):k + 1]):
                used_slots.add(slot)
                break
        entities.append(Entity(id=f"e{i}", x=x, ambiguous=False))
        insort(placed, x)
    return SyntheticWorld(entities=entities)


Lookalikes = tuple[list[Entity], set[str]]


def _lookalike_index(world: SyntheticWorld):
    """``lookalikes(e)``: the other entities whose ranges intersect ``e``'s,
    in entity order, and their ids, memoized (entities never move).  Only
    the entities in an x window around ``e`` are tested; the window is a
    little wider than the rule's reach, so float rounding at its edge
    cannot drop one, and narrower than a fresh grid step."""
    reach = 2 * OCCUPIED_HALF_WIDTH + 0.5
    by_x = sorted(range(len(world.entities)),
                  key=lambda i: world.entities[i].x)
    xs = [world.entities[i].x for i in by_x]
    cache: dict[str, Lookalikes] = {}

    def lookalikes(e: Entity) -> Lookalikes:
        if e.id not in cache:
            window = sorted(by_x[bisect_left(xs, e.x - reach):
                                 bisect_right(xs, e.x + reach)])
            others = [o for o in map(world.entities.__getitem__, window)
                      if o is not e and world.ranges_intersect(o, e)]
            cache[e.id] = others, {o.id for o in others}
        return cache[e.id]

    return lookalikes


def add_relationships(world: SyntheticWorld, params: GenParams,
                      rng: random.Random) -> SyntheticWorld:
    if params.n_relationships and len(world.entities) < 2:
        raise ValueError("need at least 2 entities for relationships")
    lookalikes = _lookalike_index(world)

    # One block per relationship (ek, el), direction and look-alike ei of
    # ek where el has look-alikes, in order: (ei, look-alikes of el, their
    # ids), and the number of fresh pairs (ei, ej) it holds, ej a
    # look-alike of el that is neither ei nor a neighbor of ei.  add_edge
    # keeps the counts current; by_ei finds the blocks of an entity.
    blocks: list[tuple[Entity, list[Entity], set[str]]] = []
    counts: list[int] = []
    by_ei: dict[str, list[int]] = {}
    scanned = 0  # relationships already entered in blocks

    def add_edge(e1: Entity, e2: Entity):
        e1.nbrs.add(e2.id)
        e2.nbrs.add(e1.id)
        world.relationships.append((e1.id, e2.id))
        for a, b in ((e1, e2), (e2, e1)):
            for k in by_ei.get(a.id, ()):
                if b.id in blocks[k][2]:
                    counts[k] -= 1

    def try_ambiguous() -> bool:
        # draw a fresh pair (ei, ej) with ei a look-alike of ek and ej a
        # look-alike of el for an existing relationship (ek, el), uniformly
        # over the list of all such pairs; only the drawn block is listed
        nonlocal scanned
        for pair in world.relationships[scanned:]:
            ek = world.entity(pair[0])
            el = world.entity(pair[1])
            for a, b in ((ek, el), (el, ek)):
                cand_i, _ = lookalikes(a)
                cand_j, ids_j = lookalikes(b)
                if not cand_j:
                    continue
                for ei in cand_i:
                    by_ei.setdefault(ei.id, []).append(len(blocks))
                    blocks.append((ei, cand_j, ids_j))
                    counts.append(len(cand_j) - (ei.id in ids_j)
                                  - len(ei.nbrs & ids_j))
        scanned = len(world.relationships)
        cum = list(accumulate(counts))
        if not cum or not cum[-1]:
            return False
        k = rng.choice(range(cum[-1]))  # the same draw as from a list
        b = bisect_right(cum, k)  # a block without pairs is never drawn
        k -= cum[b] - counts[b]
        ei, cand_j, _ = blocks[b]
        ej = [ej for ej in cand_j
              if ej.id != ei.id and ej.id not in ei.nbrs][k]
        add_edge(ei, ej)
        world.ambiguous_relationships += 1
        return True

    for _ in range(params.n_relationships):
        if rng.random() < params.p_r_a:
            if try_ambiguous():
                continue
            world.relationship_fallbacks += 1
        for _ in range(1000):
            e1, e2 = rng.sample(world.entities, 2)
            if e2.id not in e1.nbrs:
                add_edge(e1, e2)
                break
        else:
            raise ValueError("relationship graph saturated")
    return world


def generate_hyperedges(world: SyntheticWorld, params: GenParams,
                        rng: random.Random) -> SyntheticOutput:
    gold: dict[str, str] = {}

    def records():  # drawn as ingest reads them; no list of them is kept
        for i in range(params.n_hyperedges):
            initiator = rng.choice(world.entities)
            members = [initiator.id]
            remaining_nbrs = sorted(initiator.nbrs)
            rng.shuffle(remaining_nbrs)
            while rng.random() < params.p_c:
                if not remaining_nbrs:
                    break
                if params.p_r < 1.0 and rng.random() >= params.p_r:
                    # extension draw not directed at a neighbor; the edge ends
                    break
                members.append(remaining_nbrs.pop())
            pub_id = f"p{i}"
            authors = []
            for j, eid in enumerate(members):
                e = world.entity(eid)
                value = f"{rng.gauss(e.x, 1.0):.{VALUE_DECIMALS}f}"
                rid = f"{pub_id}:{j}"
                authors.append({"id": rid, "name": value})
                gold[rid] = eid
            yield {"pub_id": pub_id, "authors": authors}

    ds = ingest(records(), name_mode="numeric")
    return SyntheticOutput(dataset=ds, gold=GoldLabeling(gold), world=world)


def generate(params: GenParams) -> SyntheticOutput:
    """End-to-end generation; identical params produce identical output."""
    rng = random.Random(params.seed)
    world = create_entities(params, rng)
    add_relationships(world, params, rng)
    return generate_hyperedges(world, params, rng)
