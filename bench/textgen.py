"""Seeded, labeled text-name corpus generator for the benchmark.

A world of entities, each with a first and a last name, is linked by a
random symmetric relationship graph; publication records are drawn from
that graph the way ``qer.synthgen`` draws numeric hyper-edges: an
initiator, extended by one of its remaining neighbors with continuation
probability ``P_C``.  Every entity has the same number of relationship
stubs and initiates the same number of records.  Each author slot renders
the entity's name as "F. Last" or "First Last", and with a small
probability the last name carries a one-edit typo (never on its first
letter).

A share of entities take their last name from a small pool of common
surnames, spread evenly over the pool, so normalized names such as
"w wang" are carried by several entities; the rest get a distinct
syllable-built surname.

The program only ever sees the JSONL records; the gold labels stay with
the benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

FIRST_NAMES = (
    "adam alice amir anna ben bruno carla chen claire daniel david diana "
    "elena emil eva farid felix fiona george grace hana hugo ivan irene "
    "jack james jing julia karl kate lars laura leon lina marco maria "
    "mei mark nadia nina omar olga pablo paula peter qiang rosa ravi "
    "sara sam tara tom uma victor vera wei wen xin yan yuki zoe zhen "
    "ahmed bianca carlos dmitri erin fatima gil helen ines jorge kiran"
).split()

# No two of these share a first letter and lie within three edits, so a
# query's level 0 (same initial, last names at most two edits apart) never
# spans two of them.
SHARED_SURNAMES = (
    "wang chen li zhang yang huang kim park nguyen tran smith brown jones "
    "miller davis garcia martin lopez moreau schmidt rossi silva tanaka "
    "suzuki olsen gupta novak ortiz evans fischer bauer ramos"
).split()

_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

P_C = 0.6            # continuation probability of a record
SHARED_SHARE = 0.4   # share of entities with a pooled surname
P_INITIAL = 0.6      # an author slot shows "F. Last" rather than "First Last"
P_TYPO = 0.02        # a last name carries a one-edit typo


@dataclass
class TextCorpus:
    records: list[dict]
    gold: dict[str, str]          # reference id -> entity id

    def write(self, records_path, gold_path=None):
        with open(records_path, "w") as f:
            for rec in self.records:
                f.write(json.dumps(rec) + "\n")
        if gold_path is not None:
            with open(gold_path, "w") as f:
                for rid in sorted(self.gold):
                    f.write(f"{rid} {self.gold[rid]}\n")


def _syllable_surname(rng: random.Random) -> str:
    n = rng.choice((2, 2, 3))
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                   for _ in range(n)) + rng.choice(("", "n", "r", "s"))


def _typo(last: str, rng: random.Random) -> str:
    """One substitution, insertion or deletion after the first letter."""
    kind = rng.choice(("sub", "ins", "del")) if len(last) > 2 else "ins"
    i = rng.randrange(1, len(last) + (kind == "ins"))
    if kind == "sub":
        c = rng.choice([x for x in _LETTERS if x != last[i]])
        return last[:i] + c + last[i + 1:]
    if kind == "ins":
        return last[:i] + rng.choice(_LETTERS) + last[i:]
    return last[:i] + last[i + 1:]


def generate(n_entities: int, n_relationships: int, n_pubs: int,
             seed: int) -> TextCorpus:
    """Identical arguments give identical output."""
    rng = random.Random(seed)
    n = n_entities
    # Balanced draws keep the make-up of the world (how many entities share
    # each surname, each entity's degree and publication count) the same
    # from seed to seed; only who gets which name and link is random.
    firsts = [FIRST_NAMES[i % len(FIRST_NAMES)] for i in range(n)]
    rng.shuffle(firsts)
    n_shared = round(SHARED_SHARE * n)
    pool = SHARED_SURNAMES
    lasts = [pool[i % len(pool)] for i in range(n_shared)]
    used = set(SHARED_SURNAMES)
    while len(lasts) < n:
        last = _syllable_surname(rng)
        if last not in used:
            used.add(last)
            lasts.append(last)
    rng.shuffle(lasts)
    names = list(zip(firsts, lasts))

    # configuration model: every entity gets the same number of link stubs
    degree = max(1, round(2 * n_relationships / n))
    stubs = [e for e in range(n) for _ in range(degree)]
    rng.shuffle(stubs)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in zip(stubs[::2], stubs[1::2]):
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)

    initiators = [p % n for p in range(n_pubs)]
    rng.shuffle(initiators)
    records: list[dict] = []
    gold: dict[str, str] = {}
    for p, initiator in enumerate(initiators):
        members = [initiator]
        remaining = sorted(nbrs[initiator])
        rng.shuffle(remaining)
        while remaining and rng.random() < P_C:
            members.append(remaining.pop())
        pub_id = f"p{p}"
        authors = []
        for slot, e in enumerate(members):
            first, last = names[e]
            if rng.random() < P_TYPO:
                last = _typo(last, rng)
            if rng.random() < P_INITIAL:
                shown = f"{first[0].upper()}. {last.capitalize()}"
            else:
                shown = f"{first.capitalize()} {last.capitalize()}"
            rid = f"{pub_id}:{slot}"
            authors.append({"id": rid, "name": shown})
            gold[rid] = f"e{e}"
        records.append({"pub_id": pub_id, "authors": authors})
    return TextCorpus(records=records, gold=gold)
