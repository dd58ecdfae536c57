"""Every input the ledger feeds the program.

The program only ever sees what this module produces: flat-file
corpora (``repro.synth.build_corpus``), query texts, operation
sequences and the chain of ENZYME releases harvest_delta publishes.

What a workload *is* — its databank release, its query texts and how
popular each is — is fixed here. What the ``--seed`` draws is what is
done with it: the order of operations, which entries each release
changes, which documents are re-checked. A corpus that changed with
the seed would move every selectivity, and with it every latency, by
more than the bounds the ledger gates on; two seeds would then not
measure the same workload. The same seed gives the same inputs;
``sequence_digest`` and ``ReleaseChain.digest`` let the self-tests
check that.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from itertools import accumulate, product

from repro.flatfile import parse_entries, render_entries
from repro.flatfile.lines import Line
from repro.synth import build_corpus
from repro.synth.names import ENZYME_ACTIVITY_WORDS, SUBSTRATE_WORDS

WORDS = sorted(ENZYME_ACTIVITY_WORDS + SUBSTRATE_WORDS)

# -- query texts ------------------------------------------------------------

#: Figure 9 shape: one ENZYME sub-tree selected by a keyword
_SUBTREE = ('FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
            'WHERE contains($a//{path}, "{word}") '
            'RETURN $a//enzyme_id, $a//{column}')
_SUBTREE_PATHS = ("catalytic_activity", "enzyme_description",
                  "alternate_name")
_SUBTREE_COLUMNS = ("enzyme_description", "catalytic_activity", "cofactor")

#: Figure 11 shape: EMBL features joined to ENZYME on the EC number
_JOIN = ('FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry, '
         '$b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry '
         'WHERE $a//qualifier[@qualifier_type = "EC_number"] = '
         '$b/enzyme_id{extra} '
         'RETURN $Accession_Number = $a//embl_accession_number, '
         '$Accession_Description = $a//{column}')
_JOIN_EXTRAS = (' AND contains($b//catalytic_activity, "{word}")',
                ' AND contains($a//description, "{word}")')
_JOIN_COLUMNS = ("description", "organism", "entry_name")

FIGURE_9 = _SUBTREE.format(path="catalytic_activity", word="ketone",
                           column="enzyme_description")
FIGURE_11 = _JOIN.format(extra="", column="description")

#: harvest_delta's standing queries: a projection of the field the
#: releases change, a keyword filter, and the two-source join
STANDING_QUERIES = (
    'FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme '
    'RETURN $a//enzyme_id, $a//enzyme_description',
    FIGURE_9,
    'FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry, '
    '$b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry '
    'WHERE $a//qualifier[@qualifier_type = "EC_number"] = $b/enzyme_id '
    'RETURN $a//embl_accession_number, $b//enzyme_description',
)


#: the databank release every run works on
CORPUS_SEED = 2003


def corpus(counts: tuple[int, int, int]):
    """The cross-linked ENZYME / EMBL / Swiss-Prot release."""
    enzyme, embl, sprot = counts
    return build_corpus(seed=CORPUS_SEED, enzyme_count=enzyme,
                        embl_count=embl, sprot_count=sprot)


def release_size(texts: dict[str, str]) -> tuple[int, int]:
    """``(entries, bytes)`` of a set of flat-file releases."""
    return (sum(text.count("\n//") for text in texts.values()),
            sum(len(text.encode("utf-8")) for text in texts.values()))


def subtree_texts(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct Figure 9-shape texts, keyword varied."""
    texts = [_SUBTREE.format(path=path, word=word, column=column)
             for path, word, column
             in product(_SUBTREE_PATHS, WORDS, _SUBTREE_COLUMNS)]
    rng.shuffle(texts)
    return texts[:count]


def join_texts(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct Figure 11-shape texts, predicate varied."""
    texts = [_JOIN.format(extra=extra.format(word=word), column=column)
             for extra, word, column
             in product(_JOIN_EXTRAS, WORDS, _JOIN_COLUMNS)]
    rng.shuffle(texts)
    return [FIGURE_11] + texts[:count - 1]


# -- operations -------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One operation of a mix: ``kind`` is keyword / subtree / join /
    document; ``arg`` is (phrase, source), a query text, or a doc id."""

    kind: str
    arg: object

    @property
    def key(self) -> str:
        """Identity of the distinct operation (oracle key)."""
        return f"{self.kind}:{self.arg!r}"


@dataclass
class Pool:
    """The distinct operations of one kind, with their popularity."""

    share: float
    ops: list[Op]
    zipf: bool = False

    def cumulative(self) -> list[float]:
        """Cumulative draw weights: Zipf(1.0) by rank, or uniform."""
        if self.zipf:
            return list(accumulate(1.0 / rank
                                   for rank in range(1, len(self.ops) + 1)))
        return list(accumulate(1.0 for _ in self.ops))


#: the operations and their popularity are the workload's shape:
#: fixed here, so every seed meets the same texts at the same ranks
#: and only the corpus and the order of operations vary with it
_SHAPE = "ledger-shape"
#: substrate words the generator draws alike (unlike the planted
#: "ketone"): each is in about a tenth of ENZYME's catalytic
#: activities, so operations that differ only in the word cost alike
_SUBSTRATES = ("glucose", "pyruvate", "lactate", "malate")


def library_mix(doc_ids: list[int], texts: int) -> dict[str, Pool]:
    """query_library: 40/30/20/10 over ``texts`` distinct query texts
    (3:2 sub-tree to join), Zipf-popular so a 128-entry compiled-query
    cache both hits and misses; keyword lookups take a vocabulary
    word, optionally scoped to one source."""
    rng = random.Random(_SHAPE)
    subtrees = texts * 3 // 5
    lookups = [(word, source) for word in WORDS + ["cdc6"]
               for source in (None, "hlx_enzyme", "hlx_embl", "hlx_sprot")]
    rng.shuffle(lookups)
    return {
        "keyword": Pool(0.4, [Op("keyword", lookup)
                              for lookup in lookups[:96]]),
        "subtree": Pool(0.3, [Op("subtree", text) for text
                              in subtree_texts(rng, subtrees)], zipf=True),
        "join": Pool(0.2, [Op("join", text) for text
                           in join_texts(rng, texts - subtrees)], zipf=True),
        "document": Pool(0.1, [Op("document", doc_id)
                               for doc_id in doc_ids]),
    }


def canned_mix(doc_ids: list[int]) -> dict[str, Pool]:
    """serve_mixed (and the query phase of the two write workloads):
    60/10/20/10 over 8 canned requests, so a compiled-query cache
    always hits; requests of one kind cost alike, so a kind's median
    is the cost of that kind and not of whichever request won."""
    return {
        "keyword": Pool(0.6, [Op("keyword", (word, "hlx_enzyme"))
                              for word in _SUBSTRATES[:3]]),
        "document": Pool(0.1, [Op("document", doc_id)
                               for doc_id in doc_ids[:2]]),
        "subtree": Pool(0.2, [Op("subtree", _SUBTREE.format(
            path="catalytic_activity", word=word,
            column="enzyme_description")) for word in _SUBSTRATES[:2]]),
        "join": Pool(0.1, [Op("join", FIGURE_11)]),
    }


def federated_mix() -> dict[str, Pool]:
    """federated_join: 50 % Figure 11 join (all shards; only the
    returned column varies), 30 % ENZYME sub-tree (prunable to one
    shard), 20 % keyword; again alike within a kind."""
    return {
        "join": Pool(0.5, [Op("join", _JOIN.format(extra="", column=column))
                           for column in _JOIN_COLUMNS]),
        "subtree": Pool(0.3, [Op("subtree", _SUBTREE.format(
            path="catalytic_activity", word=word,
            column="enzyme_description")) for word in _SUBSTRATES]),
        "keyword": Pool(0.2, [Op("keyword", (word, "hlx_enzyme"))
                              for word in _SUBSTRATES]),
    }


#: operations per block of a sequence; every block holds each kind in
#: exactly its share (all shares are tenths)
BLOCK = 10


def draw_sequence(rng: random.Random, mix: dict[str, Pool],
                  count: int) -> list[Op]:
    """``count`` operations in blocks of ``BLOCK``: each block holds
    every kind in exactly its share, drawn by popularity within the
    kind and shuffled. Any ten blocks then do the same kinds of work,
    so the rate of one stretch of a window can be set against
    another's, and two seeds differ in order, not in how many joins
    they happened to draw."""
    weights = {kind: pool.cumulative() for kind, pool in mix.items()}
    per_block = {kind: round(pool.share * BLOCK)
                 for kind, pool in mix.items()}
    assert sum(per_block.values()) == BLOCK, per_block
    sequence: list[Op] = []
    while len(sequence) < count:
        block = [op for kind, share in per_block.items()
                 for op in rng.choices(mix[kind].ops,
                                       cum_weights=weights[kind], k=share)]
        rng.shuffle(block)
        sequence.extend(block)
    return sequence


def sequence_digest(sequence: list[Op]) -> str:
    """Hash of an operation sequence (same seed, same digest)."""
    digest = hashlib.sha256()
    for op in sequence:
        digest.update(op.key.encode("utf-8"))
    return digest.hexdigest()


# -- the release chain ------------------------------------------------------

_REVISION = re.compile(r"( rev\d+)?\.$")


class ReleaseChain:
    """Successive ENZYME releases of stationary size.

    Each release rewrites the description (the field the standing
    queries project) of ``updates`` entries, drops ``removals`` and
    brings back the entries the previous release dropped. Rendering
    happens here, between the timed sections of harvest_delta.
    """

    def __init__(self, enzyme_text: str, seed: int, update_share: float,
                 remove_share: float):
        self._rng = random.Random(seed)
        self._entries = parse_entries(enzyme_text)
        self._present = [True] * len(self._entries)
        self._dropped: list[int] = []
        self.updates = max(1, round(len(self._entries) * update_share))
        self.removals = max(1, round(len(self._entries) * remove_share))
        self.number = 1
        self.text = enzyme_text
        self.input_bytes = len(enzyme_text.encode("utf-8"))
        self._digest = hashlib.sha256(enzyme_text.encode("utf-8"))

    def advance(self) -> tuple[str, str, int]:
        """Build the next release; returns ``(release id, text,
        documents it adds + updates + removes)``."""
        self.number += 1
        present = [index for index, here in enumerate(self._present)
                   if here]
        touched = self._rng.sample(present, self.updates + self.removals)
        for index in touched[:self.updates]:
            entry = self._entries[index]
            for position, line in enumerate(entry.lines):
                if line.code == "DE":
                    entry.lines[position] = Line("DE", _REVISION.sub(
                        f" rev{self.number}.", line.data))
                    break
        returning = self._dropped
        self._dropped = touched[self.updates:]
        for index in returning:
            self._present[index] = True
        for index in self._dropped:
            self._present[index] = False
        self.text = render_entries(
            entry for entry, here in zip(self._entries, self._present)
            if here)
        self._digest.update(self.text.encode("utf-8"))
        return (f"r{self.number:05d}", self.text,
                self.updates + self.removals + len(returning))

    @property
    def digest(self) -> str:
        """Hash of every release text produced so far."""
        return self._digest.hexdigest()
