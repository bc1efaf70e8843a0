"""Seeded input generator for the pipeline benchmark.

Writes everything `negsup run` reads, and nothing else the benchmark
could lean on: the store directory (through save_datastore), the
vocabulary, the synonym TSV, a binary aux-embedding file holding the
image or synthetic vectors, the input JSON lines and the config JSON.

Captions are scene-style, in the manner of tests/toycorpus.py. A scene
names two entities in a place: seven clean captions, two bait captions
that add an entity the scene lacks, and one exact duplicate under another
id, so retrieval meets exact score ties broken by id. A quarter of the
scenes also show a third, salient entity in every caption that their
references omit, so the stand-in decoder must hallucinate it; a quarter
of the references name an entity the scene lacks, so recall misses it.
These planted shares, not chance, set CHAIR and recall, which keeps the
quality metrics nearly equal across seeds.

Entity words are made-up syllable words so the vocabulary can reach
hundreds of terms. The seed picks them so that no scene entity shares a
hash bucket with a caption filler word or the entity template, no two
terms share a scene entity's signed bucket, and the entities of one
scene sit on distinct buckets; image vectors are sums of the visible
entities' and the place's token vectors plus noise. Terms beyond the
scene entities are vocabulary-only distractors that classification still
has to score.

Run as a script:  PYTHONPATH=src python3 perfbench/inputs.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from negsup.datastore import Datastore, save_datastore
from negsup.embedding import ENTITY_TEMPLATE, HashSource, tokenize, write_embedding_file

from workloads import WORKLOADS, Workload

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"

PLACES = [
    "field", "beach", "garden", "street", "yard", "market", "harbor",
    "meadow", "plaza", "forest", "kitchen", "station", "bridge", "river",
]
VERBS = ["plays", "runs", "naps", "walks", "stands", "waits", "hides", "rolls"]
TIMES = ["today", "tonight", "early", "late", "now", "soon"]
CLEAN_TEMPLATES = [
    "{e} resting in the {place}",
    "{e} sit in the {place} at noon",
    "in the {place} {e} {verb} {when}",
    "{e} together near the {place}",
    "{e} seen in the {place} {when}",
    "{e} {verb} in the {place}",
    "{e} at noon in the {place}",
]
BAIT_TEMPLATES = [
    "{e} and a {x} {verb} in the {place} {when}",
    "{e} with a {x} resting in the {place}",
]
FIXED_TOKENS = set(
    tokenize(" ".join(CLEAN_TEMPLATES + BAIT_TEMPLATES + [ENTITY_TEMPLATE]))
    + PLACES + VERBS + TIMES + ["a", "and", "outside"]
) - {"e", "x", "place", "verb", "when"}

CAPTIONS_PER_SCENE = len(CLEAN_TEMPLATES) + len(BAIT_TEMPLATES) + 1
MAX_SCENE_TERMS = 100  # fits the signed buckets the fixed words leave free at d=128
HALLUCINATION_FRAC = 0.25  # scenes whose third entity references omit
MISSED_REFERENCE_FRAC = 0.25  # references naming an entity nothing shows
SYNONYM_MENTION_FRAC = 0.15
MULTIWORD_SYNONYM_FRAC = 0.4
PLACE_WEIGHT = 0.5
SALIENT_WEIGHT = 2.0
IMAGE_NOISE = 0.3
GATE_PASS_COS = (0.68, 0.95)
GATE_FAIL_COS = (0.15, 0.5)

STORE_DIR = "store"
VOCAB_FILE = "vocab.txt"
SYNONYMS_FILE = "synonyms.tsv"
AUX_FILE = "aux.nese"
INPUT_FILE = "input.jsonl"
CONFIG_FILE = "config.json"


class _Lexicon:
    """Made-up entity words, their synonyms, and seeded mention choice."""

    def __init__(self, rng, source: HashSource, n_terms: int, n_synonyms: int):
        self.rng = rng
        self.source = source
        self._taken = set(FIXED_TOKENS)
        self._blocked = {self.slot(t)[0] for t in FIXED_TOKENS}
        # images carry their place: keep it off the entity template's buckets
        template = {self.slot(t)[0] for t in tokenize(ENTITY_TEMPLATE)}
        self.places = [p for p in PLACES if self.slot(p)[0] not in template]
        # scene entities get a signed bucket each, so no term impersonates
        # one; scenes pick entities on distinct buckets so none cancels
        scene_slots: set = set()

        def fresh_scene_slot(slot) -> bool:
            if slot[0] in self._blocked or slot in scene_slots:
                return False
            scene_slots.add(slot)
            return True

        n_scene = min(n_terms, MAX_SCENE_TERMS)
        self.scene_terms = self._words(n_scene, fresh_scene_slot)
        # distractors sit on the places' signed buckets: the place an image
        # shows ranks them right after its visible entities, and no caption
        # names them, so classification's spare top-m slots stay harmless
        place_slots = {self.slot(p) for p in self.places}
        self.terms = self.scene_terms + self._words(n_terms - n_scene, place_slots.__contains__)
        self.synonyms: dict[str, str] = {}
        for target in rng.choice(self.scene_terms, size=n_synonyms, replace=False):
            n_words = 2 if rng.random() < MULTIWORD_SYNONYM_FRAC else 1
            surface = self._words(n_words, lambda slot: slot[0] not in self._blocked)
            self.synonyms[str(target)] = " ".join(surface)

    def slot(self, token: str) -> tuple[int, float]:
        vec = self.source.embed(token)
        j = int(np.argmax(np.abs(vec)))
        return j, float(vec[j])

    def _words(self, count: int, accept) -> list[str]:
        """`count` fresh made-up words whose signed bucket `accept` takes."""
        words: list[str] = []
        while len(words) < count:
            word = "".join(
                CONSONANTS[self.rng.integers(len(CONSONANTS))]
                + VOWELS[self.rng.integers(len(VOWELS))]
                for _ in range(2 + int(self.rng.integers(2)))
            )
            if word not in self._taken and accept(self.slot(word)):
                self._taken.add(word)
                words.append(word)
        return words

    def mention(self, term: str) -> str:
        surface = self.synonyms.get(term)
        if surface is not None and self.rng.random() < SYNONYM_MENTION_FRAC:
            return surface
        return term

    def scene_entities(self, count: int) -> list[str]:
        while True:
            picked = [str(t) for t in self.rng.choice(self.scene_terms, size=count, replace=False)]
            if len({self.slot(t)[0] for t in picked}) == count:
                return picked

    def pick(self, exclude) -> str:
        while True:
            term = self.scene_terms[self.rng.integers(len(self.scene_terms))]
            if term not in exclude:
                return term


def _entity_phrase(lex: _Lexicon, entities: list[str]) -> str:
    order = [entities[i] for i in lex.rng.permutation(len(entities))]
    return " and ".join(f"a {lex.mention(e)}" for e in order)


def _scene_captions(lex: _Lexicon, scene: dict) -> list[str]:
    slots = {"place": scene["place"], "verb": scene["verb"], "when": scene["when"]}
    ents = scene["entities"]
    clean = [t.format(e=_entity_phrase(lex, ents), **slots) for t in CLEAN_TEMPLATES]
    bait = [
        t.format(e=_entity_phrase(lex, ents), x=lex.mention(lex.pick(ents)), **slots)
        for t in BAIT_TEMPLATES
    ]
    return clean + bait + [clean[0]]  # exact duplicate: an exact score tie


def _hash_matrix(lex: _Lexicon, texts: list[str]) -> np.ndarray:
    """Row i equals HashSource.embed(texts[i]) up to the last ulp, in bulk.

    A single token embeds to a signed unit basis vector, which gives its
    bucket and sign; counts are summed as HashSource does.
    """
    token_lists = [tokenize(t) for t in texts]
    index: dict[str, int] = {}
    flat = [index.setdefault(tok, len(index)) for tok in itertools.chain.from_iterable(token_lists)]
    slots = np.array([lex.slot(tok) for tok in index])
    ids = np.array(flat)
    rows = np.repeat(np.arange(len(texts)), [len(t) for t in token_lists])
    counts = np.zeros((len(texts), lex.source.dim))
    np.add.at(counts, (rows, slots[ids, 0].astype(np.int64)), slots[ids, 1])
    norms = np.linalg.norm(counts, axis=1)
    zero = norms == 0.0
    counts[zero, 0] = 1.0  # normalize_total maps the zero vector to e1
    norms[zero] = 1.0
    return counts / norms[:, None]


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _visual(lex: _Lexicon, scene: dict) -> np.ndarray:
    vec = PLACE_WEIGHT * lex.source.embed(scene["place"])
    for i, term in enumerate(scene["entities"]):
        # a third entity is the salient one, so captions naming it lead retrieval
        vec = vec + (SALIENT_WEIGHT if i == 2 else 1.0) * lex.source.embed(term)
    return vec


def _synthetic_vector(rng, text_emb: np.ndarray, visual: np.ndarray, cos: float):
    """A unit vector at exactly `cos` to text_emb, leaning toward `visual`."""
    ortho = visual - float(np.dot(visual, text_emb)) * text_emb
    if np.linalg.norm(ortho) < 1e-6:
        ortho = rng.normal(size=text_emb.shape[0])
        ortho -= float(np.dot(ortho, text_emb)) * text_emb
    return cos * text_emb + np.sqrt(1.0 - cos * cos) * _unit(ortho)


def _exact_subset(rng, n: int, frac: float) -> set[int]:
    return set(rng.choice(n, size=round(frac * n), replace=False).tolist())


def _evenly(j: int, frac: float) -> bool:
    """True for an evenly spaced `frac` share of j = 0, 1, 2, ..."""
    share = Fraction(frac).limit_denominator(1000)
    return (j + 1) * share // 1 > j * share // 1


def generate(workload: Workload, seed: int, out_dir: str) -> None:
    """Write the workload's inputs for `seed` into `out_dir`."""
    rng = np.random.default_rng([seed, workload.store_size, workload.n_terms])
    source = HashSource(dim=workload.dim, seed=seed)
    lex = _Lexicon(rng, source, workload.n_terms, workload.n_synonyms)

    n_scenes = -(-workload.store_size // CAPTIONS_PER_SCENE)
    prone = _exact_subset(rng, n_scenes, HALLUCINATION_FRAC)
    scenes = []
    captions: list[str] = []
    for s in range(n_scenes):
        n_ents = 3 if s in prone else 2
        scene = {
            "entities": lex.scene_entities(n_ents),
            "place": lex.places[rng.integers(len(lex.places))],
            "verb": VERBS[rng.integers(len(VERBS))],
            "when": TIMES[rng.integers(len(TIMES))],
        }
        scenes.append(scene)
        captions.extend(_scene_captions(lex, scene))
    captions = captions[: workload.store_size]
    captions = [captions[i] for i in rng.permutation(len(captions))]
    os.makedirs(out_dir, exist_ok=True)
    save_datastore(
        Datastore(
            [f"c{i:07d}" for i in range(len(captions))],
            captions,
            _hash_matrix(lex, captions),
        ),
        os.path.join(out_dir, STORE_DIR),
    )
    with open(os.path.join(out_dir, VOCAB_FILE), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{t}\n" for t in lex.terms))
    with open(os.path.join(out_dir, SYNONYMS_FILE), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{t}\t{s}\n" for t, s in sorted(lex.synonyms.items())))

    # Instance j is prone, missed or gate-failing by an even spacing of j,
    # so each kind has an exact share, also among the instances that pass
    # the gate; the input order is then shuffled.
    n = workload.instances
    is_prone = [_evenly(j, HALLUCINATION_FRAC) for j in range(n)]
    n_prone = sum(is_prone)
    prone_scenes = iter(rng.choice(sorted(prone), size=n_prone, replace=False))
    plain_scenes = iter(
        rng.choice(sorted(set(range(n_scenes)) - prone), size=n - n_prone, replace=False)
    )
    lines, aux = [], []
    for i, j in enumerate(rng.permutation(n)):
        scene = scenes[next(prone_scenes if is_prone[j] else plain_scenes)]
        a, b = scene["entities"][:2]
        named = [a, b]
        if _evenly(j // 4, MISSED_REFERENCE_FRAC):  # j // 4: apart from prone
            named.append(lex.pick(scene["entities"]))
        reference = f"{_entity_phrase(lex, named)} in the {scene['place']}"
        visual = _visual(lex, scene)
        if workload.mode == "inference":
            key = f"img{i:05d}"
            noise = rng.normal(size=workload.dim) / np.sqrt(workload.dim)
            aux.append((key, _unit(_unit(visual) + IMAGE_NOISE * noise)))
            lines.append({"id": key, "image_key": key, "references": [reference]})
        else:
            caption = (
                f"{_entity_phrase(lex, scene['entities'])} {scene['verb']} "
                f"outside {scene['when']}"
            )
            gate_fail = _evenly(j, workload.gate_fail_frac)
            cos = rng.uniform(*(GATE_FAIL_COS if gate_fail else GATE_PASS_COS))
            key = f"syn{i:05d}"
            aux.append((key, _synthetic_vector(rng, source.embed(caption), visual, cos)))
            lines.append(
                {
                    "id": f"tr{i:05d}",
                    "caption": caption,
                    "synthetic_key": key,
                    "references": [reference],
                }
            )
    write_embedding_file(os.path.join(out_dir, AUX_FILE), aux)
    with open(os.path.join(out_dir, INPUT_FILE), "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(obj, sort_keys=True) + "\n" for obj in lines))
    with open(os.path.join(out_dir, CONFIG_FILE), "w", encoding="utf-8") as fh:
        json.dump(workload.config(seed), fh, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    generate(workload.tiny() if args.tiny else workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
