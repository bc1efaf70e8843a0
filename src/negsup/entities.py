"""Entity extraction, zero-shot entity classification, and entity filtering.

Extraction is vocabulary-driven whole-token matching: surface forms
(canonical terms plus synonyms) match contiguous token runs, longest run
first, and map to their canonical term (extract_entities of a caption,
entities_in of its tokens when they are already made). An EntityIndex holds a
vocabulary's entity-description vectors under one entity source, and is
the one entity argument of classification and inference filtering.
Zero-shot classification ranks the index's terms for many images at once
with kernels.exact_top (classify_many; classify_image_entities is its
one-image case). Filtering partitions candidate entities into
positive/negative sets, either against ground-truth key entities
(training) or by embedding similarity to the image (inference).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import kernels
from .embedding import EmbeddingSource, embed_entity, l2_normalize, tokenize
from .errors import DimMismatch, EmptyInput, FormatError, InvariantError
from .validation import read_lines


class EntityVocabulary:
    """Canonical entity terms plus a surface-form -> canonical synonym map.

    `runs` maps each surface form's token run to its canonical term; two
    surface forms with one run (such as "t-shirt" and "t shirt") must map
    to the same canonical, else FormatError names both. `runs_of` lists
    each canonical term's runs, and `longest` maps each token that starts
    a run to the length of the longest run it starts (see match_runs).
    """

    def __init__(self, canonical: Iterable[str], synonyms: Mapping[str, str] | None = None):
        self.canonical = frozenset(t.strip().lower() for t in canonical if t.strip())
        table = {term: term for term in self.canonical}
        for surface, target in (synonyms or {}).items():
            surface = surface.strip().lower()
            target = target.strip().lower()
            if target not in self.canonical:
                raise FormatError(
                    f"synonym {surface!r} maps to unknown canonical term {target!r}"
                )
            if table.get(surface, target) != target:
                raise FormatError(f"surface form {surface!r} maps to two canonicals")
            table[surface] = target
        self.synonyms = table
        # a surface with no word tokens (such as "-") names no run
        first: dict[tuple[str, ...], str] = {}
        for surface, target in sorted(table.items()):
            run = tuple(tokenize(surface))
            if run and table[first.setdefault(run, surface)] != target:
                raise FormatError(
                    f"surface forms {first[run]!r} and {surface!r} are the same "
                    f"token run {' '.join(run)!r} but map to two canonicals"
                )
        self.runs = {run: table[surface] for run, surface in first.items()}
        self.runs_of: dict[str, list[tuple[str, ...]]] = {}
        for run, term in self.runs.items():
            self.runs_of.setdefault(term, []).append(run)
        self.longest = longest_runs(self.runs)

    def __len__(self) -> int:
        return len(self.canonical)

    def canonicalize(self, term: str) -> str:
        """Map a surface form to its canonical term (unknown terms pass through)."""
        term = term.strip().lower()
        return self.synonyms.get(term, term)

    def __repr__(self) -> str:
        return f"EntityVocabulary({len(self.canonical)} terms, {len(self.synonyms)} surface forms)"


@dataclass(frozen=True)
class EntitySets:
    """The key/candidate/filtered/positive/negative partition for one input."""

    key: frozenset[str]
    candidates: frozenset[str]
    filtered: frozenset[str]
    positive: frozenset[str]
    negative: frozenset[str]

    @classmethod
    def split(
        cls, key: Iterable[str], candidates: Iterable[str], negative: Iterable[str]
    ) -> "EntitySets":
        """The one partition rule: the candidates that are not key entities
        are filtered, `negative` (a subset of them) is negative, and every
        other entity is positive."""
        key, candidates, negative = map(frozenset, (key, candidates, negative))
        filtered = candidates - key
        return cls(key, candidates, filtered, key | (filtered - negative), negative)

    def check(self) -> None:
        if self.filtered != self.candidates - self.key:
            raise InvariantError("filtered != candidates \\ key")
        if not self.positive >= self.key:
            raise InvariantError("positive does not contain key")
        if self.positive & self.negative:
            raise InvariantError("positive and negative overlap")
        if not (self.positive | self.negative) >= (self.candidates | self.key):
            raise InvariantError("positive + negative do not cover candidates + key")
        if not self.negative <= self.filtered:
            raise InvariantError("negative is not a subset of filtered")

    def to_json_dict(self) -> dict:
        return {f.name: sorted(getattr(self, f.name)) for f in fields(self)}


def longest_runs(runs: Iterable[tuple[str, ...]]) -> dict[str, int]:
    """The length of the longest of the (non-empty) `runs` that starts
    with each token."""
    longest: dict[str, int] = {}
    for run in runs:
        if len(run) > longest.get(run[0], 0):
            longest[run[0]] = len(run)
    return longest


def match_runs(
    tokens: Sequence[str], runs: Mapping[tuple[str, ...], str], longest: Mapping[str, int]
) -> Iterator[tuple[int, int, str]]:
    """(start, stop, canonical) of each run of `runs` in `tokens`, scanned
    left to right with the longest run first at each position, so "hot
    dog" hides the "dog" inside it. `longest` is longest_runs(runs): only
    the tokens that start a run are visited."""
    n = len(tokens)
    i = 0  # the first token not inside a run already matched
    for start in [j for j, token in enumerate(tokens) if token in longest]:
        if start < i:
            continue
        for stop in range(min(start + longest[tokens[start]], n), start, -1):
            target = runs.get(tuple(tokens[start:stop]))
            if target is not None:
                yield start, stop, target
                i = stop
                break


def entities_in(tokens: Sequence[str], vocab: EntityVocabulary) -> set[str]:
    """extract_entities of a caption's tokens (see embedding.tokenize)."""
    if not vocab.canonical:
        raise EmptyInput("vocabulary is empty")
    return {target for _, _, target in match_runs(tokens, vocab.runs, vocab.longest)}


def extract_entities(caption: str, vocab: EntityVocabulary) -> set[str]:
    """Canonical terms whose surface forms occur in `caption` as whole
    token runs (see match_runs)."""
    return entities_in(tokenize(caption), vocab)


class EntityIndex:
    """The entity descriptions of one vocabulary under one entity source.

    A run embeds each term's templated description ("A photo of {term}")
    once: the first request embeds it, later ones reuse the read-only
    vector. Embedding is lazy, so a source may lack the vectors of terms a
    run never scores; only classification stacks all of them, on first use.
    Without a vocabulary the index only memoizes vectors: classification
    rejects it as an empty vocabulary, and inference filtering uses it.
    """

    def __init__(self, source: EmbeddingSource, vocab: EntityVocabulary | None = None):
        self.source = source
        self.vocab = vocab
        self.terms = tuple(sorted(vocab.canonical)) if vocab is not None else ()
        self._vectors: dict[str, np.ndarray] = {}
        self._rows: np.ndarray | None = None

    def vector(self, term: str) -> np.ndarray:
        vec = self._vectors.get(term)
        if vec is None:
            vec = embed_entity(self.source, term)
            vec.flags.writeable = False
            self._vectors[term] = vec
        return vec

    def rows(self) -> np.ndarray:
        """The vectors of all vocabulary terms as one read-only (|V|, d)
        matrix; row i is the vector of terms[i]."""
        if self._rows is None:
            self._rows = np.stack([self.vector(term) for term in self.terms])
            self._rows.flags.writeable = False
        return self._rows


def _check_width(vec: np.ndarray, img: np.ndarray) -> None:
    # every vector of one source has the same width, so one check per call
    if vec.shape[0] != img.shape[0]:
        raise DimMismatch(f"entity dim {vec.shape[0]} != image dim {img.shape[0]}")


def classify_many(images, index: EntityIndex, top_m: int) -> list[list[str]]:
    """The index's vocabulary terms ranked by cosine to each image
    embedding, best first.

    Each term scores via its templated description embedding, ranked by
    kernels.exact_top over the index's float64 term matrix, which is both
    the unit rows and the scan copy, in one call for all images; terms are
    sorted, so ties break by ascending term. Returns the top
    min(top_m, |vocab|) terms of each image, in order; no images, no
    result, whatever the vocabulary.
    """
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    images = list(images)
    if not images:
        return []
    if not index.terms:
        raise EmptyInput("vocabulary is empty")
    imgs = [l2_normalize(image) for image in images]
    rows = index.rows()
    for img in imgs:
        _check_width(rows[0], img)
    return [
        [index.terms[i] for _, i in top]
        for top in kernels.exact_top(rows.__getitem__, rows, imgs, top_m)
    ]


def classify_image_entities(image_emb, index: EntityIndex, top_m: int) -> list[str]:
    """The terms classify_many ranks for one image embedding."""
    return classify_many([image_emb], index, top_m)[0]


def filter_training(key: Iterable[str], candidates: Iterable[str]) -> EntitySets:
    """Training-mode partition: candidates absent from the key are negative."""
    key, candidates = frozenset(key), frozenset(candidates)
    return EntitySets.split(key, candidates, candidates - key)


def filter_inference(
    key: Iterable[str],
    candidates: Iterable[str],
    image_emb,
    index: EntityIndex,
    tau_sim: float = 0.2,
) -> EntitySets:
    """Inference-mode partition: filtered entities whose description
    embedding (from `index`, whatever its vocabulary) has a similarity to
    the image strictly above tau_sim join the positive set; the rest are
    negative.
    """
    if not (-1.0 <= tau_sim <= 1.0) or math.isnan(tau_sim):
        raise ValueError(f"tau_sim must be in [-1, 1], got {tau_sim}")
    key, candidates = frozenset(key), frozenset(candidates)
    img = l2_normalize(image_emb)
    vectors = {term: index.vector(term) for term in candidates - key}
    if vectors:
        _check_width(next(iter(vectors.values())), img)
    negative = [term for term, vec in vectors.items() if float(np.dot(vec, img)) <= tau_sim]
    return EntitySets.split(key, candidates, negative)


# --- vocabulary files --------------------------------------------------------
#
# Vocabulary file: one canonical term per line. Synonym file: TSV lines
# "canonical<TAB>syn1,syn2,...". Blank lines and "#" comments are ignored
# in both.


def _content_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped line) of each content line of the file."""
    lines = ((lineno, line.strip()) for lineno, line in read_lines(path))
    return [(lineno, line) for lineno, line in lines if not line.startswith("#")]


def load_vocabulary(vocab_path, synonyms_path=None) -> EntityVocabulary:
    canonical = [line for _, line in _content_lines(vocab_path)]
    synonyms: dict[str, str] = {}
    if synonyms_path is not None:
        for lineno, line in _content_lines(synonyms_path):
            if "\t" not in line:
                raise FormatError(
                    f"{os.fspath(synonyms_path)}: line {lineno}: synonym line {line!r}:"
                    " expected 'canonical<TAB>syn1,syn2,...'"
                )
            target, rest = line.split("\t", 1)
            for surface in rest.split(","):
                if surface.strip():
                    synonyms[surface.strip()] = target.strip()
    return EntityVocabulary(canonical, synonyms)
