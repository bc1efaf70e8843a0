"""Entity extraction, zero-shot entity classification, and entity filtering.

Extraction is vocabulary-driven whole-token matching: surface forms
(canonical terms plus synonyms) match contiguous token runs, longest run
first, and map to their canonical term (extract_entities of a caption,
entities_in of its tokens when they are already made). An EntityIndex holds a
vocabulary's entity-description vectors under one entity source, and is
the one entity argument of classification and inference filtering.
Zero-shot classification ranks the index's terms for many images at once
with kernels.exact_top (classify_image_entities). Filtering partitions
candidate entities into positive/negative sets, either against
ground-truth key entities (training) or by embedding similarity to the
image (inference).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import kernels
from .embedding import (
    ENTITY_TEMPLATE,
    EmbeddingSource,
    embed_rows,
    l2_normalize_rows,
    tokenize,
)
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
    run never scores. The vectors of many terms are asked for at once
    (vectors()), and those not embedded yet are embedded in one
    embedding.embed_rows call: all the terms, when classification first
    stacks them (rows()), or a chunk's filtered or negative terms.
    Without a vocabulary the index only memoizes vectors: classification
    rejects it as an empty vocabulary, and inference filtering uses it.
    """

    def __init__(self, source: EmbeddingSource, vocab: EntityVocabulary | None = None):
        self.source = source
        self.vocab = vocab
        self.terms = tuple(sorted(vocab.canonical)) if vocab is not None else ()
        self._vectors: dict[str, np.ndarray] = {}
        self._rows: np.ndarray | None = None

    def vectors(self, terms: Sequence[str]) -> np.ndarray:
        """The vectors of `terms` as one (len(terms), d) matrix. The terms
        not embedded before are embedded in one embed_rows call, and their
        read-only rows kept; a blank term is an EmptyInput, as in
        embed_entity."""
        missing = [term for term in dict.fromkeys(terms) if term not in self._vectors]
        if missing:
            if not all(term.strip() for term in missing):
                raise EmptyInput("entity is empty")
            rows = embed_rows(self.source, [ENTITY_TEMPLATE.format(t) for t in missing])
            rows.flags.writeable = False
            self._vectors.update(zip(missing, rows))
        rows = [self._vectors[term] for term in terms]
        return np.array(rows).reshape(len(terms), self.source.dim)

    def vector(self, term: str) -> np.ndarray:
        self.vectors([term])
        return self._vectors[term]

    def rows(self) -> np.ndarray:
        """The vectors of all vocabulary terms as one read-only (|V|, d)
        matrix; row i is the vector of terms[i]."""
        if self._rows is None:
            self._rows = self.vectors(self.terms)
            self._rows.flags.writeable = False
        return self._rows


def _check_width(entity_dim: int, image_dim: int) -> None:
    # every vector of one source has the same width, so one check per call
    if entity_dim != image_dim:
        raise DimMismatch(f"entity dim {entity_dim} != image dim {image_dim}")


def classify_image_entities(images, index: EntityIndex, top_m: int) -> list[list[str]]:
    """The index's vocabulary terms ranked by cosine to each image
    embedding, best first.

    `images` is a sequence or an (n, d) stack of embeddings, normalized as
    one matrix (embedding.l2_normalize_rows: FormatError for a non-finite
    value, ZeroVector for a zero image) and checked once for width
    (DimMismatch). Each term scores via its templated description
    embedding, ranked by kernels.exact_top over the index's float64 term
    matrix, which is both the unit rows and the scan copy, in one call for
    all images; terms are sorted, so ties break by ascending term. Returns
    the top min(top_m, |vocab|) terms of each image, in order; no images,
    no result, whatever the vocabulary.
    """
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    if len(images) == 0:
        return []
    if not index.terms:
        raise EmptyInput("vocabulary is empty")
    imgs = l2_normalize_rows(images)
    rows = index.rows()
    _check_width(rows.shape[1], imgs.shape[1])
    return [
        [index.terms[i] for _, i in top]
        for top in kernels.exact_top(rows.__getitem__, rows, imgs, top_m)
    ]


def filter_training(key: Iterable[str], candidates: Iterable[str]) -> EntitySets:
    """Training-mode partition: candidates absent from the key are negative."""
    key, candidates = frozenset(key), frozenset(candidates)
    return EntitySets.split(key, candidates, candidates - key)


def filter_inference(
    key,
    candidates,
    image_emb,
    index: EntityIndex,
    tau_sim: float = 0.2,
):
    """Inference-mode partition: filtered entities whose description
    embedding (from `index`, whatever its vocabulary) has a similarity to
    the image strictly above tau_sim join the positive set; the rest are
    negative.

    For one (d,) image embedding, `key` and `candidates` are its entity
    sets and the result is its EntitySets. For an (n, d) stack of images
    they are lists of n sets each, and the result is a list of n
    EntitySets. The images are normalized as one matrix and checked once,
    as classify_image_entities checks them, and every (image, filtered
    term) similarity is one row of a stack of (1, d) @ (d, 1) products,
    which runs np.dot's per-row BLAS dot.
    """
    if not (-1.0 <= tau_sim <= 1.0) or math.isnan(tau_sim):
        raise ValueError(f"tau_sim must be in [-1, 1], got {tau_sim}")
    one = np.ndim(image_emb) == 1
    keys, candidate_sets = ([key], [candidates]) if one else (key, candidates)
    keys = [frozenset(k) for k in keys]
    candidate_sets = [frozenset(c) for c in candidate_sets]
    imgs = l2_normalize_rows(image_emb)
    if not len(keys) == len(candidate_sets) == len(imgs):
        raise DimMismatch(
            f"{len(imgs)} images need as many key and candidate sets,"
            f" got {len(keys)} and {len(candidate_sets)}"
        )
    pairs = [(i, t) for i, (k, c) in enumerate(zip(keys, candidate_sets)) for t in sorted(c - k)]
    negative: list[list[str]] = [[] for _ in keys]
    if pairs:
        vectors = index.vectors([term for _, term in pairs])
        _check_width(vectors.shape[1], imgs.shape[1])
        owner = np.fromiter((i for i, _ in pairs), np.intp, len(pairs))
        scores = (vectors[:, None, :] @ imgs[owner, :, None])[:, 0, 0]
        for (i, term), below in zip(pairs, (scores <= tau_sim).tolist()):
            if below:
                negative[i].append(term)
    splits = [EntitySets.split(*parts) for parts in zip(keys, candidate_sets, negative)]
    return splits[0] if one else splits


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
