"""Workload definitions for the pipeline benchmark.

A workload fixes the shape of the generated inputs (store size, dimension,
vocabulary, instance count per pass) and the pipeline config. The seed
only picks words and vectors inside that shape; how long a run measures is
set by the caller, not here.

Why each workload exists:

* infer-vocab -- inference with a 300-term vocabulary on a 20k store.
  classify_image_entities re-embeds every vocabulary term for every
  instance, so entity embedding dominates while the 20 MB scan matrix
  stays in cache. An entity index shows its gain here.
* infer-store -- inference on a 200k store (a 205 MB float64 matrix)
  with a 40-term vocabulary. The exact scan dominates run time and the
  Python-loop store load dominates set-up, so a batched scan, a float32
  copy or a prebuilt index pays off (or costs) here; an entity index is
  bypassed.
* train-gate -- training mode on a 20k store with multi-word synonyms.
  About a third of instances fail the quality gate; the rest spread their
  time over retrieval, decode, negative embedding, gate and fusion, so an
  optimisation aimed at one stage should show no change here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    store_size: int
    dim: int
    n_terms: int
    n_synonyms: int
    instances: int
    k: int = 9
    top_m: int = 5
    # (strategy, tau_neg). With L=4 prefix tokens every softmax weight sits
    # near 0.25, so a threshold just above it selects some tokens.
    suppression: tuple = ("fixed-threshold", 0.251)
    gate_fail_frac: float = 0.0
    # sampled instances whose retrieval is checked against brute_force_topk
    oracle_samples: int = 8
    # leading instances re-run through a `negsup run` subprocess
    cli_slice: int = 8

    def config(self, seed: int) -> dict:
        """PipelineConfig JSON for this workload (also the --config file)."""
        strategy, tau_neg = self.suppression
        return {
            "mode": self.mode,
            "retrieval_k": self.k,
            "top_m": self.top_m,
            "seed": seed,
            "suppression": {"strategy": strategy, "tau_neg": tau_neg, "lambda": 0.3},
        }

    def tiny(self) -> "Workload":
        """Same shape at a size small enough for the self-test."""
        return replace(
            self,
            store_size=600,
            n_terms=min(self.n_terms, 40),
            n_synonyms=min(self.n_synonyms, 10),
            instances=12,
            oracle_samples=3,
            cli_slice=4,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="infer-vocab",
            mode="inference",
            store_size=20_000,
            dim=128,
            n_terms=300,
            n_synonyms=60,
            instances=160,
        ),
        Workload(
            name="infer-store",
            mode="inference",
            store_size=200_000,
            dim=128,
            n_terms=40,
            n_synonyms=8,
            instances=160,
            oracle_samples=2,
        ),
        Workload(
            name="train-gate",
            mode="training",
            store_size=20_000,
            dim=128,
            n_terms=150,
            n_synonyms=40,
            instances=300,
            suppression=("top-k", None),
            gate_fail_frac=1 / 3,
        ),
    )
}
