"""Candidate budget curve: answer quality and latency against the rerank's frame budget.

The rerank scores every candidate key frame the fast search hands it, up to
``QueryConfig.max_candidate_frames`` (paper §VII-D), and its cost is about
linear in that budget.  This benchmark sweeps the budget over {60, 40, 30,
20} for exact flat search and for IVF-PQ, on the perfbench base corpus
(Bellevue 2x300 + Cityscapes 2x300 frames) under the library's default
configuration otherwise.  Per cell it records:

* Table II quality: mean AveP over the corpus's Table II queries that have
  ground truth (perfbench's ``quality``), and over the relational ones alone
  (Q2.1 "in the center of the road", Q2.2 "side by side");
* the warm serial p50 of 16 distinct relation-free texts (perfbench's text
  shape) and of 16 distinct relational texts, after one warm-up query.

The library default (flat, 30 frames) must keep mean quality within 1% of
flat at the paper's 60 frames.  Results go to
``benchmarks/results/candidate_budget.txt``.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro import LOVO, LOVOConfig
from repro.config import IndexConfig, QueryConfig
from repro.eval.metrics import evaluate_results
from repro.eval.reporting import format_table
from repro.eval.workloads import build_ground_truth, queries_for_dataset

from conftest import PAPER_MAX_CANDIDATE_FRAMES, report

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import inputs  # noqa: E402  (the corpus and vocabulary perfbench times)

BUDGETS = (60, 40, 30, 20)
FAMILIES = ("flat", "ivfpq")
RELATIONAL = ("Q2.1", "Q2.2")
TIMED_TEXTS = 16
SEED = 1
#: Largest mean-quality loss the default budget may cost against the paper's.
QUALITY_BOUND = 0.01


def relational_texts(seed: int, count: int) -> List[str]:
    """Distinct texts over perfbench's vocabulary that each name a relation."""
    combos = list(itertools.product(inputs.COLOURS, inputs.OBJECTS, inputs.PLACES))
    random.Random(seed).shuffle(combos)
    shapes = itertools.cycle((
        "A {colour} {obj} in the center of the {place}.",
        "A {colour} {obj} side by side with another {obj} on the {place}.",
    ))
    return [
        shape.format(colour=colour, obj=obj, place=place)
        for shape, (colour, obj, place) in zip(shapes, combos[:count])
    ]


def serial_p50_ms(system: LOVO, texts: List[str]) -> float:
    latencies = []
    for text in texts:
        started = time.perf_counter()
        system.query(text)
        latencies.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(latencies)


def measure_cell(corpus, index_type: str, budget: int, plain: List[str],
                 relational: List[str]) -> Dict[str, float]:
    config = LOVOConfig(
        index=IndexConfig(index_type=index_type),
        query=QueryConfig(max_candidate_frames=budget),
    )
    system = LOVO(config)
    for dataset in corpus:
        system.ingest(dataset)

    scores: Dict[str, float] = {}
    for dataset in corpus:
        scored = [
            (spec, truth) for spec in queries_for_dataset(dataset.name)
            if (truth := build_ground_truth(dataset, spec))
        ]
        responses = system.query_batch([spec.text for spec, _ in scored]).responses
        for (spec, truth), response in zip(scored, responses):
            scores[spec.query_id] = evaluate_results(response.results, truth)

    system.query(inputs.TextPool(SEED + 1).take(1)[0])  # warm-up, not timed
    return {
        "quality": statistics.fmean(scores.values()),
        "relational": statistics.fmean(scores[query_id] for query_id in RELATIONAL),
        "plain_p50_ms": serial_p50_ms(system, plain),
        "relational_p50_ms": serial_p50_ms(system, relational),
    }


def run_sweep() -> Dict[str, Dict[int, Dict[str, float]]]:
    corpus = inputs.base_corpus()
    plain = inputs.TextPool(SEED).take(TIMED_TEXTS)
    relational = relational_texts(SEED, TIMED_TEXTS)
    return {
        index_type: {
            budget: measure_cell(corpus, index_type, budget, plain, relational)
            for budget in BUDGETS
        }
        for index_type in FAMILIES
    }


def test_candidate_budget(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    reference = results["flat"][PAPER_MAX_CANDIDATE_FRAMES]
    rows = []
    for index_type, cells in results.items():
        for budget, cell in cells.items():
            rows.append([
                index_type,
                budget,
                f"{cell['quality']:.6f}",
                f"{cell['quality'] / reference['quality'] - 1.0:+.2%}",
                f"{cell['relational']:.6f}",
                f"{cell['relational'] / reference['relational'] - 1.0:+.2%}",
                f"{cell['plain_p50_ms']:.1f}",
                f"{cell['relational_p50_ms']:.1f}",
            ])
    table = format_table(
        ["index", "budget", "quality", "vs flat@60", "relational", "vs flat@60",
         "p50 ms", "relational p50 ms"],
        rows,
        title=(
            "Candidate budget: Table II quality (all scored queries; relational = "
            f"{' + '.join(RELATIONAL)}) and warm serial p50 over {TIMED_TEXTS} distinct "
            "texts each, perfbench base corpus, default configuration otherwise"
        ),
    )
    report("candidate_budget", table)

    default = QueryConfig().max_candidate_frames
    chosen = results[IndexConfig().index_type][default]
    assert chosen["quality"] >= (1.0 - QUALITY_BOUND) * reference["quality"]
