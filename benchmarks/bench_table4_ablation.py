"""Table IV — ablation study: w/o rerank, w/o ANNS, w/o key frames.

Reproduces the ablation grid on queries Q1.1/Q1.2 (Cityscapes) and Q2.1/Q2.2
(Bellevue): query accuracy (AveP), fast-search latency, and rerank latency for
the full system and each ablated variant, plus the storage impact of dropping
key-frame selection.
"""

from __future__ import annotations

from typing import Dict

from repro import LOVO
from repro.config import KeyframeConfig
from repro.eval.metrics import evaluate_results
from repro.eval.reporting import format_table
from repro.eval.workloads import build_ground_truth, query_by_id

from conftest import bench_lovo_config, report

QUERIES = ["Q1.1", "Q1.2", "Q2.1", "Q2.2"]

VARIANTS = {
    "LOVO": {},
    "w/o Rerank": {"query": bench_lovo_config(rerank_enabled=False).query},
    "w/o ANNS": {"query": bench_lovo_config(ann_enabled=False).query},
    "w/o Key frame": {"keyframes": KeyframeConfig(strategy="all")},
}


def run_ablation(bench_env) -> Dict[str, Dict[str, Dict[str, float]]]:
    datasets = {
        "cityscapes": bench_env.dataset("cityscapes"),
        "bellevue": bench_env.dataset("bellevue"),
    }
    # The w/o-key-frame variant indexes every frame; keep its dataset smaller
    # so the benchmark stays fast, as the paper notes the ablation is about
    # storage and fast-search latency, not accuracy.
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    ground_truth = {
        query_id: build_ground_truth(datasets[query_by_id(query_id).dataset], query_by_id(query_id))
        for query_id in QUERIES
    }

    for variant_name, overrides in VARIANTS.items():
        config = bench_lovo_config().with_overrides(**overrides)
        systems = {}
        for dataset_name, dataset in datasets.items():
            system = LOVO(config)
            system.ingest(dataset)
            systems[dataset_name] = system
        results[variant_name] = {}
        for query_id in QUERIES:
            spec = query_by_id(query_id)
            system = systems[spec.dataset]
            response = system.query(spec.text)
            results[variant_name][query_id] = {
                "avep": evaluate_results(response.results, ground_truth[query_id]),
                "fast_search": response.timings.get("fast_search", 0.0),
                "rerank": response.timings.get("rerank", 0.0),
                "entities": system.num_entities,
            }
    return results


def test_table4_ablation(benchmark, bench_env):
    results = benchmark.pedantic(run_ablation, args=(bench_env,), rounds=1, iterations=1)

    rows = []
    for variant_name, per_query in results.items():
        for metric in ("avep", "fast_search", "rerank"):
            row = [variant_name, metric]
            for query_id in QUERIES:
                value = per_query[query_id][metric]
                if metric == "avep":
                    row.append(f"{value:.2f}")
                elif metric == "rerank" and value == 0.0:
                    row.append("-")
                else:
                    row.append(f"{value:.4f}")
            rows.append(row)
    table = format_table(
        ["variant", "metric"] + QUERIES,
        rows,
        title="Table IV: ablation of rerank, ANNS, and key-frame selection",
    )
    report("table4_ablation", table)

    # Shape assertions from the paper:
    # * the rerank matters most for the complex relational query (Q2.2);
    # * dropping ANNS keeps accuracy essentially unchanged (the latency gap
    #   the paper reports at 10^7-entity scale is swept in Fig. 11(b); at
    #   this benchmark's ~10^4-entity index a single exact scan is cheap, so
    #   only the accuracy claim is asserted here — see EXPERIMENTS.md);
    # * removing key-frame selection inflates the index and fast-search time.
    full = results["LOVO"]
    no_rerank = results["w/o Rerank"]
    assert full["Q2.2"]["avep"] >= no_rerank["Q2.2"]["avep"]

    no_anns = results["w/o ANNS"]
    mean_avep_full = sum(full[q]["avep"] for q in QUERIES) / len(QUERIES)
    mean_avep_no_anns = sum(no_anns[q]["avep"] for q in QUERIES) / len(QUERIES)
    assert abs(mean_avep_full - mean_avep_no_anns) < 0.15
    mean_fast_full = sum(full[q]["fast_search"] for q in QUERIES) / len(QUERIES)

    no_keyframes = results["w/o Key frame"]
    assert no_keyframes["Q1.1"]["entities"] > full["Q1.1"]["entities"]
    mean_fast_no_keyframes = sum(no_keyframes[q]["fast_search"] for q in QUERIES) / len(QUERIES)
    assert mean_fast_no_keyframes > mean_fast_full
