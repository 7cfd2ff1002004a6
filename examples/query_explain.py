"""The quality layer end to end: EXPLAIN and shadow recall.

Walks the answer-quality observability surface on a sharded system:

1. serve a query with ``options.explain=true`` and print its EXPLAIN report
   — per-stage costs, the search parameters the pass actually used,
   candidates contributed per shard, score margins, and provenance;
2. fetch the same report back from ``GET /v1/explain/<trace_id>``;
3. shadow-sample every served query (``shadow_sample_rate=1.0`` here, 1-5%
   in production) and read the online recall@k / score-margin estimates the
   background exact re-scorer produces.

Run with:  python examples/query_explain.py
"""

from __future__ import annotations

import json
import threading
import urllib.request

from repro import LOVO, LOVOConfig, ObsConfig, ShardConfig
from repro.obs import parse_exposition
from repro.serve import ServingEngine
from repro.serve.http import make_server
from repro.video import make_bellevue

QUERIES = [
    "A red car driving in the center of the road",
    "a person walking",
    "a bus near a person",
]


def http_json(base: str, method: str, path: str, body: dict | None = None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def print_explain(report: dict) -> None:
    total_ms = sum(stage["total_ms"] for stage in report["stages"].values())
    print(f"  query {report['query']!r}  trace {report['trace_id'][:12]}…")
    print(f"  params: {report['params']}")
    print("  stages:")
    for name, stage in sorted(
        report["stages"].items(), key=lambda item: -item[1]["total_ms"]
    ):
        share = 100.0 * stage["total_ms"] / total_ms if total_ms else 0.0
        print(f"    {name:<14} {stage['total_ms']:8.2f} ms "
              f"({share:4.1f}%, {stage['calls']:.0f} call(s))")
    for shard in report["candidates"].get("per_shard", ()):
        print(f"  shard {shard['shard']}: {shard.get('candidates', '?')} "
              f"candidates in {shard['duration_ms']:.2f} ms "
              f"({shard['replica']}, {shard['outcome']})")
    print(f"  score margins: {report['score_margins']}")
    print(f"  provenance: {report['provenance']}")


def main() -> None:
    # Sharded, with every served query shadow-sampled (rate 1.0).
    config = LOVOConfig(
        shard=ShardConfig(num_shards=2),
        obs=ObsConfig(shadow_sample_rate=1.0),
    )
    system = LOVO(config)
    system.ingest(make_bellevue(num_videos=1, frames_per_video=150))

    engine = ServingEngine(system).start()
    server = make_server(engine, host="127.0.0.1", port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"Serving on {base}")

    try:
        # 1. EXPLAIN rides inline on the response when requested.
        payloads = [
            http_json(base, "POST", "/v1/query",
                      {"query": text, "options": {"explain": True}})
            for text in QUERIES
        ]
        print("\nEXPLAIN of the first request:")
        print_explain(payloads[0]["explain"])

        # 2. Reports are retained, keyed by trace id.
        retained = http_json(
            base, "GET", f"/v1/explain/{payloads[0]['trace_id']}"
        )
        assert retained["trace_id"] == payloads[0]["trace_id"]
        print(f"\nRetained reports: "
              f"{http_json(base, 'GET', '/v1/stats')['explain']['stored']}")

        # 3. The shadow sampler re-ran every query through an exact flat
        #    scan on its background worker; flush, then read the estimates.
        assert engine.quality is not None
        engine.quality.flush(timeout=30.0)
        quality = http_json(base, "GET", "/v1/stats")["quality"]
        for family, estimate in quality["families"].items():
            print(f"\nShadow recall ({family}, k={quality['recall_k']}): "
                  f"recall@k {estimate['recall_at_k']:.3f}, "
                  f"top-1 margin {estimate['score_margin']:.4f}, "
                  f"rank displacement {estimate['rank_displacement']:.2f} "
                  f"over {estimate['samples']} sample(s)")
        scrape = parse_exposition(
            urllib.request.urlopen(base + "/v1/metrics").read().decode()
        )
        for sample in scrape["lovo_recall_shard_at_k"]["samples"]:
            print(f"  shard {sample['labels']['shard']}: "
                  f"recall@k {sample['value']:.3f}")
    finally:
        server.shutdown()
        server.server_close()
        engine.stop()


if __name__ == "__main__":
    main()
