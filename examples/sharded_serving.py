"""Scaling out: a sharded LOVO system, snapshotted and served over /v1 HTTP.

Demonstrates the scatter-gather sharding subsystem end to end:

1. the same dataset is ingested into an unsharded and a 3-shard system, and
   the answers are shown to be bit-identical;
2. the sharded system is snapshotted (one manifest, one directory per shard)
   and warm-started back;
3. a replica is knocked out to show round-robin failover keeping every
   query answered;
4. the restored system is served over the versioned ``/v1`` HTTP API using
   the canonical ``QueryRequest`` wire shape.

Run with:  python examples/sharded_serving.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro import LOVO, LOVOConfig, QueryOptions, QueryRequest, ShardConfig
from repro.serve import ServingEngine
from repro.serve.http import make_server
from repro.video import make_bellevue

QUERY = "A red car driving in the center of the road"


def main() -> None:
    dataset = make_bellevue(num_videos=2, frames_per_video=120)

    # 1. Same data, two topologies.  Sharding is purely a config decision;
    #    the query API on top is identical.
    plain = LOVO(LOVOConfig())
    plain.ingest(dataset)
    sharded = LOVO(LOVOConfig(shard=ShardConfig(num_shards=3, partitioner="hash")))
    sharded.ingest(dataset)

    status = sharded.storage.backend_status()
    sizes = [shard["entities"] for shard in status["shards"]]
    print(f"Sharded backend: {status['num_shards']} shards, sizes {sizes}")

    request = QueryRequest(QUERY, QueryOptions(top_n=5))
    plain_hits = [(r.frame_id, r.score) for r in plain.query(request).results]
    sharded_hits = [(r.frame_id, r.score) for r in sharded.query(request).results]
    assert plain_hits == sharded_hits, "sharding changed the answers!"
    print(f"Sharded and unsharded answers are bit-identical ({len(plain_hits)} hits)")

    # 2. Snapshot the sharded system: one manifest, one directory per shard,
    #    restored with the per-shard reads fanned out in parallel.
    snapshot_dir = Path(tempfile.mkdtemp()) / "sharded-snapshot"
    sharded.save(snapshot_dir)
    restored = LOVO.load(snapshot_dir)
    restored_hits = [(r.frame_id, r.score) for r in restored.query(request).results]
    assert restored_hits == sharded_hits, "snapshot round trip changed the answers!"
    print(f"Snapshot round trip preserved the answers ({snapshot_dir})")

    # 3. Replica failover: mark shard 0's only replica unhealthy and back.
    #    With num_replicas > 1 (or add_replica) the router rotates round-robin
    #    and fails over automatically when a replica throws.
    group = restored.storage.collection.replica_groups[0]
    replica = group.replicas[0]
    group.mark_unhealthy(replica)
    print(f"Replica topology after outage: {json.dumps(group.status())}")
    group.mark_healthy(replica)
    assert [
        (r.frame_id, r.score) for r in restored.query(request).results
    ] == sharded_hits, "failover bookkeeping changed the answers!"

    # 4. Serve the restored sharded system over the versioned HTTP API.
    with ServingEngine(restored) as engine:
        server = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            http_request = urllib.request.Request(
                f"http://{host}:{port}/v1/query",
                data=json.dumps(request.to_dict()).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(http_request, timeout=30) as response:
                payload = json.load(response)
            http_hits = [(r["frame_id"], r["score"]) for r in payload["results"]]
            assert http_hits == sharded_hits, "HTTP round trip changed the answers!"
            print(f"\nPOST /v1/query -> {payload['num_results']} results")
            for rank, (frame_id, score) in enumerate(http_hits[:5], start=1):
                print(f"  #{rank} frame={frame_id} score={score:.3f}")

            with urllib.request.urlopen(
                f"http://{host}:{port}/v1/healthz", timeout=30
            ) as response:
                health = json.load(response)
            backend = health["backend"]
            print(
                f"\nGET /v1/healthz -> status={health['status']} "
                f"api={health['api_version']} shards={backend['num_shards']}"
            )
        finally:
            server.shutdown()
            server.server_close()
    print("\nSharded build -> snapshot -> warm start -> /v1 serving: all bit-identical.")


if __name__ == "__main__":
    main()
