#!/usr/bin/env python
"""The unified client API: one front door for every deployment shape.

This walks ``repro.api`` end to end:

1. declare a deployment as data — a :class:`~repro.api.spec.DeploymentSpec`
   that round-trips through JSON (the same document the CLI's
   ``serve --spec`` loads) — and ``connect()`` it; the identical
   client code then runs against a plain store, a sharded router and a
   sharded+replicated deployment;
2. carry :class:`~repro.api.options.RequestOptions` with the requests:
   a cooperative **deadline** (partial results, expiry visible in the
   service telemetry), a **consistency** preference, and **pagination**;
3. page through a range result with an opaque cursor while mutations land
   concurrently — the concatenated pages still equal the first
   execution's result, because the cursor pins its snapshot;
4. print the uniform response envelope's attribution and the service
   stats that no longer special-case any layer.

Run with:  python examples/unified_client.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.api import DeploymentSpec, RequestOptions, connect, load_spec, save_spec
from repro.core.smartstore import SmartStoreConfig
from repro.service.cache import result_fingerprint
from repro.traces import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import RangeQuery


def main() -> None:
    files = msn_trace(scale=0.4, seed=29).file_metadata()
    config = SmartStoreConfig(num_units=8, seed=7, search_breadth=48)
    workdir = Path(tempfile.mkdtemp(prefix="repro-client-"))

    # -------------------------------------------------- 1. declarative specs
    specs = {
        "plain": DeploymentSpec(topology="plain", store=config),
        "sharded": DeploymentSpec(topology="sharded", store=config, shards=2),
        "sharded_replicated": DeploymentSpec(
            topology="sharded_replicated", store=config, shards=2, replicas=1
        ),
    }
    spec_path = workdir / "deployment.json"
    save_spec(specs["sharded_replicated"], spec_path)
    print(f"spec round-trips through JSON ({spec_path}):")
    print(json.dumps(load_spec(spec_path).to_dict(), indent=2)[:300], "...\n")

    generator = QueryWorkloadGenerator(files, seed=17)
    queries = (
        generator.point_queries(5, existing_fraction=0.8)
        + generator.range_queries(5, distribution="zipf")
        + generator.topk_queries(5, k=8, distribution="zipf")
    )

    # One client surface, three topologies, identical payloads.
    fingerprints = {}
    for name, spec in specs.items():
        with connect(spec, files) as client:
            fingerprints[name] = [
                result_fingerprint(client.execute(q).result) for q in queries
            ]
            print(f"{name:>20}: {client.execute(queries[0]).attribution}")
    assert fingerprints["plain"] == fingerprints["sharded"]
    assert fingerprints["plain"] == fingerprints["sharded_replicated"]
    print("all three topologies answer byte-identically through one Client\n")

    # ------------------------------------- 2 + 3. options: deadline & cursor
    wide = RangeQuery(("size",), (0.0,), (1e12,))
    with connect(specs["sharded_replicated"], files) as client:
        # Deadline: an impossible budget comes back partial, not wrong.
        partial = client.execute(wide, RequestOptions(deadline_s=0.0))
        print(
            f"deadline 0s: complete={partial.complete} "
            f"expired={partial.deadline_expired} files={len(partial.files)}"
        )
        print(
            "expiries in telemetry:",
            client.service.telemetry.deadline_expired,
        )

        # Consistency: relaxed reads on a caught-up deployment.
        relaxed = client.execute(wide, RequestOptions(consistency="any_replica"))
        print(f"any_replica read served {len(relaxed.files)} files\n")

        # Pagination under concurrent mutations: the cursor pins the
        # snapshot of its first page.
        reference = client.execute(wide)
        page = client.execute(wide, RequestOptions(page_size=40))
        collected = list(page.page.files)
        mutations = generator.mutation_stream(6, 4, 2)
        for kind, file in mutations:  # land between page fetches
            getattr(client, kind)(file)
        pages = 1
        while page.cursor is not None:
            page = client.execute(wide, RequestOptions(cursor=page.cursor))
            collected.extend(page.page.files)
            pages += 1
        assert [f.file_id for f in collected] == [
            f.file_id for f in reference.files
        ], "page concatenation must equal the unpaginated result"
        print(
            f"{pages} pages under {len(mutations)} concurrent mutations "
            f"concatenate to the pinned result ({len(collected)} files)"
        )
        live = client.execute(wide)
        print(
            "live result moved on meanwhile:",
            result_fingerprint(live.result) != result_fingerprint(reference.result),
        )

        # ------------------------------------------ 4. uniform stats surface
        stats = client.stats()
        print("\nuniform stats document keys:", sorted(stats))
        print("service totals:", stats["service"]["telemetry"]["total_requests"])


if __name__ == "__main__":
    main()
