#!/usr/bin/env python
"""The network front door: serve a deployment over TCP and dial it.

This walks ``repro.server`` end to end, inside one script:

1. **serve** — :func:`~repro.server.server.serve_spec` builds the
   deployment a :class:`~repro.api.spec.DeploymentSpec` declares and
   serves it on a loopback socket (the same code path as
   ``python -m repro serve``);
2. **dial** — ``connect("tcp://host:port")`` returns a
   :class:`~repro.server.remote.RemoteClient` that is a drop-in for the
   local client: same ``execute`` / ``pages`` / mutation surface, same
   ``Response`` envelope, and **byte-identical result fingerprints**;
3. **paginate and mutate over the wire** — opaque cursors and mutation
   receipts travel losslessly through the length-prefixed JSON frames.

Run with:  python examples/network_deployment.py
"""

from __future__ import annotations

from repro.api import DeploymentSpec, RequestOptions, connect
from repro.core.smartstore import SmartStoreConfig
from repro.server import serve_spec
from repro.service.cache import result_fingerprint
from repro.traces import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import RangeQuery


def main() -> None:
    files = msn_trace(scale=0.4, seed=29).file_metadata()
    config = SmartStoreConfig(num_units=8, seed=7, search_breadth=48)
    spec = DeploymentSpec(topology="sharded", store=config, shards=2)

    generator = QueryWorkloadGenerator(files, seed=17)
    queries = generator.range_queries(4) + generator.topk_queries(4, k=8)

    # ------------------------------------------- 1. local reference answers
    local = connect(spec, files)
    reference = [result_fingerprint(local.execute(q).result) for q in queries]
    local.close()

    # ------------------------------------------------- 2. serve + dial it
    server = serve_spec(spec, files)  # port 0 -> the OS picks a free port
    print(f"serving {server.client.topology} deployment at {server.address}")

    with connect(server.address) as remote:
        over_wire = [result_fingerprint(remote.execute(q).result) for q in queries]
        assert over_wire == reference, "wire serialization changed an answer!"
        print(f"{len(queries)} queries answered identically over TCP")

        # -------------------------------------- 3. pagination + a mutation
        scan = RangeQuery(("size",), (0.0,), (1e15,))
        full = remote.execute(scan)
        paged = []
        for page in remote.pages(scan, page_size=50):
            paged.append(len(page.files))
        assert sum(paged) == len(full.result.files)
        print(f"paginated scan: {sum(paged)} files in {len(paged)} pages")

        receipt = remote.delete(files[7]).receipt
        print(f"remote delete receipted: seq={receipt.seq} known={receipt.known}")

        network = remote.stats()["service"]["telemetry"]["network"]
        print(
            f"server telemetry: {network['requests_served']} requests, "
            f"{network['bytes_in']}B in / {network['bytes_out']}B out"
        )
    server.close()


if __name__ == "__main__":
    main()
