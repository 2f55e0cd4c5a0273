#!/usr/bin/env python
"""Durable ingest: the WAL-backed write path, compaction and crash recovery.

This walks the full lifecycle of the online write path:

1. build a deployment and wrap it in an :class:`IngestPipeline` with a
   write-ahead log (fsync batched every 16 records);
2. stream inserts/deletes/modifies through the pipeline and show that
   queries reflect every mutation immediately (read-your-writes over the
   version chains, before any structural update);
3. let the compactor drain the staged mutations into the semantic R-tree
   and verify no answer changed;
4. checkpoint (segment snapshot publish + WAL truncation), mutate some
   more, then simulate a crash by tearing the log's tail and recover from
   the snapshot plus the surviving log tail — the restored store answers
   exactly like the surviving prefix.

Run with:  python examples/durable_ingest.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    IngestPipeline,
    SmartStore,
    SmartStoreConfig,
    WriteAheadLog,
    recover_from_storage,
)
from repro.service.cache import result_fingerprint
from repro.storage import SegmentStore
from repro.traces import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery


def probe(store, queries):
    return [result_fingerprint(store.execute(q)) for q in queries]


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-durable-"))
    wal_path = workdir / "wal.jsonl"
    snap_dir = workdir / "snap"

    print("Building SmartStore over the synthetic MSN trace ...")
    files = msn_trace(scale=0.4).file_metadata()
    config = SmartStoreConfig(num_units=12, seed=7, search_breadth=64)
    store = SmartStore.build(files, config)
    print(f"  {len(files)} files on {store.cluster.num_units} units")

    pipeline = IngestPipeline(store, WriteAheadLog(wal_path, fsync_every=16))
    pipeline.attach_storage(SegmentStore(snap_dir))
    pipeline.checkpoint()
    print(f"  WAL at {wal_path}, segment snapshot at {snap_dir}")

    # ---- 1. stream mutations; reads see them immediately -----------------
    generator = QueryWorkloadGenerator(files, seed=11)
    stream = generator.mutation_stream(n_inserts=20, n_deletes=10, n_modifies=5)
    for kind, f in stream:
        getattr(pipeline, kind)(f)
    inserted = next(f for kind, f in stream if kind == "insert")
    deleted = next(f for kind, f in stream if kind == "delete")
    print(f"\nApplied {len(stream)} mutations (staged: {len(pipeline.overlay)})")
    print(f"  staged insert visible : {store.execute(PointQuery(inserted.filename)).found}")
    print(f"  staged delete masked  : {not store.execute(PointQuery(deleted.filename)).found}")

    # ---- 2. compaction changes no answer ---------------------------------
    queries = QueryWorkloadGenerator(
        pipeline.materialized_files(), seed=13
    ).mixed_complex_queries(6, 6)
    before = probe(store, queries)
    applied = pipeline.compactor.drain()
    after = probe(store, queries)
    print(f"\nCompactor drained {applied} change(s); "
          f"answers unchanged: {before == after}")
    print(f"  compaction stats: {pipeline.compactor.stats.as_dict()}")

    # ---- 3. crash and recover --------------------------------------------
    more = generator.mutation_stream(n_inserts=8, n_deletes=0, n_modifies=0)
    for kind, f in more:
        getattr(pipeline, kind)(f)
    live = probe(store, queries)
    pipeline.close()

    data = wal_path.read_bytes()
    wal_path.write_bytes(data[:-37])  # tear the final record mid-write
    print("\nSimulated crash: WAL tail torn mid-record")

    recovered, report = recover_from_storage(snap_dir, wal_path=wal_path)
    survived = report.wal_records_replayed
    total = len(stream) + len(more)
    print(f"  recovery replayed {survived}/{total} logged mutation(s) "
          f"(the torn record is lost, as the durability contract says)")

    # The uncrashed reference: apply the same surviving prefix to a fresh
    # deployment; the recovered store must answer identically.
    ref = IngestPipeline(SmartStore.build(files, config))
    for kind, f in (stream + more)[:survived]:
        getattr(ref, kind)(f)
    print(f"  recovered answers match the uncrashed reference: "
          f"{probe(recovered.store, queries) == probe(ref.store, queries)}")
    print(f"  recovered store keeps serving: "
          f"{recovered.store.execute(PointQuery(inserted.filename)).found}")
    ref.close()
    recovered.close()


if __name__ == "__main__":
    main()
