"""The four workloads: what each deploys, sends, measures and peels.

Method, all workloads: closed loop, one generator thread, one connection.
A run is one warm-up plus measured passes of a fixed op count (so counts
repeat exactly); pass *i* draws fresh inputs from ``seed + i``; a metric
is the median over the measured passes with its spread beside it.  Every
store is built with ``search_breadth=64`` (exact answers) and the default
``ServiceConfig`` (result cache on, capacity 2,048).

``run_workload`` is the one entry point: untraced it produces the
end-to-end metrics, traced it produces the per-layer peel.
"""

from __future__ import annotations

import gc
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.api import DeploymentSpec, connect, save_spec
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.file_metadata import FileMetadata
from repro.persistence.jsonl import save_files
from repro.server.protocol import WireCodec, response_from_wire, response_to_wire
from repro.storage import StorageConfig
from repro.workloads.types import PointQuery

from .calibrate import SpeedMeter, on_reference_machine
from .hosts import ServerProcess, deployment_spec, spawn_host
from .inputs import (
    ALL_READS,
    MUTATION_KINDS,
    READ_KINDS,
    RYW,
    Fingerprint,
    MixedShape,
    Op,
    distinct_reads,
    hot_pool,
    hot_reads,
    make_corpus,
    mixed_passes,
)
from .measure import (
    PassResult,
    latency_metric,
    reduce_outs,
    run_pass,
    set_up_repeatedly,
    summarise_passes,
    timing_metric,
    verify_pass,
)
from .oracle import Oracle, Tally
from .peel import (
    CORE,
    Deeper,
    MetricDoc,
    cache_counts,
    core_metrics,
    metric,
    peel_client,
    prime_cache,
    switch_cost_ratio,
    trace_verdict,
)
from .spans import SpanRecorder
from .stats import median

__all__ = ["RunConfig", "RunResult", "run_workload"]

#: Set-up is repeated this often in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class RunConfig:
    workload: str
    seed: int
    trace: bool
    workdir: Path  # scratch for WALs, snapshots, specs; removed by the caller
    results_dir: Path  # where trace_<workload>.jsonl goes
    seconds: Optional[float] = None  # measure this long ...
    passes: Optional[int] = None  # ... or exactly this many passes
    quick: bool = False

    def planned(self, nominal_s: float, least: int = 2) -> int:
        """Measured passes of this run: as asked (``--passes``), else as
        many as fill ``seconds`` at ``nominal_s`` seconds a pass (what one
        takes on the reference machine).  A count fixed before the run
        starts, not a clock watched during it: op counts, sample sizes and
        the state the passes build up in the store are then the same in
        every run — on a slow day the run takes longer instead of
        measuring something else."""
        if self.passes is not None:
            return self.passes
        return max(least, round((self.seconds or 0.0) / nominal_s))

    def scaled(self, n: int) -> int:
        """Op counts shrink tenfold in ``--quick`` mode."""
        return max(1, n // 10) if self.quick else n

    @property
    def setups(self) -> int:
        """Traced and ``--quick`` runs set up once: neither reports a
        ``setup_s`` anyone compares."""
        return 1 if self.trace or self.quick else SETUP_REPEATS


@dataclass
class RunResult:
    metrics: Dict[str, MetricDoc]
    tally: Tally
    detail: Dict[str, Any] = field(default_factory=dict)


def store_config(units: int) -> SmartStoreConfig:
    return SmartStoreConfig(num_units=units, search_breadth=64)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_of(files: Sequence[FileMetadata]) -> PointQuery:
    """The first request a fresh deployment answers (ends ``setup_s``)."""
    return PointQuery(files[0].filename)


def answering(spec: DeploymentSpec, files: Sequence[FileMetadata]) -> Any:
    """A fresh client of ``spec`` that has answered its first request."""
    client = connect(spec, files)
    client.execute(probe_of(files))
    return client


# ---------------------------------------------------------------------------- read-only, in-process
@dataclass
class ReadPlan:
    """Inputs of a read-only workload on a plain in-process deployment."""

    files: List[FileMetadata]
    spec: DeploymentSpec
    warmup: List[Op]
    make_pass: Callable[[int], List[Op]]
    primer: List[Op]  # queries the cache holds before every measured pass
    pass_s: float  # what one pass takes on the reference machine
    fingerprint: Fingerprint
    corpus_gen_s: float
    tracing_cost: bool = False  # also measure ``repro.obs`` tracing on / off


def _third(counts: Sequence[int]) -> List[int]:
    """A warm-up is a third of a pass's reads."""
    return [max(1, n // 3) for n in counts]


def _scale(cfg: RunConfig, full: float) -> float:
    return 2.0 if cfg.quick else full  # 5,000 files in --quick mode


def plan_scan_plain(cfg: RunConfig) -> ReadPlan:
    files, gen_s = make_corpus(_scale(cfg, 20.0))
    counts = [cfg.scaled(n) for n in (600, 300, 300)]
    seen: Set[str] = set()
    fingerprint = Fingerprint()
    fingerprint.add_corpus(files)

    def make_pass(index: int) -> List[Op]:
        ops = distinct_reads(files, cfg.seed + index, counts, seen)
        fingerprint.add_ops(ops)
        return ops

    warmup = distinct_reads(files, cfg.seed - 1, _third(counts), seen)
    spec = DeploymentSpec(topology="plain", store=store_config(60))
    return ReadPlan(files, spec, warmup, make_pass, [], 2.6, fingerprint, gen_s, tracing_cost=True)


def plan_hot_cached(cfg: RunConfig) -> ReadPlan:
    files, gen_s = make_corpus(_scale(cfg, 20.0))
    pool = hot_pool(files, cfg.seed, (256, 128, 128))
    per_pass = cfg.scaled(30_000)
    fingerprint = Fingerprint()
    fingerprint.add_corpus(files)
    fingerprint.add_ops(pool)

    def make_pass(index: int) -> List[Op]:
        ops, picks = hot_reads(pool, cfg.seed + index, per_pass)
        fingerprint.add_array(picks)
        return ops

    spec = DeploymentSpec(topology="plain", store=store_config(60))
    # Warm-up touches every pool entry once, so the measured passes are
    # hits from their first op on.
    return ReadPlan(files, spec, list(pool), make_pass, list(pool), 2.1, fingerprint, gen_s)


def run_reads_in_process(cfg: RunConfig, plan: ReadPlan) -> RunResult:
    started = perf_counter()
    oracle = Oracle(plan.files)
    oracle_s = perf_counter() - started
    if cfg.trace:
        return peel_reads_in_process(cfg, plan, oracle, oracle_s)

    meter = SpeedMeter()
    client, setups = set_up_repeatedly(
        lambda _attempt: answering(plan.spec, plan.files), cfg.setups, meter
    )
    tally = Tally()
    passes: List[PassResult] = []
    try:
        run_pass(client, plan.warmup, meter)
        for index in range(cfg.planned(plan.pass_s)):
            ops = plan.make_pass(index)
            result = run_pass(client, ops, meter)
            result.outs = reduce_outs(ops, result.outs)
            started = perf_counter()
            verify_pass(oracle, ops, result.outs, tally)
            oracle_s += perf_counter() - started
            result.outs = []
            passes.append(result)
    finally:
        client.close()
    metrics = summarise_passes(passes)
    metrics["setup_s"] = timing_metric(setups)
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    return finish(metrics, tally, plan.fingerprint, passes, plan.corpus_gen_s, oracle_s, meter)


def _harness_costs(
    files: Sequence[FileMetadata], store: SmartStoreConfig, gen_s: float, oracle_s: float
) -> Dict[str, MetricDoc]:
    """``SmartStore.build`` alone on the corpus, and what the harness
    itself cost (never to be mistaken for the program's time)."""
    started = perf_counter()
    SmartStore.build(files, store)
    build_s = perf_counter() - started
    gc.collect()
    return {
        "core.build_s": metric(build_s, "s"),
        "bench.corpus_gen_s": metric(gen_s, "s"),
        "bench.oracle_s": metric(oracle_s, "s"),
    }


def finish(
    metrics: Dict[str, MetricDoc],
    tally: Tally,
    fingerprint: Fingerprint,
    passes: Sequence[PassResult],
    corpus_gen_s: float,
    oracle_s: float,
    meter: SpeedMeter,
) -> RunResult:
    """Put every time and rate not yet there on the reference machine
    (by the run's median speed) and add what every run reports."""
    on_reference_machine(metrics, meter.speed)
    metrics["bench.machine_speed"] = metric(
        meter.speed, "ratio", samples=len(meter.samples)
    )
    metrics["recall"] = metric(tally.recall, "ratio", samples=len(tally.recalls))
    metrics["failed_ratio"] = metric(tally.failed_ratio, "ratio")
    detail = {
        "passes": len(passes),
        "ops_per_pass": [p.ops for p in passes],
        "timed_s": [p.wall_s for p in passes],
        "input_sha256": fingerprint.hexdigest(),
        "corpus_gen_s": corpus_gen_s,
        "oracle_s": oracle_s,
        "failures": tally.failures,
    }
    return RunResult(metrics, tally, detail)


# ---------------------------------------------------------------------------- the per-layer peel
def peel_reads_in_process(
    cfg: RunConfig, plan: ReadPlan, oracle: Oracle, oracle_s: float
) -> RunResult:
    tally = Tally()
    meter = SpeedMeter()
    client = connect(plan.spec, plan.files)
    try:
        run_pass(client, plan.warmup, meter)
        ops = plan.make_pass(0)
        recorder = SpanRecorder(4 * len(ops))
        peel, reference, layer = peel_client(
            client, ops, plan.primer, recorder, meter, CORE, client.store.execute
        )
        layer.update(core_metrics(peel))
        layer["read_p99_ms"] = latency_metric([reference], ALL_READS, tail=99.0)
        reference.outs = reduce_outs(ops, reference.outs)
        started = perf_counter()
        verify_pass(oracle, ops, reference.outs, tally)
        oracle_s += perf_counter() - started

        # Side measurements take half a pass each: enough for a ratio.
        half = ops[: len(ops) // 2]
        queries = [query for _kind, query in half]
        prime_cache(client.service, plan.primer)
        started = perf_counter()
        for at in range(0, len(queries), 64):
            client.execute_many(queries[at : at + 64])
        layer["service.batch_ops_per_s"] = metric(
            len(queries) / (perf_counter() - started), "1/s"
        )

        if plan.tracing_cost:
            ratio = switch_cost_ratio(
                client, half, plan.primer, lambda on: obs.configure(tracing=on), meter
            )
            obs.get_tracer().collector.clear()
            layer["obs.tracing_overhead_ratio"] = metric(ratio, "ratio")
    finally:
        client.close()
    layer.update(_harness_costs(plan.files, plan.spec.store, plan.corpus_gen_s, oracle_s))
    recorder.write(cfg.results_dir / f"trace_{cfg.workload}.jsonl", cfg.workload)
    result = finish(
        layer, tally, plan.fingerprint, [reference], plan.corpus_gen_s, oracle_s, meter
    )
    result.detail["trace"] = trace_verdict(peel)
    result.detail["spans"] = len(recorder)
    return result


# ---------------------------------------------------------------------------- ingest_restart
#: Flush policy of the durable workload, stated: one fsync per 32 appends.
FSYNC_EVERY = 32

#: Share of a time budget phase A gets; the restarts get the rest.
PHASE_A_SHARE = 0.65

#: What a phase-A pass and a restart with its cold reads take on the
#: reference machine (seconds).
PASS_A_S = 2.5
RESTART_S = 3.5

#: Restarts of a fixed-pass run (a time-budgeted run does at least 3).
RESTARTS = 7


def _as_pass(record: Dict[str, Any]) -> PassResult:
    return PassResult(
        record["kinds"], record["latencies"], record["cpu"], record["wall_s"], record["outs"],
        speeds=record["speeds"],
    )


def _cold_reads(
    files: Sequence[FileMetadata],
    written: Sequence[FileMetadata],
    seed: int,
    counts: Sequence[int],
) -> List[Op]:
    """One restart's reads; every second point query asks for a file
    phase A wrote (so acknowledged mutations are looked for by name)."""
    rng = np.random.default_rng(seed)
    ops = distinct_reads(files, seed, counts, set())
    for at, (kind, _query) in enumerate(ops):
        if kind == "point" and at % 2 and written:
            target = written[int(rng.integers(len(written)))]
            ops[at] = ("point", PointQuery(target.filename))
    return ops


def _durable_prefix(base: Tuple[int, int], acks: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """``(mutations, wal_bytes)`` of the tail that reached the disk: up to
    the last ack that saw the WAL's fsync count rise (the fsync runs
    inside that append, so the log's size at that ack is what was synced)."""
    durable, size = 0, base[1]
    syncs = base[0]
    for at, (seen, wal_bytes) in enumerate(acks):
        if seen > syncs:
            durable, size, syncs = at + 1, wal_bytes, seen
    return durable, size


def _check_durability(
    tail: Sequence[Op], answers: Sequence[Any], tally: Tally
) -> None:
    """Every acknowledged-and-synced tail mutation must be visible."""
    for (kind, file), answer in zip(tail, answers):
        tally.attempted += 1
        if answer.error is not None:
            tally.fail(f"durability probe for {file.path!r}: {answer.error}")
            continue
        record = answer.records.get(file.file_id)
        if kind == "delete":
            if record is not None:
                tally.fail(f"acked delete of {file.path!r} lost in the restart")
        elif record != file.attributes:
            tally.fail(f"acked {kind} of {file.path!r} lost in the restart")


def run_ingest_restart(cfg: RunConfig, script: Path, src: Path) -> RunResult:
    files, gen_s = make_corpus(_scale(cfg, 8.0))
    fingerprint = Fingerprint()
    fingerprint.add_corpus(files)
    shape = MixedShape(
        mutations=cfg.scaled(400),
        points=cfg.scaled(200),
        ranges=cfg.scaled(100),
        topks=cfg.scaled(100),
        checkpoint_every=cfg.scaled(400),
    )
    cold_counts = [cfg.scaled(n) for n in (100, 100, 100)]
    # The tail must span at least one fsync batch to have a synced prefix.
    tail_n = max(2 * FSYNC_EVERY, cfg.scaled(96))
    peel_n = cfg.scaled(240)
    n_passes = 1 if cfg.trace else cfg.planned(PASS_A_S / PHASE_A_SHARE)
    pass_ops, extras = mixed_passes(
        files, cfg.seed, shape, n_passes,
        extra_sets=(tail_n,) + ((peel_n,) * 3 if cfg.trace else ()),
    )
    tail, mutation_sets = extras[0], extras[1:]
    read_counts = (shape.points, shape.ranges, shape.topks)
    peel_reads = distinct_reads(files, cfg.seed + 500, read_counts, set())
    warm = distinct_reads(files, cfg.seed - 1, _third(read_counts), set())
    template = DeploymentSpec(
        topology="durable",
        store=store_config(32),
        wal_dir="unset",
        fsync_every=FSYNC_EVERY,
        storage=StorageConfig(root="unset", resident_segments=8),
    ).to_dict()
    setups = cfg.setups
    trace_path = cfg.results_dir / f"trace_{cfg.workload}.jsonl"
    phase_a = spawn_host(
        {
            "phase": "a",
            "spec": template,
            "root": str(cfg.workdir),
            "files": files,
            "probe": probe_of(files),
            "setups": setups,
            "warmup": warm,
            "pass_ops": pass_ops,
            "tail": tail,
            "trace": cfg.trace,
            "peel_reads": peel_reads,
            "mutation_sets": mutation_sets,
            "trace_path": str(trace_path),
        },
        cfg.workdir, script, src,
    )

    # Replay what the child did, in order, against the oracle.
    started = perf_counter()
    inserts = sum(1 for ops in pass_ops + extras for kind, _ in ops if kind == "insert")
    oracle = Oracle(files, spare_rows=inserts)
    tally = Tally()
    passes = [_as_pass(record) for record in phase_a["passes"]]
    written: List[FileMetadata] = []
    for ops, result in zip(pass_ops, passes):
        fingerprint.add_ops(ops)
        verify_pass(oracle, ops, result.outs, tally)
        written += [arg for kind, arg in ops if kind in MUTATION_KINDS]
    live_after_a = len(oracle)
    if cfg.trace:
        reference = _as_pass(phase_a["peel_reference"])
        verify_pass(oracle, peel_reads, reference.outs, tally)
        for kind, file in mutation_sets[0] + mutation_sets[1]:
            oracle.apply(kind, file)
    fingerprint.add_ops(tail)
    durable, wal_bytes = _durable_prefix(phase_a["tail_base"], phase_a["tail_acks"])
    verify_pass(oracle, tail[:durable], phase_a["tail_outs"][:durable], tally)
    written += [file for _kind, file in tail[:durable]]
    oracle_s = perf_counter() - started

    # A process kill keeps the OS cache; discard the unsynced bytes here.
    deploy = cfg.workdir / f"deploy-{setups - 1}"
    with (deploy / "wal" / "store.wal").open("r+b") as fh:
        fh.truncate(wal_bytes)
    spec = deployment_spec(template, deploy).to_dict()

    restarts: List[Dict[str, Any]] = []
    cold: List[PassResult] = []
    if cfg.quick:
        n_restarts = 1
    elif cfg.trace:
        n_restarts = 2
    elif cfg.passes is not None:
        n_restarts = RESTARTS
    else:
        n_restarts = cfg.planned(RESTART_S / (1.0 - PHASE_A_SHARE), least=3)
    while len(restarts) < n_restarts:
        reads = _cold_reads(files, written, cfg.seed + 1000 + len(restarts), cold_counts)
        fingerprint.add_ops(reads)
        first = not restarts
        out = spawn_host(
            {
                "phase": "b",
                "spec": spec,
                "probe": probe_of(files),
                "reads": reads,
                "durability": [("point", PointQuery(f.filename)) for _k, f in tail[:durable]] if first else [],
                "trace": cfg.trace and first,
            },
            cfg.workdir, script, src,
        )
        started = perf_counter()
        oracle.check(probe_of(files), out["probe_out"], tally)
        result = _as_pass(out["pass"])
        verify_pass(oracle, reads, result.outs, tally)
        if first:
            _check_durability(tail[:durable], out["durability_outs"], tally)
        oracle_s += perf_counter() - started
        cold.append(result)
        restarts.append(out)

    meter = SpeedMeter()
    for child in [phase_a] + restarts:
        meter.samples += child["speed_samples"]
    metrics = summarise_passes(passes, cold)
    metrics["setup_s"] = timing_metric(phase_a["setups"])
    metrics["recovery_s"] = timing_metric([r["recovery"] for r in restarts])
    metrics["stored_bytes_per_file"] = metric(phase_a["stored_bytes"] / live_after_a, "B")
    metrics["peak_rss_mb"] = metric(
        max([phase_a["rss_mb"]] + [r["rss_mb"] for r in restarts]), "MB"
    )
    metrics.update(_ingest_counts(phase_a["passes"], passes, restarts, cold))
    if cfg.trace:
        metrics.update(phase_a["layers"])
        metrics.update(restarts[0]["layers"])
        metrics.update(
            _harness_costs(files, DeploymentSpec.from_dict(spec).store, gen_s, oracle_s)
        )
    result_doc = finish(metrics, tally, fingerprint, passes, gen_s, oracle_s, meter)
    result_doc.detail["restarts"] = len(restarts)
    result_doc.detail["durable_tail"] = {"acked": len(tail), "synced": durable}
    if cfg.trace:
        result_doc.detail["trace"] = phase_a["trace"]
        result_doc.detail["spans"] = phase_a["spans"]
    return result_doc


def _ingest_counts(
    records: Sequence[Dict[str, Any]],
    passes: Sequence[PassResult],
    restarts: Sequence[Dict[str, Any]],
    cold: Sequence[PassResult],
) -> Dict[str, MetricDoc]:
    """Write-path and storage counts read from the public stats trees and
    the checkpoint manifests (exact: one client, no timers)."""

    def delta(record: Dict[str, Any], *path: str) -> float:
        before, after = record["ingest_before"], record["ingest_after"]
        for key in path:
            before, after = before[key], after[key]
        return float(after - before)

    published = [out for p in passes for out in p.outs if isinstance(out, dict)]
    cold_reads = sum(p.ops for p in cold)
    out = {
        "ingest.wal_fsyncs": metric(median([delta(r, "wal", "syncs") for r in records]), "count"),
        # Group drains; the stats tree's "runs" counts policy checks, one per mutation.
        "ingest.compaction_runs": metric(
            median([delta(r, "compaction", "group_compactions") for r in records]), "count"
        ),
        "ingest.compaction_changes": metric(
            median([delta(r, "compaction", "changes_applied") for r in records]), "count"
        ),
        "storage.fault_ins_per_kop": metric(
            1e3 * sum(r["faults"] for r in restarts) / cold_reads, "count"
        ),
        "storage.evictions_per_kop": metric(
            1e3 * sum(r["evictions"] for r in restarts) / cold_reads, "count"
        ),
    }
    checkpoints = np.concatenate([p.of_kind("checkpoint") for p in passes])
    if checkpoints.size:
        out["ingest.checkpoint_s"] = metric(median(checkpoints), "s", samples=int(checkpoints.size))
        out["storage.publish_bytes_per_checkpoint"] = metric(
            median([p["bytes_written"] for p in published]), "B"
        )
        out["storage.segments_written"] = metric(
            median([p["segments_written"] for p in published]), "count"
        )
    ryw = np.concatenate([p.of_kind(RYW) for p in passes])
    if ryw.size:
        out["ingest.ryw_read_ms"] = metric(1e3 * median(ryw), "ms", samples=int(ryw.size))
    return out


# ---------------------------------------------------------------------------- net_sharded_replicated
REMOTE = "server.RemoteClient.execute"
ROUTER = "shard.ShardRouter.execute"
GROUP = "replication.ReplicaGroup.execute"
MEMBER = "core.SmartStore.execute"


class Served:
    """A ``repro serve`` subprocess and a ``RemoteClient`` it has answered."""

    def __init__(self, spec_path: Path, population_path: Path, src: Path, probe: Any) -> None:
        self.process = ServerProcess(spec_path, population_path, src)
        try:
            self.client = connect(self.process.address)
            self.client.execute(probe)
        except BaseException:
            self.process.stop()
            raise

    def close(self) -> None:
        self.client.close()
        self.process.stop()


class ShardDepths(Deeper):
    """Under ``ShardRouter.execute``: the contacted replica groups'
    ``execute`` and, under each, the serving member's ``SmartStore.execute``.
    Which shards a query contacted is read off the router's public
    per-shard busy accounting."""

    def __init__(self, router: Any, recorder: SpanRecorder, n: int) -> None:
        self.router = router
        self.recorder = recorder
        self.groups = np.zeros(n, dtype=np.float64)  # per op, summed over shards
        self.group_self: List[float] = []  # per shard call: group minus member
        self.member: Dict[str, List[float]] = {kind: [] for kind in READ_KINDS}
        self._busy: List[float] = []

    def arm(self) -> None:
        self._busy = list(self.router.shard_busy_seconds)

    def record(self, op_id: int, kind: str, query: Any) -> None:
        busy = self.router.shard_busy_seconds
        for sid, was in enumerate(self._busy):
            if busy[sid] <= was:
                continue
            group = self.router.shards[sid]
            _, in_group = self.recorder.timed(GROUP, ROUTER, op_id, kind, group.execute, query)
            _, in_member = self.recorder.timed(
                MEMBER, GROUP, op_id, kind, group.primary.store.execute, query
            )
            self.groups[op_id] += in_group
            self.group_self.append(in_group - in_member)
            self.member[kind].append(in_member)


def _wire_codec_metrics(responses: Sequence[Any]) -> Dict[str, MetricDoc]:
    """Encode and decode recorded responses the way the server and the
    remote client do (JSON codec)."""
    codec = WireCodec("json")
    encode: List[float] = []
    decode: List[float] = []
    sizes: List[int] = []
    for response in responses:
        started = perf_counter()
        raw = codec.encode(response_to_wire(response))
        encode.append(perf_counter() - started)
        started = perf_counter()
        response_from_wire(codec.decode(raw))
        decode.append(perf_counter() - started)
        sizes.append(len(raw))
    return {
        "server.codec_encode_us": metric(1e6 * median(encode), "us"),
        "server.codec_decode_us": metric(1e6 * median(decode), "us"),
        "server.bytes_per_response": metric(float(np.mean(sizes)), "B"),
    }


def _routing_counts(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, MetricDoc]:
    """Router, replication and cache counts over one pass, from the
    server's public ``stats()`` document."""
    s0, s1 = before["store"], after["store"]
    queries = sum(s1["queries_routed"].values()) - sum(s0["queries_routed"].values())
    contacted = s1["shards_contacted"] - s0["shards_contacted"]
    pruned = s1["shards_pruned"] - s0["shards_pruned"]
    busy = [b - a for a, b in zip(s0["shard_busy_seconds"], s1["shard_busy_seconds"])]
    out = {
        "shard.shards_contacted_per_query": metric(contacted / max(1, queries), "count"),
        "shard.pruned_ratio": metric(pruned / max(1, pruned + contacted), "ratio"),
        "shard.partition_utilization": metric(
            sum(busy) / max(busy) / len(busy) if max(busy) > 0 else 0.0, "ratio"
        ),
    }
    r0, r1 = s0["replication"], s1["replication"]
    applied = 0
    for g0, g1 in zip(r0["groups"], r1["groups"]):
        for m0, m1 in zip(g0["replicas"], g1["replicas"]):
            if m1["replica_id"] != g1["primary"]:
                applied += m1["applied_seq"] - m0["applied_seq"]
    out["replication.ship_lag_max"] = metric(r1["max_observed_lag"], "count")
    out["replication.catchup_applies"] = metric(applied, "count")
    out.update(cache_counts(before["service"], after["service"]))
    return out


def run_net_sharded_replicated(cfg: RunConfig, src: Path) -> RunResult:
    files, gen_s = make_corpus(_scale(cfg, 8.0))
    fingerprint = Fingerprint()
    fingerprint.add_corpus(files)
    shape = MixedShape(
        mutations=cfg.scaled(80),
        points=cfg.scaled(360),
        ranges=cfg.scaled(180),
        topks=cfg.scaled(180),
    )
    n_passes = 1 if cfg.trace else cfg.planned(2.4)
    peel_n = cfg.scaled(200)
    pass_ops, extras = mixed_passes(
        files, cfg.seed, shape, n_passes, extra_sets=(peel_n,) if cfg.trace else ()
    )
    read_counts = (shape.points, shape.ranges, shape.topks)
    warm = distinct_reads(files, cfg.seed - 1, _third(read_counts), set())
    spec = DeploymentSpec(
        topology="sharded_replicated",
        store=store_config(32),
        shards=4,
        replicas=1,
        replication_mode="async",
    )
    spec_path = cfg.workdir / "spec.json"
    population_path = cfg.workdir / "population.jsonl"
    save_spec(spec, spec_path)
    save_files(files, population_path)

    started = perf_counter()
    inserts = sum(1 for ops in pass_ops for kind, _ in ops if kind == "insert")
    oracle = Oracle(files, spare_rows=inserts)
    oracle_s = perf_counter() - started
    tally = Tally()
    passes: List[PassResult] = []
    probe = probe_of(files)
    trace: Optional[Dict[str, Any]] = None

    meter = SpeedMeter()
    served: Optional[Served] = None
    twin: Any = None
    try:
        served, setups = set_up_repeatedly(
            lambda _attempt: Served(spec_path, population_path, src, probe), cfg.setups, meter
        )
        server, remote = served.process, served.client
        run_pass(remote, warm, meter)
        before = remote.stats()
        for ops in pass_ops:
            fingerprint.add_ops(ops)
            cpu = server.cpu_s()
            result = run_pass(remote, ops, meter)
            result.extra_cpu_s = server.cpu_s() - cpu
            result.outs = reduce_outs(ops, result.outs)
            started = perf_counter()
            verify_pass(oracle, ops, result.outs, tally)
            oracle_s += perf_counter() - started
            passes.append(result)
        after = remote.stats()
        metrics = summarise_passes(passes)
        metrics.update(_routing_counts(before, after))
        if cfg.trace:
            # The twin takes the same mixed pass first, so the layers are
            # timed over the same staged-overlay and replica-lag state.
            twin = connect(spec, files)
            run_pass(twin, pass_ops[0], meter)
            layer, trace = _peel_net(cfg, files, remote, twin, extras[0], meter)
            metrics.update(layer)
        metrics["peak_rss_mb"] = metric(server.peak_rss_mb(), "MB")
    finally:
        if twin is not None:
            twin.close()
        if served is not None:
            served.close()
    metrics["setup_s"] = timing_metric(setups)
    if cfg.trace:
        metrics.update(_harness_costs(files, spec.store, gen_s, oracle_s))
    result_doc = finish(metrics, tally, fingerprint, passes, gen_s, oracle_s, meter)
    if trace is not None:
        result_doc.detail["trace"] = trace
    return result_doc


def _peel_net(
    cfg: RunConfig,
    files: Sequence[FileMetadata],
    remote: Any,
    twin: Any,
    mutations: Sequence[Op],
    meter: SpeedMeter,
) -> Tuple[Dict[str, MetricDoc], Dict[str, Any]]:
    """The distributed stack's layers (and the trace verdict), on an
    in-process twin of the served spec (same files, same configuration)
    beside the server."""
    counts = [cfg.scaled(n) for n in (300, 150, 150)]
    reads = distinct_reads(files, cfg.seed + 500, counts, set())
    router = twin.store
    recorder = SpanRecorder(16 * len(reads) + len(mutations) + 512)
    run_pass(twin, reads[: len(reads) // 3], meter)
    depths = ShardDepths(router, recorder, len(reads))
    peel, _reference, layer = peel_client(
        twin, reads, [], recorder, meter, ROUTER, router.execute,
        deeper=depths, outer=(REMOTE, remote.execute),
    )
    for kind in READ_KINDS:
        if depths.member[kind]:
            layer[f"core.{kind}_ms"] = metric(1e3 * median(depths.member[kind]), "ms")
    layer["shard.router_ms"] = metric(1e3 * median(peel.below), "ms")
    # Point and range scatters call each shard exactly as the sweep does;
    # a top-k fan-out ships MaxD to the later shards, so it is left out.
    plain = np.fromiter((k != "topk" for k in peel.kinds), dtype=bool, count=len(peel.kinds))
    layer["shard.router_self_ms"] = metric(
        1e3 * median((peel.below - depths.groups)[plain]), "ms"
    )
    layer["replication.read_self_ms"] = metric(1e3 * median(depths.group_self), "ms")
    layer["server.wire_overhead_ms"] = metric(1e3 * median(peel.above - peel.reference), "ms")

    pings: List[float] = []
    for i in range(300):
        pings.append(recorder.timed("server.RemoteClient.ping", None, -1 - i, "ping", lambda _n: remote.ping(), None)[1])
    layer["server.rtt_floor_us"] = metric(1e6 * median(pings), "us")
    layer.update(_wire_codec_metrics([twin.execute(query) for _kind, query in reads[:300]]))

    on_group: List[float] = []
    for i, (kind, file) in enumerate(mutations):
        sid = router.owner_of(file.file_id)
        if sid is None:
            sid = int(router.partitioner.shard_for(file)) % router.num_shards
        on_group.append(
            recorder.timed(
                "replication.ReplicaGroup.mutate", None, len(reads) + 512 + i, kind,
                getattr(router.shards[sid], kind), file,
            )[1]
        )
    layer["replication.mutation_ms"] = metric(1e3 * median(on_group), "ms")
    recorder.write(cfg.results_dir / f"trace_{cfg.workload}.jsonl", cfg.workload)
    verdict = trace_verdict(peel)
    verdict["spans"] = len(recorder)
    return layer, verdict


# ---------------------------------------------------------------------------- dispatch
def run_workload(cfg: RunConfig, script: Path, src: Path) -> RunResult:
    """``script`` is the entry point child processes re-enter; ``src`` the
    directory the program under test is imported from."""
    if cfg.workload == "scan_plain":
        return run_reads_in_process(cfg, plan_scan_plain(cfg))
    if cfg.workload == "hot_cached":
        return run_reads_in_process(cfg, plan_hot_cached(cfg))
    if cfg.workload == "ingest_restart":
        return run_ingest_restart(cfg, script, src)
    if cfg.workload == "net_sharded_replicated":
        return run_net_sharded_replicated(cfg, src)
    raise ValueError(f"unknown workload {cfg.workload!r}")
