"""Processes that host a deployment on the harness's behalf.

``ingest_restart`` needs its deployment in processes of their own: phase A
ends in ``os._exit`` without ``close()`` (a kill), and every phase-B
restart must start cold.  The parent hands each child a pickled *job*
(spec, inputs, what to measure) and reads a pickled result back; the
children generate nothing and verify nothing — they only send the ops
they were given and record what came back.

``ServerProcess`` runs ``python -m repro serve`` for the network workload.
"""

from __future__ import annotations

import os
import pickle
import resource
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.api import DeploymentSpec, connect
from repro.ingest.pipeline import recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.storage import Segment

from .calibrate import SpeedMeter
from .inputs import Op
from .measure import PassResult, reduce_outs, run_pass, set_up_repeatedly
from .oracle import Answer
from .peel import CORE, core_metrics, metric, peel_client, trace_verdict
from .spans import SpanRecorder
from .stats import median

__all__ = ["ServerProcess", "deployment_spec", "run_host_job", "spawn_host"]

#: No child may outlive this (the contract gives a whole run 180 s).
HOST_TIMEOUT_S = 150.0

#: Ops per block when mutation depths are swept side by side.
MUTATION_BLOCK = 32


# ---------------------------------------------------------------------------- parent side
def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn_host(job: Dict[str, Any], workdir: Path, script: Path, src: Path) -> Dict[str, Any]:
    """Run one host job in a fresh interpreter and return its result."""
    stem = f"{job['phase']}-{len(list(workdir.glob('*.job')))}"
    job_path = workdir / f"{stem}.job"
    job["out"] = str(workdir / f"{stem}.out")
    with job_path.open("wb") as fh:
        pickle.dump(job, fh, protocol=pickle.HIGHEST_PROTOCOL)
    proc = subprocess.Popen(
        [sys.executable, str(script), "--host-job", str(job_path)],
        stdout=sys.stderr,  # the parent's stdout carries the result line only
        env=child_env(src),
    )
    try:
        code = proc.wait(timeout=HOST_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"host job {stem} exited with code {code}")
    # Only ever bytes this harness's own child wrote a moment ago.
    with open(job["out"], "rb") as fh:
        return pickle.load(fh)


def deployment_spec(template: Dict[str, Any], root: Path) -> DeploymentSpec:
    """The job's spec with its WAL and snapshot directories under ``root``."""
    doc = dict(template)
    doc["wal_dir"] = str(root / "wal")
    doc["storage"] = dict(doc["storage"], root=str(root / "snap"))
    return DeploymentSpec.from_dict(doc)


# ---------------------------------------------------------------------------- child side
def run_host_job(path: str) -> int:
    with open(path, "rb") as fh:
        job = pickle.load(fh)  # written by the parent harness process
    meter = SpeedMeter()
    result = phase_a(job, meter) if job["phase"] == "a" else phase_b(job, meter)
    result["speed_samples"] = meter.samples
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["out"], "wb") as fh:
        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fh.flush()
        os.fsync(fh.fileno())
    if job["phase"] == "a":
        # The kill: no close(), no WAL flush, no atexit — only what was
        # fsynced (and what the OS cache happens to hold) survives.
        sys.stderr.flush()
        os._exit(0)
    return 0


def _pass_record(ops: Sequence[Op], result: PassResult) -> Dict[str, Any]:
    return {
        "kinds": result.kinds,
        "latencies": result.latencies,
        "cpu": result.cpu,
        "wall_s": result.wall_s,
        "outs": reduce_outs(ops, result.outs),
        "speeds": result.speeds,
    }


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def phase_a(job: Dict[str, Any], meter: SpeedMeter) -> Dict[str, Any]:
    """Set up (several times), warm up, run the measured passes, peel the
    write path when traced, then the untimed tail whose acks are checked
    against the WAL's fsync count."""
    files = job["files"]
    root = Path(job["root"])

    def set_up(attempt: int) -> Any:
        fresh = connect(deployment_spec(job["spec"], root / f"deploy-{attempt}"), files)
        fresh.execute(job["probe"])
        return fresh

    client, setups = set_up_repeatedly(set_up, job["setups"], meter)
    pipeline = client.service.pipeline
    run_pass(client, job["warmup"], meter)

    passes: List[Dict[str, Any]] = []
    for ops in job["pass_ops"]:
        before = pipeline.stats()
        result = run_pass(client, ops, meter)
        record = _pass_record(ops, result)
        record["ingest_before"], record["ingest_after"] = before, pipeline.stats()
        passes.append(record)

    out: Dict[str, Any] = {
        "setups": setups,
        "passes": passes,
        "stored_bytes": _dir_bytes(Path(client.spec.storage.root)) + pipeline.wal.size_bytes(),
    }
    if job["trace"]:
        out.update(_peel_phase_a(client, job, meter))

    # Untimed tail: after each ack, how many fsyncs has the WAL completed
    # and how long is it?  The last ack that saw the count rise marks the
    # bytes that are on disk.
    wal = client.stats()["service"]["ingest"]["wal"]
    out["tail_base"] = (int(wal["syncs"]), int(wal["size_bytes"]))
    acks = []
    outs = []
    for kind, file in job["tail"]:
        outs.append(getattr(client, kind)(file))
        wal = client.stats()["service"]["ingest"]["wal"]
        acks.append((int(wal["syncs"]), int(wal["size_bytes"])))
    out["tail_acks"] = acks
    out["tail_outs"] = reduce_outs(job["tail"], outs)
    return out


def _peel_phase_a(client: Any, job: Dict[str, Any], meter: SpeedMeter) -> Dict[str, Any]:
    """The read layers on distinct reads, then the write path one call per
    depth on disjoint same-distribution mutation sets: ``Client.<kind>``,
    ``IngestPipeline.<kind>``, ``WriteAheadLog.append`` (a scratch log with
    the deployment's fsync policy)."""
    reads: List[Op] = job["peel_reads"]
    via_client, via_pipeline, via_wal = job["mutation_sets"]
    recorder = SpanRecorder(4 * len(reads) + 3 * len(via_client) + 512)
    peel, reference, layer = peel_client(
        client, reads, [], recorder, meter, CORE, client.store.execute
    )
    layer.update(core_metrics(peel))

    pipeline = client.service.pipeline
    scratch = WriteAheadLog(
        Path(job["root"]) / "scratch.wal", fsync_every=client.spec.fsync_every
    )
    header_bytes = scratch.size_bytes()
    staged_peak = 0
    at_client: List[float] = []
    at_pipeline: List[float] = []
    at_wal: List[float] = []
    op_id = len(reads) + 512
    for first in range(0, len(via_client), MUTATION_BLOCK):
        if meter.due(perf_counter()):
            meter.sample()
        for kind, file in via_client[first : first + MUTATION_BLOCK]:
            op_id += 1
            at_client.append(
                recorder.timed("api.Client.mutate", None, op_id, kind, getattr(client, kind), file)[1]
            )
            staged_peak = max(staged_peak, len(pipeline.overlay))
        for kind, file in via_pipeline[first : first + MUTATION_BLOCK]:
            op_id += 1
            at_pipeline.append(
                recorder.timed(
                    "ingest.IngestPipeline.mutate", "api.Client.mutate", op_id, kind,
                    getattr(pipeline, kind), file,
                )[1]
            )
        for kind, file in via_wal[first : first + MUTATION_BLOCK]:
            op_id += 1
            at_wal.append(
                recorder.timed(
                    "ingest.WriteAheadLog.append", "ingest.IngestPipeline.mutate", op_id, kind,
                    lambda f, k=kind: scratch.append(k, f), file,
                )[1]
            )
    layer["ingest.pipeline_mutation_ms"] = metric(1e3 * median(at_pipeline), "ms")
    layer["ingest.wal_append_us"] = metric(1e6 * median(at_wal), "us")
    layer["ingest.wal_bytes_per_mutation"] = metric(
        (scratch.size_bytes() - header_bytes) / max(1, len(at_wal)), "B"
    )
    layer["ingest.overlay_staged_peak"] = metric(staged_peak, "count")
    scratch.close()
    started = perf_counter()
    pipeline.compactor.drain()
    layer["ingest.drain_s"] = metric(perf_counter() - started, "s")
    # The restarts must find what an untraced run leaves behind: a
    # checkpoint, then only the tail in the WAL.
    client.checkpoint()

    recorder.write(Path(job["trace_path"]), "ingest_restart")
    return {
        "layers": layer,
        "trace": trace_verdict(peel),
        "spans": len(recorder),
        "peel_reference": _pass_record(reads, reference),
        "client_mutation_ms": 1e3 * median(at_client),
    }


def phase_b(job: Dict[str, Any], meter: SpeedMeter) -> Dict[str, Any]:
    """One restart: cold ``connect(spec)`` with no files until the first
    answered point query, then the cold reads."""
    spec = DeploymentSpec.from_dict(job["spec"])
    out: Dict[str, Any] = {"layers": {}}
    if job["trace"]:
        out["layers"] = _peel_recovery(spec)
    def recover() -> Tuple[Any, Any]:
        restored = connect(spec)
        return restored, restored.execute(job["probe"])

    seconds, speed, (client, first) = meter.timed(recover)
    out["recovery"] = (seconds, speed)
    out["probe_out"] = Answer.of(first)
    pipeline = client.service.pipeline
    out["replayed"] = int(pipeline.mutations)
    try:
        reads: List[Op] = job["reads"]
        before = pipeline.storage.stats()
        result = run_pass(client, reads, meter)
        out["pass"] = _pass_record(reads, result)
        after = pipeline.storage.stats()
        out["faults"] = after["faults"] - before["faults"]
        out["evictions"] = after["evictions"] - before["evictions"]
        out["durability_outs"] = [
            Answer.of(response, with_records=True)
            for response in run_pass(client, job["durability"], meter).outs
        ]
        if job["trace"]:
            # The same top-k queries on a freshly built resident store.
            topks = [op for op in reads if op[0] == "topk"]
            resident = connect(
                DeploymentSpec(topology="plain", store=spec.store),
                pipeline.materialized_files(),
            )
            try:
                run_pass(resident, topks[: len(topks) // 4], meter)
                warm = run_pass(resident, topks, meter)
            finally:
                resident.close()
            cold = result.of_kind("topk")
            out["layers"]["storage.cold_over_resident_topk"] = metric(
                median(cold) / median(warm.latencies), "ratio"
            )
    finally:
        client.close()
    return out


def _peel_recovery(spec: DeploymentSpec) -> Dict[str, Any]:
    """``recover_from_storage`` and ``Segment.open`` timed directly."""
    root = Path(spec.storage.root)
    opens: List[float] = []
    for path in sorted((root / "segments").glob("*.seg")):
        started = perf_counter()
        segment = Segment.open(path, verify=True)
        opens.append(perf_counter() - started)
        segment.close()
    started = perf_counter()
    pipeline, report = recover_from_storage(
        root,
        wal_path=Path(spec.wal_dir) / "store.wal",
        fsync_every=spec.fsync_every,
        resident_segments=spec.storage.resident_segments,
    )
    recover_s = perf_counter() - started
    pipeline.close()
    pipeline.storage.close()
    return {
        "storage.recover_s": metric(recover_s, "s"),
        "storage.tail_records_replayed": metric(report.wal_records_replayed, "count"),
        "storage.segment_open_ms": metric(1e3 * median(opens), "ms", samples=len(opens)),
    }


# ---------------------------------------------------------------------------- the network server
class ServerProcess:
    """``python -m repro serve`` on an ephemeral loopback port."""

    def __init__(self, spec_path: Path, population_path: Path, src: Path) -> None:
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--spec", str(spec_path), "--input", str(population_path),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(src),
        )
        self.address = ""
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            if " at tcp://" in line:
                self.address = line.rsplit(" at ", 1)[1].strip()
                break
        if not self.address:
            self.stop()
            raise RuntimeError("repro serve exited before announcing its address")

    @property
    def pid(self) -> int:
        return self._proc.pid

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.pid}/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
            try:
                self._proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()
