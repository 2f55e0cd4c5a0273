"""Benchmark inputs: the corpus and the per-pass op streams, all from a seed.

The corpus is ``repro.traces.msn.msn_trace(scale, CORPUS_SEED)``, the same
for every run; the run's seed drives the queries and mutations, which
come from ``repro.workloads.generator.QueryWorkloadGenerator``.
The program under test only ever receives what is generated here, and a
sha256 over corpus and op streams is kept with the results so two runs can
prove they measured the same inputs.

An op is a ``(kind, arg)`` pair: ``point`` / ``range`` / ``topk`` carry a
query object (``ryw`` is a point query on a file the same pass wrote
earlier), ``insert`` / ``delete`` / ``modify`` a ``FileMetadata``,
``checkpoint`` carries ``None``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.metadata.file_metadata import FileMetadata
from repro.metadata.matrix import attribute_matrix
from repro.traces.distributions import zipf_popularity
from repro.traces.msn import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery

__all__ = [
    "ALL_READS",
    "MUTATION_KINDS",
    "READ_KINDS",
    "RYW",
    "Fingerprint",
    "MixedShape",
    "Op",
    "TOPK_K",
    "distinct_reads",
    "hot_pool",
    "hot_reads",
    "make_corpus",
    "mixed_passes",
    "mutation_sets",
]

Op = Tuple[str, Any]

READ_KINDS = ("point", "range", "topk")
RYW = "ryw"
ALL_READS = READ_KINDS + (RYW,)
MUTATION_KINDS = ("insert", "delete", "modify")

#: Top-k size everywhere (the paper's default).
TOPK_K = 8

#: Insert / delete / modify shares of a mutation stream.
MUTATION_MIX = (0.6, 0.2, 0.2)


#: The corpus is one fixed population per scale (and its mutations one
#: fixed history, see ``mixed_passes``): how fast a store answers depends
#: on the grouping its corpus happens to get (top-k medians differ 2x
#: between corpus seeds), so a run's ``--seed`` varies the reads over the
#: same data, as a database benchmark varies queries over one loaded
#: dataset.  29 is ``msn_trace``'s own default seed.
CORPUS_SEED = 29


def make_corpus(scale: float) -> Tuple[List[FileMetadata], float]:
    """The file population and the seconds it took to generate."""
    started = perf_counter()
    files = list(msn_trace(scale, seed=CORPUS_SEED).file_metadata())
    return files, perf_counter() - started


class Fingerprint:
    """Running sha256 over everything the program is handed."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add_corpus(self, files: Sequence[FileMetadata]) -> None:
        self._hash.update(np.asarray([f.file_id for f in files], dtype=np.int64).tobytes())
        self._hash.update(np.ascontiguousarray(attribute_matrix(files)).tobytes())

    def add_ops(self, ops: Sequence[Op]) -> None:
        for kind, arg in ops:
            self._hash.update(f"{kind}|{arg!r}\n".encode("utf-8"))

    def add_array(self, array: np.ndarray) -> None:
        self._hash.update(np.ascontiguousarray(array).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _tag(queries: Sequence[Any], kind: str) -> List[Op]:
    return [(kind, q) for q in queries]


def _shuffled(ops: List[Op], rng: np.random.Generator) -> List[Op]:
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


class _ExactRanges:
    """Range queries whose raw-unit window and index-space window select
    the same files.

    The engine evaluates a range predicate in index space (``log1p`` on
    the wide-range attributes); the transform is monotone, but in floating
    point a value one ulp outside a raw bound can map onto the bound
    itself.  The generator clips windows to the population's extremes and
    converts them back with ``expm1``, which lands exactly there: the
    extreme file is then a hair outside the raw window and inside the
    index-space one.  Such knife-edge windows (a few per ten thousand) are
    left out of the streams, so no op of a run fails; README.md carries a
    reproduction.
    """

    def __init__(self, files: Sequence[FileMetadata], generator: QueryWorkloadGenerator) -> None:
        self._generator = generator
        self._schema = generator.schema
        raw = attribute_matrix(files, self._schema)
        # Per log-scaled attribute, the corpus values in order: only the
        # nearest value on either side of a window can sit on its edge.
        self._sorted = {
            col: np.sort(raw[:, col])
            for col, logged in enumerate(self._schema.log_scale_mask())
            if logged
        }

    def _knife_edge(self, query: Any) -> bool:
        for col, lo, hi in zip(self._schema.indices(query.attributes), query.lower, query.upper):
            values = self._sorted.get(col)
            if values is None:
                continue
            below = values[: np.searchsorted(values, lo, "left")][-1:]  # the largest under the window
            above = values[np.searchsorted(values, hi, "right") :][:1]  # the smallest over it
            if below.size and np.log1p(max(below[0], 0.0)) >= np.log1p(max(lo, 0.0)):
                return True
            if above.size and np.log1p(max(above[0], 0.0)) <= np.log1p(max(hi, 0.0)):
                return True
        return False

    def draw(self, n: int) -> List[Any]:
        out: List[Any] = []
        while len(out) < n:
            out += [
                q for q in self._generator.range_queries(n - len(out)) if not self._knife_edge(q)
            ]
        return out


def _distinct_points(
    generator: QueryWorkloadGenerator, n: int, seen: Set[str]
) -> List[PointQuery]:
    """``n`` point queries on filenames no earlier query of this run used
    (popular names repeat under the generator's Zipf sampling)."""
    out: List[PointQuery] = []
    while len(out) < n:
        for query in generator.point_queries(4 * n):
            if query.filename not in seen:
                seen.add(query.filename)
                out.append(query)
                if len(out) == n:
                    break
    return out


def distinct_reads(
    files: Sequence[FileMetadata],
    seed: int,
    counts: Sequence[int],
    seen: Set[str],
) -> List[Op]:
    """One pass of all-distinct reads (point / range / top-k), shuffled.

    ``seen`` carries the point filenames earlier passes used, so no query
    of a run repeats and the result cache never hits.
    """
    n_point, n_range, n_topk = counts
    generator = QueryWorkloadGenerator(files, seed=seed)
    ops = _tag(_distinct_points(generator, n_point, seen), "point")
    ops += _tag(_ExactRanges(files, generator).draw(n_range), "range")
    ops += _tag(generator.topk_queries(n_topk, k=TOPK_K), "topk")
    return _shuffled(ops, np.random.default_rng(seed))


def hot_pool(files: Sequence[FileMetadata], seed: int, counts: Sequence[int]) -> List[Op]:
    """The small set of distinct queries a hot workload keeps re-asking."""
    return distinct_reads(files, seed, counts, set())


def hot_reads(pool: Sequence[Op], seed: int, n: int) -> Tuple[List[Op], np.ndarray]:
    """``n`` ops drawn Zipf(1.0) from ``pool`` (and the drawn indices)."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=n, p=zipf_popularity(len(pool), exponent=1.0))
    return [pool[i] for i in picks], picks


@dataclass(frozen=True)
class MixedShape:
    """One pass of reads interleaved with mutations."""

    mutations: int
    points: int  # half of them read files written earlier in the same pass
    ranges: int
    topks: int
    checkpoint_every: int = 0  # mutations between checkpoints (0 = never)

    @property
    def reads(self) -> int:
        return self.points + self.ranges + self.topks


def _split_mutations(n: int) -> Tuple[int, int, int]:
    inserts = int(round(n * MUTATION_MIX[0]))
    deletes = int(round(n * MUTATION_MIX[1]))
    return inserts, deletes, n - inserts - deletes


def mutation_sets(
    files: Sequence[FileMetadata], seed: int, per_set: int, sets: int
) -> List[List[Op]]:
    """``sets`` disjoint mutation lists of ``per_set`` ops each (60/20/20
    insert/delete/modify).  One generator call samples every delete and
    modify target without replacement, so no file is targeted twice
    anywhere in a run and no mutation is ever refused as unknown."""
    inserts, deletes, modifies = _split_mutations(per_set)
    stream = QueryWorkloadGenerator(files, seed=seed).mutation_stream(
        inserts * sets, deletes * sets, modifies * sets, shuffle=False
    )
    ins = stream[: inserts * sets]
    dele = stream[inserts * sets : (inserts + deletes) * sets]
    mod = stream[(inserts + deletes) * sets :]
    out: List[List[Op]] = []
    for i in range(sets):
        chunk = (
            ins[i * inserts : (i + 1) * inserts]
            + dele[i * deletes : (i + 1) * deletes]
            + mod[i * modifies : (i + 1) * modifies]
        )
        out.append(_shuffled(list(chunk), np.random.default_rng([seed, i])))
    return out


def mixed_pass(
    files: Sequence[FileMetadata],
    seed: int,
    shape: MixedShape,
    mutations: Sequence[Op],
) -> List[Op]:
    """Interleave one pass's mutations with its reads.

    Reads are spread evenly between the mutations; every second point
    query asks for a file one of this pass's earlier mutations wrote
    (inserted or modified: it must be found; deleted: it must be gone).
    """
    rng = np.random.default_rng(seed)
    generator = QueryWorkloadGenerator(files, seed=seed)
    fresh_points = shape.points - shape.points // 2
    reads: List[Optional[Op]] = _tag(generator.point_queries(fresh_points), "point")
    reads += [None] * (shape.points // 2)  # read-your-writes slots, filled below
    reads += _tag(_ExactRanges(files, generator).draw(shape.ranges), "range")
    reads += _tag(generator.topk_queries(shape.topks, k=TOPK_K), "topk")
    reads = [reads[i] for i in rng.permutation(len(reads))]

    ops: List[Op] = []
    written: List[FileMetadata] = []
    next_read = 0
    for done, (kind, file) in enumerate(mutations, start=1):
        ops.append((kind, file))
        written.append(file)
        if shape.checkpoint_every and done % shape.checkpoint_every == 0:
            ops.append(("checkpoint", None))
        due = shape.reads * done // len(mutations)
        while next_read < due:
            read = reads[next_read]
            if read is None:
                target = written[int(rng.integers(len(written)))]
                read = (RYW, PointQuery(target.filename))
            ops.append(read)
            next_read += 1
    return ops


def mixed_passes(
    files: Sequence[FileMetadata],
    seed: int,
    shape: MixedShape,
    passes: int,
    *,
    extra_sets: Sequence[int] = (),
) -> Tuple[List[List[Op]], List[List[Op]]]:
    """``passes`` mixed passes plus extra disjoint mutation-only sets (of
    the given sizes, carved from further same-size sets) for the untimed
    tail and the per-depth mutation sweeps.

    The mutations are the corpus's fixed history (``CORPUS_SEED``): what a
    store has staged, compacted and checkpointed decides how fast it reads
    (cold top-k medians differ by a third between mutation histories), so
    a run's ``seed`` varies the reads — what is asked, in what order,
    which written files are read back — over one history."""
    spare = sum(-(-size // shape.mutations) for size in extra_sets)
    sets = mutation_sets(files, CORPUS_SEED, shape.mutations, passes + spare)
    mixed = [
        mixed_pass(files, seed + i, shape, sets[i]) for i in range(passes)
    ]
    extras: List[List[Op]] = []
    cursor = passes
    for size in extra_sets:
        need = -(-size // shape.mutations)
        pool = [op for chunk in sets[cursor : cursor + need] for op in chunk]
        extras.append(pool[:size])
        cursor += need
    return mixed, extras
