"""Fixture tests for the repro-lint rules: every rule must fire on a
known-bad snippet and stay quiet on the matching known-good one, and the
engine's suppression + ratchet-baseline machinery must behave.

The last test is the self-hosting gate: the real tree under ``src/repro``
must lint clean against the committed baseline.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.engine import (
    load_baseline,
    run_lint,
    write_baseline,
)

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BASELINE = REPO_SRC / "analysis" / "baseline.json"


def lint_tree(tmp_path, files):
    """Materialise {relpath: source} under tmp_path and lint it."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return run_lint(tmp_path)


def rules_fired(report):
    return sorted({f.rule for f in report.findings})


# ------------------------------------------------------------------ deadline


DEADLINE_CALLEE = """
def scan_groups(query, deadline=None):
    return query
"""


def test_deadline_drop_fires(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "core/q.py": DEADLINE_CALLEE,
            "shard/r.py": (
                "from core.q import scan_groups\n"
                "def route(query, deadline=None):\n"
                "    return scan_groups(query)\n"
            ),
        },
    )
    assert rules_fired(report) == ["deadline-propagation"]
    (finding,) = report.findings
    assert "scan_groups" in finding.message
    assert finding.symbol == "route"


@pytest.mark.parametrize(
    "call",
    [
        "scan_groups(query, deadline=deadline)",  # explicit keyword
        "scan_groups(query, deadline)",  # positional by name
        "scan_groups(query, **kwargs)",  # splat rides it through
        "scan_groups(query, request.deadline)",  # attribute by name
    ],
)
def test_deadline_forwarding_is_clean(tmp_path, call):
    report = lint_tree(
        tmp_path,
        {
            "core/q.py": DEADLINE_CALLEE,
            "shard/r.py": (
                "from core.q import scan_groups\n"
                "def route(query, request=None, deadline=None, **kwargs):\n"
                f"    return {call}\n"
            ),
        },
    )
    assert report.findings == []


def test_deadline_only_checked_when_caller_accepts_one(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "core/q.py": DEADLINE_CALLEE,
            "shard/r.py": (
                "from core.q import scan_groups\n"
                "def route(query):\n"
                "    return scan_groups(query)\n"
            ),
        },
    )
    assert report.findings == []


CONTEXT_CALLEE = """
def scan_shard(query, ctx=None):
    return query
"""


@pytest.mark.parametrize(
    "call",
    [
        "scan_shard(query)",  # the context is simply not passed on
        "scan_shard(query, None)",
        "pool.submit(lambda: scan_shard(query))",  # dropped inside a closure
    ],
)
def test_read_context_drop_fires(tmp_path, call):
    report = lint_tree(
        tmp_path,
        {
            "core/q.py": CONTEXT_CALLEE,
            "shard/r.py": (
                "from core.q import scan_shard\n"
                "def route(query, ctx, pool=None):\n"
                f"    return {call}\n"
            ),
        },
    )
    assert rules_fired(report) == ["deadline-propagation"]
    (finding,) = report.findings
    assert "scan_shard" in finding.message and "read context" in finding.message


@pytest.mark.parametrize(
    "body",
    [
        "return scan_shard(query, ctx)",  # forwarded whole
        "return scan_shard(query, replace(ctx, home_unit=3))",  # rewritten per shard
        "shard_ctx = replace(ctx, max_d_bound=1.0)\n    return scan_shard(query, shard_ctx)",
        "return scan_groups(query, deadline=ctx.deadline)",  # unpacked at the leaf
        "return pool.submit(lambda: scan_shard(query, ctx))",
    ],
)
def test_read_context_forwarding_is_clean(tmp_path, body):
    report = lint_tree(
        tmp_path,
        {
            "core/q.py": CONTEXT_CALLEE + DEADLINE_CALLEE,
            "shard/r.py": (
                "from dataclasses import replace\n"
                "from core.q import scan_groups, scan_shard\n"
                "def route(query, ctx, pool=None):\n"
                f"    {body}\n"
            ),
        },
    )
    assert report.findings == []


def test_ctx_annotated_as_something_else_is_not_a_read_context(tmp_path):
    # ``ctx`` also names lint FileContexts and TraceContexts.
    report = lint_tree(
        tmp_path,
        {
            "core/q.py": CONTEXT_CALLEE,
            "shard/r.py": (
                "from core.q import scan_shard\n"
                "def route(query, ctx: 'TraceContext'):\n"
                "    return scan_shard(query)\n"
            ),
        },
    )
    assert report.findings == []


# ------------------------------------------------------------------ wal-first


def test_wal_first_fires_on_stage_before_append(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "ingest/p.py": (
                "class P:\n"
                "    def apply(self, kind, file):\n"
                "        self.store.stage_mutation(kind, file)\n"
                "        self.wal.append(kind, file)\n"
            ),
        },
    )
    assert rules_fired(report) == ["wal-first"]


def test_wal_first_clean_on_append_first_and_replay(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "ingest/p.py": (
                "class P:\n"
                "    def apply(self, kind, file):\n"
                "        self.wal.append(kind, file)\n"
                "        self.store.stage_mutation(kind, file)\n"
                "    def recover(self, records):\n"
                "        for kind, file in records:\n"
                "            self.store.stage_mutation(kind, file)\n"
                "    def collect(self, file, kept):\n"
                "        kept.append(file)\n"
                "        self.store.stage_mutation('insert', file)\n"
            ),
        },
    )
    assert report.findings == []


def test_wal_first_ignores_other_packages(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "service/s.py": (
                "def apply(store, wal, kind, file):\n"
                "    store.stage_mutation(kind, file)\n"
                "    wal.append(kind, file)\n"
            ),
        },
    )
    assert report.findings == []


# ------------------------------------------------------- lock-discipline


def test_lock_discipline_fires_on_fsync_under_lock(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "server/s.py": (
                "import os\n"
                "class S:\n"
                "    def flush(self, fd):\n"
                "        with self._lock:\n"
                "            os.fsync(fd)\n"
            ),
        },
    )
    assert rules_fired(report) == ["lock-discipline"]


def test_lock_discipline_clean_cases(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "server/s.py": (
                "import os\n"
                "class S:\n"
                "    def flush(self, fd):\n"
                "        with self._span('x'):\n"  # not a lock
                "            os.fsync(fd)\n"
                "    def defer(self, fd, pool):\n"
                "        with self._lock:\n"
                "            pool.submit(lambda: os.fsync(fd))\n"  # runs later
                "    def outside(self, fd):\n"
                "        with self._lock:\n"
                "            seq = self.next_seq()\n"
                "        os.fsync(fd)\n"
            ),
        },
    )
    assert report.findings == []


def test_lock_discipline_ignores_out_of_scope_dirs(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "replication/g.py": (
                "import time\n"
                "class G:\n"
                "    def slow(self):\n"
                "        with self.lock:\n"
                "            time.sleep(0.01)\n"  # deliberate fault injection
            ),
        },
    )
    assert report.findings == []


# -------------------------------------------------------- error-envelope


PROTOCOL_FIXTURE = """
_KNOWN_ERRORS = {
    "ValueError": ValueError,
    "ProtocolError": ValueError,
}
"""


def test_error_envelope_fires_on_unregistered_raise(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "server/protocol.py": PROTOCOL_FIXTURE,
            "server/w.py": (
                "def call(shard_id):\n"
                "    raise ShardUnavailableError(shard_id, 'gone')\n"
            ),
        },
    )
    assert rules_fired(report) == ["error-envelope"]
    (finding,) = report.findings
    assert "ShardUnavailableError" in finding.message


def test_error_envelope_clean_on_registered_and_transport(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "server/protocol.py": PROTOCOL_FIXTURE,
            "server/w.py": (
                "def call(payload):\n"
                "    if not payload:\n"
                "        raise ValueError('empty')\n"
                "    if payload == 'closed':\n"
                "        raise ConnectionClosed('eof')\n"
                "    raise ProtocolError('bad frame')\n"
            ),
            "replication/g.py": (
                "def fail():\n"
                "    raise GroupUnavailableError('out of scope dir')\n"
            ),
        },
    )
    assert report.findings == []


# --------------------------------------------------------- span-coverage


def test_span_coverage_fires_when_target_loses_its_span(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "server/server.py": (
                "class StoreServer:\n"
                "    def _execute(self, payload):\n"
                "        return payload\n"  # no span!
                "    def _mutate(self, payload):\n"
                "        with tracer.span('server.mutate'):\n"
                "            return payload\n"
            ),
        },
    )
    assert rules_fired(report) == ["span-coverage"]
    (finding,) = report.findings
    assert "StoreServer._execute" in finding.message


def test_span_coverage_fires_when_target_is_missing(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "server/server.py": (
                "class StoreServer:\n"
                "    def _execute(self, payload):\n"
                "        with tracer.span('server.execute'):\n"
                "            return payload\n"
                # _mutate renamed away entirely
            ),
        },
    )
    assert rules_fired(report) == ["span-coverage"]
    (finding,) = report.findings
    assert "StoreServer._mutate" in finding.message
    assert "catalog" in finding.message


def test_span_coverage_fires_when_a_catalogued_file_is_gone(tmp_path):
    # A tree holding the catalog is the package: every file it names must
    # exist, or the stages catalogued there would go unchecked.
    from repro.analysis.rules.spans import _TARGETS

    kept = {path for path, _ in _TARGETS} - {"replication/group.py"}
    report = lint_tree(
        tmp_path,
        {
            "analysis/rules/spans.py": "",
            **{path: (REPO_SRC / path).read_text(encoding="utf-8") for path in kept},
        },
    )
    assert rules_fired(report) == ["span-coverage"]
    (finding,) = report.findings
    assert finding.path == "analysis/rules/spans.py"
    assert "replication/group.py" in finding.message


# ------------------------------------------------------------ no-wall-clock


def test_wallclock_fires_in_core(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "core/c.py": (
                "import time, random\n"
                "def stamp():\n"
                "    return time.time(), random.random()\n"
            ),
        },
    )
    assert rules_fired(report) == ["no-wall-clock"]
    assert len(report.findings) == 2


def test_wallclock_clean_cases(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "core/c.py": (
                "import time\n"
                "import numpy as np\n"
                "def measure():\n"
                "    return time.perf_counter(), time.monotonic()\n"
                "def rng(seed):\n"
                "    return np.random.default_rng(seed)\n"
            ),
            "eval/e.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"  # out of scope: eval may timestamp
            ),
        },
    )
    assert report.findings == []


# ------------------------------------------------- bare-except / swallow


def test_bare_except_fires_anywhere(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "eval/e.py": (
                "def go():\n"
                "    try:\n"
                "        return 1\n"
                "    except:\n"
                "        return 0\n"
            ),
        },
    )
    assert rules_fired(report) == ["no-bare-except"]


def test_no_swallow_fires_on_silent_broad_handler(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "server/s.py": (
                "def loop(jobs):\n"
                "    for job in jobs:\n"
                "        try:\n"
                "            job()\n"
                "        except Exception:\n"
                "            continue\n"
            ),
        },
    )
    assert rules_fired(report) == ["no-swallow"]


def test_no_swallow_clean_cases(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "server/s.py": (
                "def loop(jobs, log):\n"
                "    for job in jobs:\n"
                "        try:\n"
                "            job()\n"
                "        except OSError:\n"  # narrow: deliberate
                "            pass\n"
                "        except Exception:\n"
                "            log.error('job failed')\n"  # recorded: fine
            ),
            "eval/e.py": (
                "def probe(run):\n"
                "    try:\n"
                "        run()\n"
                "    except Exception:\n"
                "        pass\n"  # out of scope: eval harness may sample
            ),
        },
    )
    assert report.findings == []


# ------------------------------------------------- suppression + baseline


def test_suppression_comment_waives_same_line_and_line_above(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "core/c.py": (
                "import time\n"
                "def stamp():\n"
                "    a = time.time()  # repro-lint: disable=no-wall-clock\n"
                "    # repro-lint: disable=no-wall-clock\n"
                "    b = time.time()\n"
                "    return a, b\n"
            ),
        },
    )
    assert report.findings == []
    assert len(report.suppressed) == 2


def test_suppression_is_per_rule(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "core/c.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro-lint: disable=lock-discipline\n"
            ),
        },
    )
    assert rules_fired(report) == ["no-wall-clock"]


def test_baseline_ratchets_but_does_not_grow(tmp_path):
    source = {
        "core/c.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    }
    report = lint_tree(tmp_path, source)
    assert len(report.findings) == 1

    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, report.findings)
    baseline = load_baseline(baseline_path)
    assert report.new_findings(baseline) == []

    # A second violation with the same fingerprint exceeds the allowance.
    (tmp_path / "core" / "c.py").write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time(), time.time()\n",
        encoding="utf-8",
    )
    grown = run_lint(tmp_path)
    assert len(grown.findings) == 2
    assert len(grown.new_findings(baseline)) == 1


def test_baseline_round_trip_format(tmp_path):
    source = {
        "core/c.py": "import time\ndef stamp():\n    return time.time()\n",
    }
    report = lint_tree(tmp_path, source)
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, report.findings)
    payload = json.loads(baseline_path.read_text())
    assert payload["version"] == 1
    assert payload["findings"] == [
        {
            "rule": "no-wall-clock",
            "path": "core/c.py",
            "symbol": "stamp",
            "count": 1,
        }
    ]


# ------------------------------------------------------------ self-hosting


def test_repo_lints_clean_against_committed_baseline():
    report = run_lint(REPO_SRC)
    baseline = load_baseline(BASELINE)
    fresh = report.new_findings(baseline)
    assert fresh == [], "\n".join(f.render() for f in fresh)
