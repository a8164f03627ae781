"""Durable run ledger: a SQLite database of runs, slices, and events.

The paper's evaluation is built from per-run timing breakdowns; this
module makes every run's accounting survive the process so BENCH claims
stay traceable to recorded runs.  Three tables, keyed by the
content-addressing the serve layer already uses
(:meth:`~repro.serve.JobSpec.spec_hash`):

* ``runs`` — one row per submitted/executed run: spec identity
  (workload/n/seed/plan/dt/steps + sha256), source (``run`` / ``serve``
  / ``resume``), the shard that executed it (``None`` for single-host
  runs), backend, lifecycle timestamps, wall and simulated time,
  queue wait, cache/retry/dedup accounting, checkpoint directory,
  invariant-report pointer, a JSON metrics snapshot, and final status.
* ``slices`` — per scheduler slice (or checkpoint interval): sequence
  number, steps advanced, wall seconds.  Queue-wait and slice-latency
  percentiles for ``top``/``report`` come straight from here.
* ``events`` — free-form timestamped happenings (``command``,
  ``cache_hit``, ``dedup``, ``checkpoint``, ``guard``, ...), optionally
  attached to a run.

Writes are observers only: nothing in the simulation, scheduler, or
checkpoint path *reads* the ledger, so solo vs batched vs resumed runs
stay bit-identical with the ledger enabled (the ``repro.check``
determinism gate runs with it on in CI).

Each write method is one committed transaction guarded by a process
lock; the connection is opened with ``check_same_thread=False`` so the
serve scheduler's runner threads can share it.  A served job commits
twice: its accepted (``queued``) row at submit, so a crash still shows
which accepted jobs never finished, and its final row at the end, which
also carries the started stamp and the slice rows the job buffered
(:meth:`RunLedger.record_finished`).  A job still running after
:data:`repro.serve.service.LEDGER_FLUSH_S` writes its buffered rows
through :meth:`RunLedger.record_started`, at most once per interval, so
``top`` shows a long job's progress.  A cache hit is one transaction:
its run row, already ``cached``, and its ``cache_hit`` event
(:meth:`RunLedger.record_submitted` with ``status="cached"``).

The database runs in WAL mode (``PRAGMA journal_mode=WAL``) with
``PRAGMA synchronous=FULL``, set explicitly because some SQLite builds
open WAL connections at ``NORMAL``: a commit appends to the write-ahead
log and fsyncs it once, instead of creating, syncing and deleting a
rollback journal, and every committed write stays durable across a
power loss.  A database that
cannot switch, such as a read-only shard file, keeps its journal mode.
While a ledger is open its ``-wal`` and ``-shm`` side files are part of
it (the last connection to close folds them back in), so copy a live
ledger with :meth:`RunLedger.merge`, not by copying the file.

Schema identity lives in ``PRAGMA user_version`` (:data:`LEDGER_VERSION`)
— opening a newer or unrelated database raises
:class:`~repro.errors.LedgerError` instead of guessing, which is the
drift gate CI asserts on; an *older* supported
version is migrated forward in place (v1 → v2 adds the ``shard``
column, v2 → v3 adds ``tenant``).

:meth:`RunLedger.merge` folds another ledger file into this one with
run-id remapping — `repro-nbody serve merge-shards` uses it to combine
per-shard worker databases into one experiment database; shard
provenance survives the merge because every copied row keeps its
``shard`` value.  :meth:`RunLedger.shard_table` and the ``shard=``
filter on :meth:`RunLedger.runs` answer "which shard ran what".

The ledger is opt-in: :func:`default_ledger` returns the one the
``ledger_dir`` setting selects (explicit ``ledger=`` arguments beat it,
``ledger=False`` opts out; see :mod:`repro.config`), or ``None``.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError, LedgerError
from repro.obs.metrics import percentile

__all__ = [
    "LEDGER_NAME",
    "LEDGER_VERSION",
    "RunLedger",
    "default_ledger",
    "resolve_ledger",
]

#: File name used when a ledger is opened on a directory.
LEDGER_NAME = "ledger.sqlite"

#: Schema version recorded in ``PRAGMA user_version``.
LEDGER_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id        INTEGER PRIMARY KEY,
    spec_hash     TEXT,
    source        TEXT NOT NULL DEFAULT 'run',
    shard         TEXT,
    tenant        TEXT,
    workload      TEXT,
    n             INTEGER,
    seed          INTEGER,
    plan          TEXT,
    dt            REAL,
    steps         INTEGER,
    backend       TEXT,
    status        TEXT NOT NULL DEFAULT 'queued',
    submitted_s   REAL,
    started_s     REAL,
    finished_s    REAL,
    queue_wait_s  REAL,
    wall_s        REAL,
    simulated_s   REAL,
    force_passes  INTEGER,
    from_cache    INTEGER NOT NULL DEFAULT 0,
    dedup_count   INTEGER NOT NULL DEFAULT 0,
    retries       INTEGER NOT NULL DEFAULT 0,
    checkpoint_dir TEXT,
    invariant_report TEXT,
    metrics_json  TEXT,
    error         TEXT
);
CREATE INDEX IF NOT EXISTS idx_runs_spec_hash ON runs(spec_hash);
CREATE INDEX IF NOT EXISTS idx_runs_status ON runs(status);
CREATE TABLE IF NOT EXISTS slices (
    slice_id  INTEGER PRIMARY KEY,
    run_id    INTEGER NOT NULL REFERENCES runs(run_id),
    seq       INTEGER NOT NULL,
    steps     INTEGER NOT NULL,
    wall_s    REAL NOT NULL,
    at_s      REAL
);
CREATE INDEX IF NOT EXISTS idx_slices_run ON slices(run_id);
CREATE TABLE IF NOT EXISTS events (
    event_id  INTEGER PRIMARY KEY,
    run_id    INTEGER REFERENCES runs(run_id),
    at_s      REAL NOT NULL,
    kind      TEXT NOT NULL,
    detail    TEXT
);
CREATE INDEX IF NOT EXISTS idx_events_run ON events(run_id);
"""

#: Columns of ``runs`` settable at submission time.
_SUBMIT_COLUMNS = (
    "spec_hash", "source", "shard", "tenant", "workload", "n", "seed", "plan",
    "dt", "steps", "backend", "checkpoint_dir",
)

#: In-place forward migrations: from-version -> DDL statements.
_MIGRATIONS: dict[int, tuple[str, ...]] = {
    1: ("ALTER TABLE runs ADD COLUMN shard TEXT",),
    2: ("ALTER TABLE runs ADD COLUMN tenant TEXT",),
}

#: Columns of ``runs`` settable at finish time.
_FINISH_COLUMNS = (
    "wall_s", "simulated_s", "force_passes", "from_cache", "retries",
    "checkpoint_dir", "invariant_report", "error",
)


def _now() -> float:
    return time.time()


def _database_path(path: str | Path) -> Path:
    """The database file a ledger opened on ``path`` uses: a directory
    (or a path with no suffix) holds ``LEDGER_NAME``, anything else is
    the file itself."""
    path = Path(path)
    if path.is_dir() or not path.suffix:
        return path / LEDGER_NAME
    return path


class RunLedger:
    """A durable, thread-safe SQLite ledger of simulation runs.

    ``path`` may be a directory (the ledger lands at
    ``<path>/ledger.sqlite``) or an explicit database file.  Opening
    creates the schema when absent and validates ``PRAGMA user_version``
    when present.
    """

    def __init__(self, path: str | Path) -> None:
        path = _database_path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(str(path), check_same_thread=False)
        except sqlite3.Error as exc:  # pragma: no cover - environment
            raise LedgerError(f"cannot open ledger at {path}: {exc}") from exc
        self._conn.row_factory = sqlite3.Row
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.OperationalError:
            pass  # a read-only or busy database keeps its journal mode
        self._conn.execute("PRAGMA synchronous=FULL")
        self._init_schema()

    def _init_schema(self) -> None:
        with self._lock, self._db():
            version = self._conn.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                has_tables = self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name='runs'"
                ).fetchone()
                if has_tables is not None:
                    raise LedgerError(
                        f"{self.path} has a runs table but no schema "
                        "version; refusing to touch an unversioned database"
                    )
                self._conn.executescript(_SCHEMA)
                self._conn.execute(f"PRAGMA user_version = {LEDGER_VERSION}")
            elif version < LEDGER_VERSION:
                # Older supported schema: migrate forward in place, one
                # version at a time, so shard merges can mix old and new
                # worker databases.
                while version < LEDGER_VERSION:
                    for statement in _MIGRATIONS[version]:
                        self._conn.execute(statement)
                    version += 1
                self._conn.execute(f"PRAGMA user_version = {LEDGER_VERSION}")
            elif version != LEDGER_VERSION:
                raise LedgerError(
                    f"{self.path} is ledger schema v{version}; this build "
                    f"supports v{LEDGER_VERSION}"
                )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _db(self) -> sqlite3.Connection:
        if self._conn is None:
            raise LedgerError(f"ledger at {self.path} is closed")
        return self._conn

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def user_version(self) -> int:
        """The database's ``PRAGMA user_version`` (schema identity)."""
        with self._lock:
            return int(self._db().execute("PRAGMA user_version").fetchone()[0])

    # ------------------------------------------------------------------
    # writes (all observers; each call is one atomic commit)
    # ------------------------------------------------------------------
    def record_submitted(
        self, *, status: str = "queued",
        events: Iterable[tuple[str, str | None]] = (), **fields: Any,
    ) -> int:
        """Insert a run row; returns its ``run_id``.

        Accepts the :data:`_SUBMIT_COLUMNS` keywords (``spec_hash``,
        ``source``, ``workload``, ``n``, ``seed``, ``plan``, ``dt``,
        ``steps``, ``backend``, ``checkpoint_dir``).  ``status`` is
        ``"queued"`` for a run that will execute, or ``"cached"`` for
        one answered from the result cache, whose row is inserted
        finished and ``from_cache``.  ``events`` are ``(kind, detail)``
        pairs attached to the new run in the same transaction.
        """
        if status not in ("queued", "cached"):
            raise LedgerError(f"status must be queued/cached, got {status!r}")
        unknown = set(fields) - set(_SUBMIT_COLUMNS)
        if unknown:
            raise LedgerError(f"unknown run fields: {sorted(unknown)}")
        now = _now()
        cols = ["status", "submitted_s", *fields]
        vals = [status, now, *fields.values()]
        if status == "cached":
            cols += ["finished_s", "from_cache"]
            vals += [now, 1]
        sql = (
            f"INSERT INTO runs ({', '.join(cols)}) "
            f"VALUES ({', '.join('?' * len(cols))})"
        )
        with self._lock, self._db():
            run_id = int(self._conn.execute(sql, vals).lastrowid)
            self._conn.executemany(
                "INSERT INTO events (run_id, at_s, kind, detail) "
                "VALUES (?, ?, ?, ?)",
                [(run_id, now, kind, detail) for kind, detail in events],
            )
        return run_id

    def record_started(
        self, run_id: int, *, backend: str | None = None,
        checkpoint_dir: str | None = None, at_s: float | None = None,
        slices: Iterable[tuple[int, int, float, float]] = (),
    ) -> None:
        """Mark a run ``running`` as of ``at_s`` (default now), deriving
        ``queue_wait_s`` from submit, and append ``slices``.

        ``slices`` are ``(seq, steps, wall_s, at_s)`` rows the run has
        executed and not yet written.  Marking a running run again with
        the same stamp changes nothing, so a job that buffers its rows
        writes its progress through this method as often as it likes.
        """
        with self._lock, self._db():
            self._mark_started(run_id, at_s, backend, checkpoint_dir)
            self._insert_slices(run_id, slices)

    def record_slice(
        self, run_id: int, *, seq: int, steps: int, wall_s: float
    ) -> None:
        """Append one executed slice for ``run_id``."""
        with self._lock, self._db():
            self._insert_slices(run_id, [(seq, steps, wall_s, _now())])

    def record_event(
        self, kind: str, detail: str | None = None, *,
        run_id: int | None = None,
    ) -> None:
        """Append a timestamped event (optionally attached to a run)."""
        with self._lock, self._db():
            self._conn.execute(
                "INSERT INTO events (run_id, at_s, kind, detail) "
                "VALUES (?, ?, ?, ?)",
                (run_id, _now(), kind, detail),
            )

    def record_finished(
        self, run_id: int, *, status: str,
        metrics: Mapping[str, Any] | None = None,
        started: Mapping[str, Any] | None = None,
        slices: Iterable[tuple[int, int, float, float]] = (),
        **fields: Any,
    ) -> None:
        """Finalise a run row with ``status`` and closing accounting.

        Accepts the :data:`_FINISH_COLUMNS` keywords plus ``metrics``
        (JSON-serialised into ``metrics_json``).  ``started`` (the
        :meth:`record_started` keywords ``at_s``, ``backend``,
        ``checkpoint_dir``) and ``slices`` are rows the run buffered;
        they are written in the same transaction as the final row.
        """
        if status not in ("complete", "failed", "cached"):
            raise LedgerError(
                f"status must be complete/failed/cached, got {status!r}"
            )
        unknown = set(fields) - set(_FINISH_COLUMNS)
        if unknown:
            raise LedgerError(f"unknown run fields: {sorted(unknown)}")
        sets = ["status = ?", "finished_s = ?"]
        vals: list[Any] = [status, _now()]
        for col, val in fields.items():
            sets.append(f"{col} = ?")
            vals.append(int(val) if col == "from_cache" else val)
        if metrics is not None:
            sets.append("metrics_json = ?")
            vals.append(json.dumps(metrics, sort_keys=True))
        vals.append(run_id)
        with self._lock, self._db():
            if started is not None:
                self._mark_started(run_id, **started)
            self._insert_slices(run_id, slices)
            self._conn.execute(
                f"UPDATE runs SET {', '.join(sets)} WHERE run_id = ?", vals
            )

    def bump_dedup(self, run_id: int) -> None:
        """Count one coalesced duplicate submission onto ``run_id``."""
        with self._lock, self._db():
            self._conn.execute(
                "UPDATE runs SET dedup_count = dedup_count + 1 "
                "WHERE run_id = ?", (run_id,),
            )

    # -- statements shared by the writes (caller holds the lock) ----------
    def _mark_started(
        self, run_id: int, at_s: float | None = None,
        backend: str | None = None, checkpoint_dir: str | None = None,
    ) -> None:
        at = _now() if at_s is None else at_s
        sets = ["status = 'running'", "started_s = ?",
                "queue_wait_s = MAX(0.0, ? - COALESCE(submitted_s, ?))"]
        vals: list[Any] = [at, at, at]
        if backend is not None:
            sets.append("backend = ?")
            vals.append(backend)
        if checkpoint_dir is not None:
            sets.append("checkpoint_dir = ?")
            vals.append(checkpoint_dir)
        vals.append(run_id)
        self._conn.execute(
            f"UPDATE runs SET {', '.join(sets)} WHERE run_id = ?", vals
        )

    def _insert_slices(
        self, run_id: int, rows: Iterable[tuple[int, int, float, float]]
    ) -> None:
        self._conn.executemany(
            "INSERT INTO slices (run_id, seq, steps, wall_s, at_s) "
            "VALUES (?, ?, ?, ?, ?)",
            [(run_id, *row) for row in rows],
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _rows(self, sql: str, params: tuple = ()) -> list[dict[str, Any]]:
        with self._lock:
            cur = self._db().execute(sql, params)
            return [dict(r) for r in cur.fetchall()]

    def runs(
        self, *, status: str | None = None, spec_hash: str | None = None,
        plan: str | None = None, shard: str | None = None,
        tenant: str | None = None,
    ) -> list[dict[str, Any]]:
        """Run rows (newest last), optionally filtered."""
        clauses, params = [], []
        for col, val in (
            ("status", status), ("spec_hash", spec_hash), ("plan", plan),
            ("shard", shard), ("tenant", tenant),
        ):
            if val is not None:
                clauses.append(f"{col} = ?")
                params.append(val)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return self._rows(
            f"SELECT * FROM runs{where} ORDER BY run_id", tuple(params)
        )

    def run(self, run_id: int) -> dict[str, Any]:
        """One run row by id."""
        rows = self._rows("SELECT * FROM runs WHERE run_id = ?", (run_id,))
        if not rows:
            raise LedgerError(f"no run {run_id} in {self.path}")
        return rows[0]

    def slices(self, run_id: int) -> list[dict[str, Any]]:
        """Slice rows of one run, in execution order."""
        return self._rows(
            "SELECT * FROM slices WHERE run_id = ? ORDER BY slice_id",
            (run_id,),
        )

    def events(self, run_id: int | None = None) -> list[dict[str, Any]]:
        """Event rows — for one run, or all (``None``)."""
        if run_id is None:
            return self._rows("SELECT * FROM events ORDER BY event_id")
        return self._rows(
            "SELECT * FROM events WHERE run_id = ? ORDER BY event_id",
            (run_id,),
        )

    def slice_latency(
        self, *, run_id: int | None = None, plan: str | None = None
    ) -> dict[str, Any]:
        """count/mean/p50/p99 of slice wall seconds, optionally filtered."""
        sql = "SELECT s.wall_s FROM slices s"
        params: list[Any] = []
        clauses = []
        if run_id is not None:
            clauses.append("s.run_id = ?")
            params.append(run_id)
        if plan is not None:
            sql += " JOIN runs r ON r.run_id = s.run_id"
            clauses.append("r.plan = ?")
            params.append(plan)
        if clauses:
            sql += f" WHERE {' AND '.join(clauses)}"
        values = [row["wall_s"] for row in self._rows(sql, tuple(params))]
        if not values:
            return {"count": 0}
        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p50": percentile(values, 50.0),
            "p99": percentile(values, 99.0),
        }

    def job_table(self) -> list[dict[str, Any]]:
        """One row per run with joined slice stats — the ``top`` view."""
        rows = self.runs()
        slice_rows = self._rows(
            "SELECT run_id, COUNT(*) AS slices, SUM(steps) AS steps_done, "
            "SUM(wall_s) AS slice_wall_s FROM slices GROUP BY run_id"
        )
        by_run = {r["run_id"]: r for r in slice_rows}
        out = []
        for row in rows:
            agg = by_run.get(row["run_id"], {})
            latency = (
                self.slice_latency(run_id=row["run_id"])
                if agg.get("slices")
                else {"count": 0}
            )
            out.append(
                {
                    **row,
                    "slices": int(agg.get("slices") or 0),
                    "steps_done": int(agg.get("steps_done") or 0),
                    "slice_p50_s": latency.get("p50"),
                    "slice_p99_s": latency.get("p99"),
                }
            )
        return out

    def shard_table(self) -> list[dict[str, Any]]:
        """Per-shard aggregate rows — the provenance view of a merged DB.

        Single-host rows (no shard) aggregate under ``shard=None``.
        """
        return self._rows(
            "SELECT shard, COUNT(*) AS runs, "
            "SUM(status = 'complete') AS complete, "
            "SUM(status = 'failed') AS failed, "
            "SUM(status = 'cached') AS cached, "
            "SUM(COALESCE(retries, 0)) AS retries, "
            "SUM(COALESCE(dedup_count, 0)) AS deduped, "
            "AVG(wall_s) AS mean_wall_s, "
            "SUM(COALESCE(steps, 0)) AS steps "
            "FROM runs GROUP BY shard ORDER BY shard IS NULL, shard"
        )

    def tenant_table(self) -> list[dict[str, Any]]:
        """Per-tenant aggregate rows — the multi-tenancy accounting view.

        Untenanted rows (solo runs, pre-v3 databases) aggregate under
        ``tenant=None``.
        """
        return self._rows(
            "SELECT tenant, COUNT(*) AS runs, "
            "SUM(status = 'complete') AS complete, "
            "SUM(status = 'failed') AS failed, "
            "SUM(status = 'cached') AS cached, "
            "SUM(COALESCE(retries, 0)) AS retries, "
            "SUM(COALESCE(dedup_count, 0)) AS deduped, "
            "AVG(wall_s) AS mean_wall_s, "
            "AVG(queue_wait_s) AS mean_queue_wait_s, "
            "SUM(COALESCE(steps, 0)) AS steps "
            "FROM runs GROUP BY tenant ORDER BY tenant IS NULL, tenant"
        )

    def counts(self) -> dict[str, int]:
        """Total ``runs`` / ``slices`` / ``events`` rows — the merge gate.

        ``merge-shards`` asserts the merged database's counts equal the
        per-shard sums with these numbers.
        """
        with self._lock:
            db = self._db()
            return {
                table: int(
                    db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                )
                for table in ("runs", "slices", "events")
            }

    def plan_table(self) -> list[dict[str, Any]]:
        """Per-plan aggregate rows — the ``report`` view."""
        rows = self._rows(
            "SELECT plan, COUNT(*) AS runs, "
            "SUM(status = 'complete') AS complete, "
            "SUM(status = 'failed') AS failed, "
            "SUM(status = 'cached') AS cached, "
            "SUM(from_cache) AS from_cache, "
            "SUM(COALESCE(retries, 0)) AS retries, "
            "SUM(COALESCE(dedup_count, 0)) AS deduped, "
            "AVG(wall_s) AS mean_wall_s, "
            "AVG(queue_wait_s) AS mean_queue_wait_s, "
            "SUM(COALESCE(steps, 0)) AS steps "
            "FROM runs WHERE plan IS NOT NULL GROUP BY plan ORDER BY plan"
        )
        for row in rows:
            latency = self.slice_latency(plan=row["plan"])
            row["slice_p50_s"] = latency.get("p50")
            row["slice_p99_s"] = latency.get("p99")
        return rows

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def merge(self, other: "RunLedger | str | Path") -> int:
        """Fold every run of ``other`` into this ledger; returns the count.

        Run ids are remapped (they are only unique per file); slices and
        events follow their runs, and ``other``'s run-less events are
        copied as-is.  Everything is read from ``other`` first and then
        written in one transaction, so a merge that fails part-way leaves
        this ledger as it was (:class:`~repro.errors.LedgerError`) and a
        retried merge copies each run once.
        """
        owned = not isinstance(other, RunLedger)
        src = RunLedger(other) if owned else other
        try:
            runs = src.runs()
            slices = src._rows("SELECT * FROM slices ORDER BY run_id, slice_id")
            events = src.events()
        finally:
            if owned:
                src.close()
        try:
            with self._lock, self._db():
                id_map: dict[int, int] = {}
                for row in runs:
                    old_id = row.pop("run_id")
                    cols = [c for c, v in row.items() if v is not None]
                    cur = self._conn.execute(
                        f"INSERT INTO runs ({', '.join(cols)}) "
                        f"VALUES ({', '.join('?' * len(cols))})",
                        [row[c] for c in cols],
                    )
                    id_map[old_id] = int(cur.lastrowid)
                self._conn.executemany(
                    "INSERT INTO slices (run_id, seq, steps, wall_s, at_s) "
                    "VALUES (?, ?, ?, ?, ?)",
                    [
                        (id_map[s["run_id"]], s["seq"], s["steps"],
                         s["wall_s"], s["at_s"])
                        for s in slices if s["run_id"] in id_map
                    ],
                )
                # run-less events are copied; those of uncopied runs are not
                self._conn.executemany(
                    "INSERT INTO events (run_id, at_s, kind, detail) "
                    "VALUES (?, ?, ?, ?)",
                    [
                        (id_map.get(e["run_id"]), e["at_s"], e["kind"], e["detail"])
                        for e in events
                        if e["run_id"] is None or e["run_id"] in id_map
                    ],
                )
        except sqlite3.Error as exc:
            raise LedgerError(
                f"merge into {self.path} rolled back: {exc}"
            ) from exc
        return len(id_map)

    def __len__(self) -> int:
        with self._lock:
            return int(
                self._db().execute("SELECT COUNT(*) FROM runs").fetchone()[0]
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunLedger(path={str(self.path)!r}, runs={len(self)})"


#: Open default ledgers, keyed by database path.
_default_ledgers: dict[Path, RunLedger] = {}
_default_lock = threading.Lock()


def default_ledger() -> RunLedger | None:
    """The process-shared ledger a fresh session/service gets, or ``None``
    when the ``ledger_dir`` setting is unset.

    One :class:`RunLedger` is kept open per resolved path, so concurrent
    sessions and services append to the same database through one
    thread-safe connection; a ledger is opened only the first time its
    path is asked for.
    """
    from repro.config import resolve

    directory = resolve("ledger_dir")
    if directory is None:
        return None
    path = _database_path(directory)
    with _default_lock:
        ledger = _default_ledgers.get(path)
        if ledger is None:
            ledger = _default_ledgers[path] = RunLedger(path)
    return ledger


def resolve_ledger(ledger: "RunLedger | bool | None") -> RunLedger | None:
    """The one ``ledger=`` rule of sessions, services and coordinators.

    ``None`` gives the shared ledger of the ``ledger_dir`` setting
    (:func:`default_ledger`, itself ``None`` when the setting is unset),
    ``False`` gives no ledger, and a :class:`RunLedger` is used as given.
    Anything else raises :class:`~repro.errors.ConfigurationError`.
    """
    if ledger is None:
        return default_ledger()
    if ledger is False:
        return None
    if isinstance(ledger, RunLedger):
        return ledger
    raise ConfigurationError(
        f"ledger must be a RunLedger, False or None, got "
        f"{type(ledger).__name__} (open a path with RunLedger(path))"
    )
