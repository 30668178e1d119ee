"""Persistent cross-process result cache.

A characterized delay table (:mod:`repro.library.characterize`) is a
pure function of plain content — its job grid and engine — which makes
it safe to share through a content-hash-keyed on-disk store: any
process (a second CLI invocation, a server restart) that computes the
same content writes the same key, and any other process reads it back
instead of recomputing.  Tables are the only thing persisted, because
they are the only artifact whose disk read beats recomputing it
(NOR3/NOR4 cells; see ``docs/performance.md``).

Store layout (under the cache root)::

    v1/                      # schema version — bump to invalidate all
      ab/                    # first two hex digits of the key
        ab3f...e2.json       # JSON payloads (library grids)

Keys are SHA-256 hashes of a canonical-JSON *content descriptor*
(:meth:`DiskCache.content_key`), so invalidation is automatic: change
any input — parameters, grid, engine, schema — and the key changes
with it.  Writes are atomic (temp file + ``os.replace``) so concurrent
writers at worst duplicate work, never corrupt an entry; readers that
find a corrupt or truncated entry treat it as a miss and overwrite it,
but the event is **not** silent: it increments the store's ``corrupt``
counter (reported by :meth:`DiskCache.info` and therefore visible in
``Session.cache_info()["disk"]``), so an operator can tell recompute-
because-new from recompute-because-damaged.

Activation
----------
The cache is **off** unless a root directory is given:

* ``REPRO_CACHE_DIR=<dir>`` in the environment (inherited by
  subprocesses), or
* :func:`configure` — what ``Session(cache_dir=...)`` calls; explicit
  configuration wins over the environment.

:func:`get_store` resolves the active store (or ``None``); per-root
instances are shared so hit/miss counters aggregate process-wide and
are reported by :meth:`repro.api.Session.cache_info`, ``repro version
--json`` and ``repro list --json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .obs import metrics as _metrics
from .obs.trace import span as _span

__all__ = ["DiskCache", "configure", "get_store", "content_key",
           "SCHEMA_VERSION"]

#: On-disk schema version; a bump orphans (and thereby invalidates)
#: every existing entry without touching the files.
SCHEMA_VERSION = 1

#: Environment variable naming the cache root directory.
ENV_VAR = "REPRO_CACHE_DIR"


def content_key(descriptor: dict) -> str:
    """SHA-256 key of a canonical-JSON content descriptor.

    Parameters
    ----------
    descriptor : dict
        Plain-JSON description of everything the cached artifact
        depends on (parameter dicts, grids, engine name, an artifact
        ``kind`` tag).  Key order does not matter — the JSON is
        canonicalized with sorted keys.

    Returns
    -------
    str
        64-hex-digit cache key.
    """
    canonical = json.dumps(descriptor, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write(path: Path, data: bytes) -> None:
    """Write *data* to *path* via a temp file and ``os.replace``.

    Readers see the old file or the new one, never a partial write;
    the temp file is removed if the write fails.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                               suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class DiskCache:
    """Content-addressed on-disk store with atomic writes.

    Parameters
    ----------
    root : str or Path
        Cache root directory (created lazily on first write).

    Notes
    -----
    Entries live under ``<root>/v<SCHEMA_VERSION>/<key[:2]>/`` as
    ``.json`` files.  Reads are miss-tolerant: unreadable entries
    count as misses and are recomputed/overwritten by the caller.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        # The counters are named instruments in the process-global
        # metrics registry (scraped at GET /v1/metrics), labeled by
        # cache root so several stores stay distinguishable; the
        # hits/misses/... attributes below read them back.
        registry = _metrics.registry()
        where = str(self.root)
        self._hit_count = registry.counter(
            "repro_cache_reads_total", "disk-cache read outcomes",
            labels={"dir": where, "outcome": "hit"})
        self._miss_count = registry.counter(
            "repro_cache_reads_total", "disk-cache read outcomes",
            labels={"dir": where, "outcome": "miss"})
        self._corrupt_count = registry.counter(
            "repro_cache_reads_total", "disk-cache read outcomes",
            labels={"dir": where, "outcome": "corrupt"})
        self._write_count = registry.counter(
            "repro_cache_writes_total", "disk-cache entries written",
            labels={"dir": where})

    # ------------------------------------------------------------------
    # counters (registry-backed)
    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Reads served from disk."""
        return int(self._hit_count.value)

    @property
    def misses(self) -> int:
        """Reads that found nothing usable (``corrupt`` included)."""
        return int(self._miss_count.value
                   + self._corrupt_count.value)

    @property
    def writes(self) -> int:
        """Entries written."""
        return int(self._write_count.value)

    @property
    def corrupt(self) -> int:
        """Reads that found an undecodable entry on disk."""
        return int(self._corrupt_count.value)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def _schema_dir(self) -> Path:
        return self.root / f"v{SCHEMA_VERSION}"

    def _path(self, key: str, suffix: str) -> Path:
        return self._schema_dir / key[:2] / f"{key}{suffix}"

    # ------------------------------------------------------------------
    # JSON payloads
    # ------------------------------------------------------------------

    def get_json(self, key: str):
        """Load a JSON entry, or ``None`` on a miss.

        A present-but-unreadable entry (truncated write the atomic
        rename should have prevented, disk damage, foreign bytes) is
        still a miss, but additionally counted in :attr:`corrupt`.

        Parameters
        ----------
        key : str
            A :func:`content_key` hash.
        """
        path = self._path(key, ".json")
        with _span("cache.get", kind="json", key=key[:12]) as live:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except FileNotFoundError:
                self._miss_count.inc()
                live.set(outcome="miss")
                return None
            except (OSError, json.JSONDecodeError,
                    UnicodeDecodeError):
                self._corrupt_count.inc()
                live.set(outcome="corrupt")
                return None
            self._hit_count.inc()
            live.set(outcome="hit")
            return payload

    def put_json(self, key: str, payload) -> None:
        """Atomically store a JSON-serializable payload under *key*."""
        with _span("cache.put", kind="json", key=key[:12]):
            data = json.dumps(payload,
                              sort_keys=True).encode("utf-8")
            atomic_write(self._path(key, ".json"), data)
            self._write_count.inc()

    # ------------------------------------------------------------------
    # introspection / maintenance
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of entries currently on disk (current schema)."""
        if not self._schema_dir.is_dir():
            return 0
        return sum(1 for path in self._schema_dir.glob("*/*")
                   if path.suffix == ".json")

    def info(self) -> dict:
        """Counters and location: ``{dir, hits, misses, writes,
        corrupt, entries}``.

        ``corrupt`` counts reads that found an entry on disk but could
        not decode it (every one is also included in ``misses``).
        """
        return {"dir": str(self.root), "hits": self.hits,
                "misses": self.misses, "writes": self.writes,
                "corrupt": self.corrupt, "entries": len(self)}

    def clear(self) -> int:
        """Delete every entry of the current schema; returns the
        number of removed files."""
        removed = 0
        if self._schema_dir.is_dir():
            for path in sorted(self._schema_dir.glob("*/*")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - racing writer
                    pass
        return removed

    def __repr__(self) -> str:
        return (f"DiskCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses})")


#: Explicitly configured store (wins over the environment);
#: ``_UNSET`` means "fall back to REPRO_CACHE_DIR".
_UNSET = object()
_CONFIGURED = _UNSET
#: Per-root instances, so counters aggregate process-wide.
_STORES: dict[str, DiskCache] = {}


def _store_for(root: "str | Path") -> DiskCache:
    key = str(Path(root))
    if key not in _STORES:
        _STORES[key] = DiskCache(key)
    return _STORES[key]


def configure(cache_dir: "str | Path | None"):
    """Set (or clear) the process-wide cache root explicitly.

    Parameters
    ----------
    cache_dir : str or Path or None
        Cache root directory; ``None`` disables the cache even if
        ``REPRO_CACHE_DIR`` is set.

    Returns
    -------
    DiskCache or None
        The active store after reconfiguration.

    Notes
    -----
    Explicit configuration is process-wide — it is what
    ``Session(cache_dir=...)`` uses, and worker processes forked
    *after* the call inherit it.  Call
    :func:`unconfigure` to fall back to the environment.
    """
    global _CONFIGURED
    _CONFIGURED = None if cache_dir is None else _store_for(cache_dir)
    return _CONFIGURED


def unconfigure() -> None:
    """Drop the explicit configuration (environment rules again)."""
    global _CONFIGURED
    _CONFIGURED = _UNSET


def get_store() -> "DiskCache | None":
    """The active persistent store, or ``None`` when caching is off.

    Explicit :func:`configure` wins; otherwise ``REPRO_CACHE_DIR``
    is consulted on every call (so tests and subprocesses may flip
    it at runtime).
    """
    if _CONFIGURED is not _UNSET:
        return _CONFIGURED
    root = os.environ.get(ENV_VAR)
    if not root:
        return None
    return _store_for(root)
