"""Two-tier content-addressed artifact cache.

The expensive one-time artifacts of the reproduction -- EVP influence
matrices (paper section 4.2: ``O(n^3)`` per tile group), Lanczos
eigenvalue bounds (section 3.2) and whole measured solve event streams
-- are all *pure functions of their inputs*: the grid content, the
stencil, and the solver/preconditioner parameters.  This module gives
them a shared memoization substrate:

* a **memory tier**: a process-local dict holding live Python objects
  (the role the old per-module ``_CONFIG_CACHE``-style dicts played),
* a **disk tier**: content-addressed ``.npz`` blobs under a cache
  directory, written atomically, shared between processes and across
  runs.

Keys are SHA-256 digests of a canonical byte encoding of the inputs
(scalars, strings, tuples, dicts and numpy arrays), always salted with
:data:`CACHE_FORMAT_VERSION` by the callers so that format changes
invalidate old entries wholesale.

Self-healing
------------
Every entry written since format v4 carries a SHA-256 checksum over its
payload (arrays + caller metadata) inside the npz metadata member.
:meth:`ArtifactCache.load` verifies that checksum on every read: a
corrupted, truncated, or silently bit-flipped entry is **quarantined**
(moved into ``<cache_dir>/quarantine/``) and reported as a miss, never
raised -- callers fall through to their rebuild path and the store
heals itself.  :meth:`ArtifactCache.verify` audits the whole disk tier
offline (``repro cache verify [--repair]``) without disturbing healthy
entries.

The global cache used by the experiment layer defaults to memory-only;
the disk tier activates when ``REPRO_CACHE_DIR`` is set, when the CLI
passes ``--cache-dir`` (or its default), or when
:func:`configure_cache` is called explicitly.

Sharding
--------
With ``shards=N`` the disk tier spreads entries across ``N``
``shard-XX/`` subdirectories by key prefix, each protected by its own
advisory file lock, so many concurrent writers (service workers,
pipeline processes) never serialize on one directory.  Readers take the
shard lock *shared* for the duration of a read, writers and the LRU
evictor take it *exclusive* -- an entry currently being read can never
be evicted or replaced mid-read.  ``max_bytes`` activates
byte-accounted least-recently-used eviction (access times are bumped on
every hit); eviction counts persist per shard so ``repro cache stats``
reports them across processes.  An entry lives in exactly one place --
its key's shard, or the cache root when ``shards`` is unset.
"""

import contextlib
import hashlib
import json
import os
import struct
import tempfile
import zipfile

import numpy as np

try:  # pragma: no cover - fcntl is stdlib on every POSIX platform
    import fcntl
except ImportError:  # pragma: no cover - Windows: locks degrade to no-ops
    fcntl = None

#: Bump when the on-disk payload layout or key semantics change; every
#: caller folds this into its digest so stale entries simply miss.
#: v2: the solver contexts gained a true ``scale`` primitive (replacing
#: the ``axpy(factor-1, copy(v), v)`` workaround), which changes cached
#: numerics (Lanczos eigenbounds, solve iterates) in the last bits.
#: v3: the EVP ring correction stores ``W^-1`` from an LU solve
#: (``np.linalg.solve`` against the identity) instead of explicit
#: ``np.linalg.inv``; persisted ``r_*`` influence arrays change in the
#: last bits.
#: v4: entries carry a self-describing integrity envelope (SHA-256
#: content checksum, verified on every read); pre-v4 blobs have no
#: checksum and must not be trusted as verified.
CACHE_FORMAT_VERSION = 4

#: Filename prefix for every entry this cache writes, so ``clear()``
#: only ever deletes files it owns.
_FILE_PREFIX = "repro-"

#: npz member holding the JSON metadata of an entry.
_META_KEY = "__meta__"

#: Subdirectory (inside the cache dir) receiving damaged entries.
QUARANTINE_DIRNAME = "quarantine"

#: Prefix of the per-shard subdirectories (``shard-00`` ... ``shard-NN``).
SHARD_DIR_PREFIX = "shard-"

#: Name of the advisory lock file inside each shard directory.
_SHARD_LOCK_NAME = ".shard.lock"

#: Name of the persisted per-shard counter file (eviction totals
#: survive across processes; hits/misses stay per-process).
_SHARD_STATS_NAME = "shard-stats.json"


@contextlib.contextmanager
def _file_lock(lock_path, exclusive):
    """Advisory ``flock`` on ``lock_path`` (no-op where unsupported).

    Shared mode lets any number of readers proceed together; exclusive
    mode (writers, the evictor) waits for all of them to finish.  The
    lock file itself is tiny and never contains data.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


# ----------------------------------------------------------------------
# canonical digests
# ----------------------------------------------------------------------
def canonical_bytes(obj):
    """A stable byte encoding of nested Python/numpy values.

    Supports ``None``, bools, ints, floats, strings, bytes, numpy
    scalars and arrays, and (nested) tuples/lists/dicts.  Dict items are
    sorted by their encoded keys, so insertion order never leaks into a
    digest.  Floats encode via ``repr`` (exact round-trip in Python 3).
    """
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def _encode(obj, out):
    if obj is None:
        out += b"N;"
    elif isinstance(obj, bool):
        out += b"B1;" if obj else b"B0;"
    elif isinstance(obj, int):
        out += b"I" + str(obj).encode() + b";"
    elif isinstance(obj, float):
        out += b"F" + repr(obj).encode() + b";"
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += b"S" + str(len(raw)).encode() + b":" + raw
    elif isinstance(obj, bytes):
        out += b"Y" + str(len(obj)).encode() + b":" + obj
    elif isinstance(obj, np.generic):
        _encode(obj.item(), out)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        out += (b"A" + str(arr.dtype).encode() + b"|"
                + str(arr.shape).encode() + b"|")
        out += arr.tobytes()
        out += b";"
    elif isinstance(obj, (tuple, list)):
        out += b"T("
        for item in obj:
            _encode(item, out)
        out += b")"
    elif isinstance(obj, dict):
        items = sorted(
            ((canonical_bytes(k), v) for k, v in obj.items()),
            key=lambda kv: kv[0],
        )
        out += b"D{"
        for kb, v in items:
            out += kb
            _encode(v, out)
        out += b"}"
    else:
        raise TypeError(
            f"cannot canonically encode {type(obj).__name__!r} for a "
            "cache key; pass scalars, strings, arrays, tuples or dicts"
        )


def digest_of(*parts):
    """SHA-256 hex digest of the canonical encoding of ``parts``."""
    h = hashlib.sha256()
    h.update(struct.pack("<I", len(parts)))
    h.update(canonical_bytes(tuple(parts)))
    return h.hexdigest()


def decomp_signature(decomp):
    """A digestable summary of a block decomposition (or ``None``).

    Uses only the active-block geometry (duck-typed), which is exactly
    what block preconditioners and event rescaling depend on.
    """
    if decomp is None:
        return None
    blocks = tuple(
        (int(b.j0), int(b.j1), int(b.i0), int(b.i1))
        for b in decomp.active_blocks
    )
    return ("decomp", blocks)


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class CacheEntryDamaged(Exception):
    """Internal: one disk entry failed parsing or checksum verification.

    Never escapes :class:`ArtifactCache` -- ``load`` converts it into a
    quarantine + miss, ``verify`` into an audit finding.
    """


class ArtifactCache:
    """Two-tier (memory + content-addressed disk) artifact cache.

    Parameters
    ----------
    cache_dir:
        Directory for the disk tier; ``None`` disables persistence
        (memory tier only).  Created on first write.
    memory:
        Keep a process-local object tier (default True).
    shards:
        Spread disk entries across this many ``shard-XX/``
        subdirectories by key prefix, each with its own advisory file
        lock (see the module docstring).  ``None``/``0``/``1`` keeps
        the flat single-directory layout.
    max_bytes:
        Total on-disk byte budget; when set, each store triggers
        least-recently-used eviction in its shard down to the shard's
        share of the budget.  ``None`` (default) never evicts.

    Lookup counters: ``memory_hits`` / ``disk_hits`` count successful
    lookups per tier; ``misses`` counts lookups that found nothing in
    either tier (a disk lookup is only issued after a memory miss, so
    the sum is consistent); ``writes`` counts disk stores;
    ``quarantined`` counts damaged entries moved aside; ``rebuilds``
    counts stores that replaced a previously quarantined entry (the
    self-healing path after ``verify --repair`` or a damaged read);
    ``evictions`` counts entries removed by the LRU policy.
    """

    def __init__(self, cache_dir=None, memory=True, shards=None,
                 max_bytes=None):
        self.cache_dir = os.path.abspath(cache_dir) if cache_dir else None
        self._memory = {} if memory else None
        shards = int(shards) if shards else 0
        self.shards = shards if shards > 1 else 0
        self.max_bytes = int(max_bytes) if max_bytes else None
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.rebuilds = 0
        self.evictions = 0
        #: Per-shard in-process lookup counters: index -> dict.
        self._shard_counters = {}

    # ------------------------------------------------------------------
    # memory tier
    # ------------------------------------------------------------------
    def get_object(self, category, key):
        """Live object for ``(category, key)`` or ``None``."""
        if self._memory is None:
            return None
        obj = self._memory.get((category, key))
        if obj is not None:
            self.memory_hits += 1
        return obj

    def put_object(self, category, key, value):
        """Remember a live object in the memory tier."""
        if self._memory is not None:
            self._memory[(category, key)] = value
        return value

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _entry_name(self, category, key):
        return f"{_FILE_PREFIX}{category}-{key}.npz"

    def shard_index(self, key):
        """Shard owning ``key`` (0 when sharding is disabled).

        Keys are SHA-256 hex digests, so the leading prefix is already
        uniformly distributed; non-hex keys fall back to hashing.
        """
        if not self.shards:
            return 0
        text = str(key)
        try:
            prefix = int(text[:8], 16)
        except ValueError:
            prefix = int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)
        return prefix % self.shards

    def _shard_dir(self, index):
        if not self.shards:
            return self.cache_dir
        return os.path.join(self.cache_dir, f"{SHARD_DIR_PREFIX}{index:02d}")

    def _shard_dirs(self):
        """Every possible shard directory (existing or not)."""
        if self.cache_dir is None:
            return []
        if not self.shards:
            return [self.cache_dir]
        return [self._shard_dir(i) for i in range(self.shards)]

    def _path(self, category, key):
        return os.path.join(self._shard_dir(self.shard_index(key)),
                            self._entry_name(category, key))

    @property
    def _locking(self):
        """Whether shard locks are engaged (sharded or evicting)."""
        return bool(self.shards or self.max_bytes)

    def _lock(self, shard_dir, exclusive):
        """Advisory lock on one shard (no-op in flat unlocked mode)."""
        if not self._locking:
            return contextlib.nullcontext()
        os.makedirs(shard_dir, exist_ok=True)
        return _file_lock(os.path.join(shard_dir, _SHARD_LOCK_NAME),
                          exclusive)

    def _count_shard(self, index, field):
        entry = self._shard_counters.setdefault(
            index, {"hits": 0, "misses": 0, "evictions": 0})
        entry[field] += 1

    def quarantine_dir(self):
        """Directory receiving damaged entries (inside the cache dir)."""
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, QUARANTINE_DIRNAME)

    def _quarantine(self, path, reason):
        """Move a damaged entry aside instead of destroying evidence.

        The file lands in ``<cache_dir>/quarantine/`` under its own
        name and the reason is appended to ``quarantine/REASONS.log``;
        an operator (or the chaos-smoke CI job) can inspect exactly
        what was damaged and why.  Quarantining never raises -- if the
        move itself fails the file is deleted so the slot is freed
        either way.
        """
        qdir = self.quarantine_dir()
        try:
            os.makedirs(qdir, exist_ok=True)
            dest = os.path.join(qdir, os.path.basename(path))
            os.replace(path, dest)
            with open(os.path.join(qdir, "REASONS.log"), "a",
                      encoding="utf-8") as log:
                log.write(f"{os.path.basename(path)}\t{reason}\n")
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass
        self.quarantined += 1

    @staticmethod
    def _content_checksum(arrays, meta):
        """SHA-256 over the canonical payload encoding (order-stable)."""
        h = hashlib.sha256()
        h.update(canonical_bytes({str(k): np.asarray(v)
                                  for k, v in arrays.items()}))
        h.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
        return h.hexdigest()

    def _read_entry(self, path):
        """Parse one disk entry; returns ``(arrays, meta)``.

        Raises ``CacheEntryDamaged`` (carrying the reason) for anything
        unusable: unreadable npz, missing/garbled metadata member, no
        integrity envelope, or a checksum that does not match the
        recorded one.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                meta_doc = json.loads(str(data[_META_KEY][()]))
                arrays = {name: data[name] for name in data.files
                          if name != _META_KEY}
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile, json.JSONDecodeError,
                UnicodeDecodeError) as exc:
            raise CacheEntryDamaged(f"unreadable ({exc})") from exc
        if not (isinstance(meta_doc, dict) and "__checksum__" in meta_doc):
            raise CacheEntryDamaged("no integrity envelope")
        expected = meta_doc["__checksum__"]
        meta = meta_doc.get("meta", {})
        actual = self._content_checksum(arrays, meta)
        if actual != expected:
            raise CacheEntryDamaged(
                f"checksum mismatch (sha256 {actual[:12]}... != "
                f"recorded {str(expected)[:12]}...)")
        return arrays, meta

    def load(self, category, key):
        """Disk entry as ``(arrays, meta)``; ``None`` (a miss) otherwise.

        Every read verifies the entry's content checksum.  Corrupted,
        truncated or unreadable entries are quarantined (moved to
        ``<cache_dir>/quarantine/``) and reported as misses, never
        raised -- the caller's rebuild-and-store path then heals the
        slot transparently.
        """
        if self.cache_dir is None:
            self.misses += 1
            return None
        index = self.shard_index(key)
        path = self._path(category, key)
        shard_dir = os.path.dirname(path)
        if not os.path.exists(path):
            self.misses += 1
            self._count_shard(index, "misses")
            return None
        # Readers hold the shard lock *shared* for the whole read: the
        # exclusive-locked LRU evictor (and concurrent writers) can never
        # remove or replace an entry mid-read.
        with self._lock(shard_dir, exclusive=False):
            try:
                arrays, meta = self._read_entry(path)
            except CacheEntryDamaged as exc:
                # Judged under the same lock, so no writer can have put a
                # new entry in its place: a file that is not there
                # vanished before the lock was taken (evicted or cleared
                # by another process after the existence check) -- a
                # plain miss, not damage to quarantine.
                if os.path.exists(path):
                    self._quarantine(path, str(exc))
                self.misses += 1
                self._count_shard(index, "misses")
                return None
            if self.max_bytes:
                try:  # LRU recency: a hit makes the entry young
                    os.utime(path)
                except OSError:
                    pass
        self.disk_hits += 1
        self._count_shard(index, "hits")
        return arrays, meta

    def store(self, category, key, arrays=None, meta=None):
        """Atomically write ``(arrays, meta)``; returns the path or None.

        The entry embeds a SHA-256 checksum of its payload, is written
        to a temporary file *in the cache directory* (same filesystem,
        so the final rename cannot degrade to copy+delete), flushed and
        ``os.fsync``-ed, then moved into place with ``os.replace`` --
        concurrent readers and a crash mid-write can never observe a
        partial entry.
        """
        if self.cache_dir is None:
            return None
        path = self._path(category, key)
        shard_dir = os.path.dirname(path)
        os.makedirs(shard_dir, exist_ok=True)
        qdir = self.quarantine_dir()
        rebuilding = bool(
            qdir
            and os.path.exists(os.path.join(
                qdir, os.path.basename(path))))
        user_meta = meta if meta is not None else {}
        payload = dict(arrays or {})
        envelope = {
            "__checksum__": self._content_checksum(payload, user_meta),
            "format": CACHE_FORMAT_VERSION,
            "meta": user_meta,
        }
        payload[_META_KEY] = np.array(json.dumps(envelope))
        # The npz is fully written (and fsynced) *outside* the shard
        # lock; only the final rename and the eviction scan hold it.
        fd, tmp = tempfile.mkstemp(prefix=f"{_FILE_PREFIX}tmp-",
                                   dir=shard_dir)
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **payload)
                handle.flush()
                os.fsync(handle.fileno())
            with self._lock(shard_dir, exclusive=True):
                os.replace(tmp, path)
                if self.max_bytes:
                    self._evict_shard(shard_dir,
                                      self.shard_index(key),
                                      protect=path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            return None
        self.writes += 1
        if rebuilding:
            self.rebuilds += 1
        return path

    # ------------------------------------------------------------------
    # LRU eviction
    # ------------------------------------------------------------------
    def _shard_budget(self):
        """Byte budget of one shard (the total split evenly)."""
        return self.max_bytes // max(1, self.shards or 1)

    def _evict_shard(self, shard_dir, index, protect=None):
        """Drop least-recently-used entries until the shard fits.

        Runs under the shard's *exclusive* lock: no reader holds the
        shared lock, so an entry currently being read can never be
        evicted.  The just-written entry (``protect``) is never evicted
        even when it alone exceeds the budget.  Cumulative eviction
        counts persist in the shard's stats file so a fresh process
        (``repro cache stats``) still reports them.
        """
        entries = []
        try:
            names = os.listdir(shard_dir)
        except OSError:
            return 0
        for name in names:
            if not (name.startswith(_FILE_PREFIX) and name.endswith(".npz")):
                continue
            path = os.path.join(shard_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
        total = sum(size for _, size, _ in entries)
        budget = self._shard_budget()
        evicted = 0
        entries.sort()  # oldest access first
        for _, size, path in entries:
            if total <= budget:
                break
            if path == protect:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            self.evictions += evicted
            for _ in range(evicted):
                self._count_shard(index, "evictions")
            self._bump_persisted_evictions(shard_dir, evicted)
        return evicted

    def _shard_stats_path(self, shard_dir):
        return os.path.join(shard_dir, _SHARD_STATS_NAME)

    def _bump_persisted_evictions(self, shard_dir, count):
        """Add ``count`` to the shard's persisted eviction total.

        Called under the shard's exclusive lock, so the read-modify-
        write cannot race another evictor.
        """
        path = self._shard_stats_path(shard_dir)
        doc = self._read_persisted_stats(shard_dir)
        doc["evictions"] = int(doc.get("evictions", 0)) + int(count)
        try:
            fd, tmp = tempfile.mkstemp(prefix=".stats-tmp-", dir=shard_dir)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            os.replace(tmp, path)
        except OSError:
            pass

    def _read_persisted_stats(self, shard_dir):
        try:
            with open(self._shard_stats_path(shard_dir),
                      encoding="utf-8") as handle:
                doc = json.load(handle)
            return doc if isinstance(doc, dict) else {}
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return {}

    def verify(self, repair=False):
        """Audit every disk entry; returns a summary dict.

        Each entry is fully read back and its checksum recomputed.  The
        summary maps ``checked``/``ok`` to counts and ``corrupt`` to a
        list of ``(path, reason)`` pairs (an entry without an integrity
        envelope is corrupt).  With ``repair=True`` corrupt entries are
        quarantined on the spot (so the next lookup rebuilds them);
        without it the audit is read-only.
        """
        report = {"checked": 0, "ok": 0, "corrupt": [], "quarantined": 0}
        for path in self._disk_entries():
            report["checked"] += 1
            try:
                self._read_entry(path)
            except CacheEntryDamaged as exc:
                report["corrupt"].append((path, str(exc)))
                if repair:
                    self._quarantine(path, f"verify: {exc}")
                    report["quarantined"] += 1
                continue
            report["ok"] += 1
        return report

    # ------------------------------------------------------------------
    # accounting + maintenance
    # ------------------------------------------------------------------
    def _disk_entries(self, directory=None):
        """Entry paths under ``directory`` (default: the whole tier)."""
        dirs = [directory] if directory is not None else self._shard_dirs()
        out = []
        for base in dirs:
            if not os.path.isdir(base):
                continue
            for name in os.listdir(base):
                if name.startswith(_FILE_PREFIX) and name.endswith(".npz"):
                    out.append(os.path.join(base, name))
        return out

    @property
    def hits(self):
        """Total successful lookups across both tiers."""
        return self.memory_hits + self.disk_hits

    @property
    def hit_ratio(self):
        """Hits over total lookups (0.0 when nothing was looked up).

        Quarantined reads already count as misses (never as hits), so
        the ratio stays consistent through damage, ``verify --repair``
        and the rebuilds that follow.
        """
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def counters(self):
        """Snapshot of the lookup counters (plain dict)."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "rebuilds": self.rebuilds,
            "evictions": self.evictions,
        }

    def shard_stats(self):
        """Per-shard entry counts, bytes and counters (list of dicts).

        ``hits``/``misses`` are this process's lookups; ``evictions``
        reads the persisted per-shard totals, so a fresh ``repro cache
        stats`` process still reports evictions performed earlier by
        the service or the pipeline.
        """
        out = []
        for index, shard_dir in enumerate(self._shard_dirs()):
            entries = self._disk_entries(shard_dir)
            size = 0
            for path in entries:
                try:
                    size += os.path.getsize(path)
                except OSError:
                    pass
            local = self._shard_counters.get(
                index, {"hits": 0, "misses": 0, "evictions": 0})
            persisted = self._read_persisted_stats(shard_dir)
            out.append({
                "shard": index,
                "dir": shard_dir,
                "entries": len(entries),
                "bytes": size,
                "hits": local["hits"],
                "misses": local["misses"],
                "evictions": int(persisted.get("evictions", 0)),
            })
        return out

    def _quarantine_entries(self):
        qdir = self.quarantine_dir()
        if qdir is None or not os.path.isdir(qdir):
            return []
        return [os.path.join(qdir, n) for n in os.listdir(qdir)
                if n.startswith(_FILE_PREFIX) and n.endswith(".npz")]

    def stats(self):
        """Entry counts, on-disk bytes and lookup counters."""
        entries = self._disk_entries()
        size = 0
        for path in entries:
            try:
                size += os.path.getsize(path)
            except OSError:
                pass
        out = {
            "cache_dir": self.cache_dir,
            "disk_entries": len(entries),
            "disk_bytes": size,
            "memory_entries": (0 if self._memory is None
                               else len(self._memory)),
            "quarantine_entries": len(self._quarantine_entries()),
            "shards": self.shards,
            "max_bytes": self.max_bytes,
        }
        out.update(self.counters())
        if self.shards:
            out["per_shard"] = self.shard_stats()
        return out

    def clear(self):
        """Drop both tiers; returns the number of disk entries removed."""
        removed = 0
        for path in self._disk_entries():
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        if self._memory is not None:
            self._memory.clear()
        return removed

    def clear_memory(self):
        """Drop only the memory tier (used to simulate a fresh process)."""
        if self._memory is not None:
            self._memory.clear()


# ----------------------------------------------------------------------
# the process-global cache
# ----------------------------------------------------------------------
_GLOBAL_CACHE = None


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-artifacts``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-artifacts")


def _env_int(name):
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def get_cache():
    """The process-global cache (memory-only unless configured).

    The disk tier starts enabled only when ``REPRO_CACHE_DIR`` is set in
    the environment; the CLI and the pipeline enable it explicitly via
    :func:`configure_cache`.  ``REPRO_CACHE_SHARDS`` and
    ``REPRO_CACHE_MAX_BYTES`` opt the environment-configured cache into
    sharding and byte-budgeted LRU eviction.
    """
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = ArtifactCache(
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
            shards=_env_int("REPRO_CACHE_SHARDS"),
            max_bytes=_env_int("REPRO_CACHE_MAX_BYTES"))
    return _GLOBAL_CACHE


def set_cache(cache):
    """Swap the process-global cache; returns the previous one."""
    global _GLOBAL_CACHE
    old = _GLOBAL_CACHE
    _GLOBAL_CACHE = cache
    return old


def configure_cache(cache_dir=None, memory=True, shards=None,
                    max_bytes=None):
    """Install (and return) a fresh global cache with the given tiers."""
    set_cache(ArtifactCache(cache_dir=cache_dir, memory=memory,
                            shards=shards, max_bytes=max_bytes))
    return get_cache()
