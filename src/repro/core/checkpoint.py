"""Versioned, checksummed, atomically-written snapshots.

The campaigns this repository reproduces -- long solver runs, multi-day
model integrations, the 14-figure report pipeline -- are exactly the
workloads that die to a preempted node or an operator Ctrl-C.  This
module is the storage layer of the resilience subsystem: a *checkpoint*
is a single ``.npz`` file holding

* the payload arrays (solver iterates, SSH fields, ...),
* a JSON metadata document (iteration counters, scalar solver state,
  event-ledger snapshots),
* an **envelope** recording the format version, a ``kind`` tag naming
  the producer (``"solver"``, ``"stepper"``), and a SHA-256 checksum
  over the canonical encoding of payload + metadata.

Write discipline mirrors the artifact cache: serialize to a temporary
file in the destination directory, ``flush`` + ``os.fsync``, then
``os.replace`` into place -- a crash mid-write can never leave a torn
checkpoint where a resume would find it.  A solver hands each snapshot
to its policy's writer thread (:meth:`CheckpointPolicy.begin`) and
keeps iterating while the file is written: one snapshot in flight at a
time, waited for by the next and by the end of the solve, which stops
the thread (:meth:`CheckpointPolicy.close`).  Reads verify
the envelope (version, kind, checksum) and raise
:class:`CheckpointError` on any mismatch; a resume never silently
continues from damaged state.

Consumers: :class:`~repro.solvers.base.IterativeSolver` (per-iteration
solver snapshots via :class:`CheckpointPolicy`) and
:class:`~repro.barotropic.stepper.BarotropicStepper` (per-step model
snapshots).  Both guarantee bit-identical resume: the restored run
produces exactly the iterates/fields an uninterrupted run would.
"""

import contextvars
import hashlib
import io
import json
import os
import queue
import struct
import tempfile
import threading
import time
import zipfile
import zlib

import numpy as np

from repro.core.cache import canonical_bytes
from repro.core.errors import ReproError

#: Bump when the checkpoint payload layout changes; readers refuse
#: snapshots from other versions outright (resuming across format
#: changes cannot be bit-identical, so it must not be silent).
#: Version 2: one ``"solver"`` kind for every solver and batch width
#: (version 1 had one layout per solver family and batch width).
CHECKPOINT_FORMAT_VERSION = 2

#: npz member holding the JSON envelope.
_ENVELOPE_KEY = "__checkpoint__"

#: Filename suffix shared by every checkpoint this module writes.
CHECKPOINT_SUFFIX = ".ckpt.npz"


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or verified."""


def sanitize_meta(value):
    """Coerce nested values into JSON-serializable form.

    Numpy scalars become Python scalars, arrays and tuples become
    lists; NaN/Inf floats pass through (Python's JSON codec round-trips
    them).  Anything unrepresentable falls back to its ``repr`` --
    checkpoint metadata is bookkeeping, never measurements.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): sanitize_meta(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_meta(v) for v in value]
    return repr(value)


def _payload_checksum(arrays, meta):
    """SHA-256 over the canonical encoding of payload + metadata.

    ``canonical_bytes`` sorts dict items, so the digest is independent
    of insertion order; array dtype/shape/content are all covered.  The
    encoding of the ``{name: array}`` dict is fed to the hash piece by
    piece, each array's bytes as they lie: the digest of
    ``canonical_bytes`` of the dict, with no copy of the payload made
    (and the GIL released while a large buffer is hashed).
    """
    h = hashlib.sha256()
    h.update(b"D{")
    for key, arr in sorted(((canonical_bytes(str(k)),
                             np.ascontiguousarray(np.asarray(v)))
                            for k, v in arrays.items()),
                           key=lambda item: item[0]):
        h.update(key)
        h.update(b"A" + str(arr.dtype).encode() + b"|"
                 + str(arr.shape).encode() + b"|")
        h.update(arr.reshape(-1).view(np.uint8))
        h.update(b";")
    h.update(b"}")
    h.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


#: Set on a policy's writer thread (:meth:`CheckpointPolicy.begin`).
_WRITER = threading.local()
#: Seconds a writer thread pauses between the steps of a snapshot, and
#: the member size after which it pauses.
_PAUSE, _LARGE = 1e-5, 1 << 14


def _pause():
    """On a writer thread, give the GIL away for a moment: a solve that
    waits for it takes it then.  (At the writer's short releases -- a
    ``write`` call -- the writer takes it back before a waiting thread
    wakes, and the solve waits on until the interpreter's switch
    interval makes the writer drop it.)"""
    if getattr(_WRITER, "active", False):
        time.sleep(_PAUSE)


#: The zip records ``_savez`` writes: a local file header, its zip64
#: extra field, a central directory header, the end of the directory.
_LOCAL = struct.Struct("<IHHHHHIIIHH")
_ZIP64 = struct.Struct("<HHQQ")
_CENTRAL = struct.Struct("<IHHHHHHIIIHHHHHII")
_END = struct.Struct("<IHHHHIIH")
_ZIP64_VERSION, _UNIX = 45, 3


def _savez(handle, payload):
    """Write ``payload`` as ``np.savez(handle, **payload)`` lays it out:
    one stored member ``<name>.npy`` an array, in order, each local
    header with its zip64 sizes (as ``np.savez`` forces them) -- but
    straight from the arrays' buffers, with the records made by
    ``struct`` and each member's CRC computed before it is written, so
    that no header is written twice (``zipfile`` rewrites each one after
    its data) and the Python run between two large writes stays short.
    ``np.load`` reads the file as it reads ``np.savez``'s."""
    stamp = time.localtime(time.time())
    date = (stamp.tm_year - 1980) << 9 | stamp.tm_mon << 5 | stamp.tm_mday
    clock = stamp.tm_hour << 11 | stamp.tm_min << 5 | stamp.tm_sec // 2
    entries, offset = [], 0
    for name, value in payload.items():
        array = np.asanyarray(value)
        header = io.BytesIO()
        fields = np.lib.format.header_data_from_array_1_0(array)
        np.lib.format.write_array_header_1_0(header, fields)
        header = header.getvalue()
        # A Fortran-ordered array is stored in its own order, as
        # ``np.save`` stores it; any other in C order.
        data = np.ascontiguousarray(
            array.T if fields["fortran_order"] else array)
        data = data.reshape(-1).view(np.uint8)
        crc = zlib.crc32(data, zlib.crc32(header))
        size = len(header) + data.nbytes
        member = (name + ".npy").encode("utf-8")
        flags = 0 if member.isascii() else 0x800
        extra = _ZIP64.pack(1, _ZIP64.size - 4, size, size)
        handle.write(_LOCAL.pack(0x04034B50, _ZIP64_VERSION, flags, 0, clock,
                                 date, crc, 0xFFFFFFFF, 0xFFFFFFFF,
                                 len(member), len(extra))
                     + member + extra + header)
        handle.write(data)
        if data.nbytes >= _LARGE:
            _pause()
        entries.append((member, flags, crc, size, offset))
        offset += _LOCAL.size + len(member) + len(extra) + size
    if offset >= 0xFFFFFFFF or len(entries) >= 0xFFFF:
        raise ValueError("snapshot too large for a zip without a zip64 "
                         "directory")
    directory = b"".join(
        _CENTRAL.pack(0x02014B50, _UNIX << 8 | _ZIP64_VERSION,
                      _ZIP64_VERSION, flags, 0, clock, date, crc, size, size,
                      len(member), 0, 0, 0, 0, 0o600 << 16, at) + member
        for member, flags, crc, size, at in entries)
    handle.write(directory + _END.pack(0x06054B50, 0, 0, len(entries),
                                       len(entries), len(directory), offset,
                                       0))


def write_checkpoint(path, kind, arrays=None, meta=None):
    """Atomically write a checkpoint; returns the final path.

    ``arrays`` maps names to numpy arrays, ``meta`` is a JSON-able dict
    (NaN/Inf floats are allowed -- Python's JSON codec round-trips
    them).  The file only appears under ``path`` once fully written and
    fsynced.
    """
    arrays = dict(arrays or {})
    meta = dict(meta or {})
    if _ENVELOPE_KEY in arrays:
        raise CheckpointError(
            f"array name {_ENVELOPE_KEY!r} is reserved for the envelope")
    for name, value in arrays.items():
        if np.asarray(value).dtype.hasobject:
            raise CheckpointError(
                f"array {name!r} holds Python objects; a checkpoint stores "
                f"numbers and strings only")
    envelope = {
        "version": CHECKPOINT_FORMAT_VERSION,
        "kind": str(kind),
        "checksum": _payload_checksum(arrays, meta),
        "meta": meta,
    }
    _pause()
    payload = {name: np.asarray(value) for name, value in arrays.items()}
    payload[_ENVELOPE_KEY] = np.array(json.dumps(envelope))
    _pause()

    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            _savez(handle, payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") \
            from exc
    return path


def read_checkpoint(path, kind=None):
    """Read and verify a checkpoint; returns ``(arrays, meta)``.

    Raises :class:`CheckpointError` when the file is missing, torn,
    carries a different format version, was written by a different
    producer than ``kind``, or fails its checksum.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            try:
                envelope = json.loads(str(data[_ENVELOPE_KEY][()]))
            except (KeyError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"checkpoint {path} has no valid envelope "
                    f"(not a checkpoint, or torn write): {exc}") from exc
            arrays = {name: data[name] for name in data.files
                      if name != _ENVELOPE_KEY}
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint {path} does not exist") \
            from None
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable (corrupt or truncated): "
            f"{exc}") from exc

    version = envelope.get("version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}; this "
            f"code reads version {CHECKPOINT_FORMAT_VERSION} -- refusing "
            f"a resume that could not be bit-identical")
    if kind is not None and envelope.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path} was written by {envelope.get('kind')!r}, "
            f"expected {kind!r}")
    meta = envelope.get("meta", {})
    expected = envelope.get("checksum")
    actual = _payload_checksum(arrays, meta)
    if actual != expected:
        raise CheckpointError(
            f"checkpoint {path} failed its integrity check "
            f"(sha256 {actual[:12]}... != recorded {str(expected)[:12]}...)"
            " -- the file is corrupt; refusing to resume from it")
    return arrays, meta


def list_checkpoints(directory, prefix=""):
    """Checkpoint paths under ``directory``, oldest first.

    Ordering is by the zero-padded sequence number embedded in the
    filename (lexicographic == numeric for a fixed prefix), so callers
    can take ``[-1]`` for the most recent snapshot.
    """
    if not os.path.isdir(directory):
        return []
    names = [n for n in os.listdir(directory)
             if n.startswith(prefix) and n.endswith(CHECKPOINT_SUFFIX)]
    return [os.path.join(directory, n) for n in sorted(names)]


def latest_checkpoint(directory, prefix=""):
    """Most recent checkpoint path in ``directory`` or ``None``."""
    paths = list_checkpoints(directory, prefix=prefix)
    return paths[-1] if paths else None


class CheckpointPolicy:
    """When and where to snapshot a long-running loop.

    Parameters
    ----------
    directory:
        Destination for the snapshot files (created on first write).
    every:
        Write a checkpoint each time the loop counter is a multiple of
        ``every`` (0 disables periodic snapshots; ``on_failure`` can
        still fire).
    on_failure:
        Also snapshot when the loop stops abnormally (a diagnosed
        :class:`~repro.core.errors.ConvergenceError`), so a repaired
        configuration can resume without losing the completed
        iterations.
    keep:
        Retain at most this many periodic snapshots, pruning the oldest
        (0 keeps everything).  Failure snapshots are never pruned.
    prefix:
        Filename prefix distinguishing producers sharing a directory.
    """

    def __init__(self, directory, every=50, on_failure=True, keep=3,
                 prefix="solve"):
        if every < 0:
            raise CheckpointError(f"every must be >= 0, got {every}")
        if keep < 0:
            raise CheckpointError(f"keep must be >= 0, got {keep}")
        self.directory = os.path.abspath(directory)
        self.every = int(every)
        self.on_failure = bool(on_failure)
        self.keep = int(keep)
        self.prefix = str(prefix)
        #: Paths written by this policy instance, in order.
        self.written = []
        #: The writer thread (started by the first :meth:`begin`, stopped
        #: by :meth:`close`), its queues of snapshots and of outcomes,
        #: and whether a snapshot is in flight.
        self._writer = self._jobs = self._outcomes = None
        self._in_flight = False

    def due(self, iteration):
        """Whether a periodic snapshot is due after ``iteration``."""
        return self.every > 0 and iteration % self.every == 0

    def path_for(self, iteration, failure=False):
        tag = "fail-" if failure else ""
        return os.path.join(
            self.directory,
            f"{self.prefix}-{tag}{iteration:08d}{CHECKPOINT_SUFFIX}")

    def write(self, iteration, kind, arrays, meta, failure=False):
        """Write one snapshot now, on the calling thread, and prune old
        periodic ones (the writer thread of :meth:`begin` runs this)."""
        path = write_checkpoint(self.path_for(iteration, failure=failure),
                                kind, arrays, meta)
        self.written.append(path)
        if not failure:
            self._prune()
        return path

    def begin(self, iteration, kind, arrays, meta, failure=False):
        """Hand one snapshot to the writer thread and return at once.

        Waits first for the snapshot in flight (:meth:`wait`), so the
        files land, and prune, one at a time in order.  ``arrays`` and
        ``meta`` become the writer's: the caller must not change them.
        The writer -- one thread for every snapshot until :meth:`close`
        -- runs :meth:`write` in the caller's context (``contextvars``).
        """
        self.wait()
        if self._writer is None:
            self._jobs, self._outcomes = queue.SimpleQueue(), queue.SimpleQueue()
            self._writer = threading.Thread(
                target=self._serve, args=(self._jobs, self._outcomes),
                name="checkpoint-writer", daemon=True)
            self._writer.start()
        self._jobs.put((contextvars.copy_context(),
                        (iteration, kind, arrays, meta, failure)))
        self._in_flight = True

    def _serve(self, jobs, outcomes):
        """The writer thread: each snapshot :meth:`begin` queues, written
        by :meth:`write`, its path or its error queued back."""
        _WRITER.active = True
        while True:
            job = jobs.get()
            if job is None:
                return
            context, (iteration, kind, arrays, meta, failure) = job
            try:
                outcomes.put(context.run(self.write, iteration, kind, arrays,
                                         meta, failure=failure))
            except Exception as exc:   # raised by wait(), on the caller
                outcomes.put(exc)

    def wait(self):
        """Block until the snapshot :meth:`begin` handed over is on
        disk; its path (``None``: none was in flight).  A write that
        failed raises its error here (:class:`CheckpointError`)."""
        if not self._in_flight:
            return None
        self._in_flight = False
        result = self._outcomes.get()
        if isinstance(result, Exception):
            raise result
        return result

    def close(self):
        """:meth:`wait`, then stop the writer thread (the next
        :meth:`begin` starts another): no writer outlives the loop that
        calls this."""
        try:
            return self.wait()
        finally:
            if self._writer is not None:
                self._jobs.put(None)
                self._writer.join()
                self._writer = self._jobs = self._outcomes = None

    def _prune(self):
        if self.keep <= 0:
            return
        periodic = [p for p in self.written
                    if f"{self.prefix}-fail-" not in os.path.basename(p)]
        for stale in periodic[:-self.keep]:
            try:
                os.remove(stale)
            except OSError:
                continue
            self.written.remove(stale)

    def latest(self):
        """Most recent snapshot on disk for this prefix (or ``None``)."""
        return latest_checkpoint(self.directory, prefix=self.prefix + "-")
