"""Crash-tolerant job journal: content-hashed stage-boundary records.

Layout of a job directory::

    <job>/
      job.json            immutable job configuration (written once)
      MANIFEST            append-only index: "<seq> <stage> <file> <sha256>"
      MANIFEST.lock       advisory exclusive runner lock (flock)
      records/<file>      one JSON record per journaled stage boundary
      decisions.jsonl     append-only retry decision log

Every record file is named and indexed by the SHA-256 of its exact
byte content, so a record that was being written when the process died
(``kill -9``) can never be mistaken for a valid resume point: loading
validates each manifest entry against the file's hash and stops at the
first entry that fails — everything before it is a consistent prefix.
Record files and ``job.json`` are written via write-to-temp + fsync +
atomic rename; manifest lines are appended and fsynced only *after*
the record they reference is durable, so the manifest never points at
a record that is not fully on disk.

The journal stores *payloads*; what goes into one is decided by
:mod:`repro.runtime.jobs`: the platform snapshot
(:meth:`repro.core.platform.PimAssembler.state_dict`), the k-mer
counter's host shadow and the table's readback.  Nothing derived is
journaled — the de Bruijn graph and the contigs are host functions of
the readback, rebuilt when a record is restored.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

try:  # pragma: no cover - POSIX only; the lock degrades to a no-op
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.errors import JournalError, JournalLockedError
from repro.observability.metrics import inc, observe
from repro.observability.spans import event

__all__ = ["JobJournal", "JournalLock", "RecordRef"]

#: version 3: a record stores each k-mer once — the counter's k-mers
#: and the readback's values travel as base64 little-endian 8-byte
#: words (:func:`encode_words`) — and every platform sub-array entry
#: carries packed uint64 ``"words"`` plus a ``"sha256"`` over their
#: bytes, which ``from_state`` verifies: the manifest hash proves the
#: *record file* arrived intact, the embedded digest proves the *stored
#: rows inside it* did not rot or get tampered with between write and
#: resume.  Journals of versions 1 and 2 are refused with a
#: :class:`~repro.errors.JournalError`.
JOURNAL_VERSION = 3
SUPPORTED_JOURNAL_VERSIONS = (3,)


def encode_words(values: np.ndarray) -> str:
    """A 1-D uint64 or int64 array as base64 little-endian words."""
    data = values.astype(values.dtype.newbyteorder("<"), copy=False).tobytes()
    return base64.b64encode(data).decode("ascii")


def decode_b64(text: object, what: str) -> bytes:
    """The bytes of a base64 record field, or :class:`JournalError`."""
    try:
        return base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise JournalError(f"{what} is not valid base64: {exc}") from None


def decode_words(text: object, dtype: str, what: str) -> np.ndarray:
    """Inverse of :func:`encode_words` (``dtype`` ``"<u8"`` or ``"<i8"``)."""
    data = decode_b64(text, what)
    if len(data) % 8:
        raise JournalError(
            f"{what} holds {len(data)} bytes, not a whole number of words"
        )
    return np.frombuffer(data, dtype=dtype)


def require_keys(record: object, keys: tuple[str, ...], what: str) -> None:
    """Raise :class:`JournalError` unless ``record`` is an object holding ``keys``."""
    if not isinstance(record, dict):
        raise JournalError(f"{what} is not an object")
    missing = [key for key in keys if key not in record]
    if missing:
        raise JournalError(f"{what} lacks {', '.join(map(repr, missing))}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    """Write bytes durably: temp file + fsync + rename into place."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@dataclass(frozen=True)
class RecordRef:
    """One validated manifest entry."""

    seq: int
    stage: str
    filename: str
    sha256: str


class JournalLock:
    """Advisory exclusive lock guarding a journal's MANIFEST.

    Two live runners pointed at the same job directory would interleave
    manifest appends and record writes; the second acquirer gets a
    typed :class:`~repro.errors.JournalLockedError` instead.  The lock
    is an ``flock`` on ``MANIFEST.lock``, which the kernel releases
    when the holding process dies — including ``kill -9`` — so a
    crashed job never leaves a stale lock behind and stays resumable.
    On platforms without :mod:`fcntl` the lock degrades to a no-op.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.path = self.root / "MANIFEST.lock"
        self._fd: "int | None" = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> None:
        """Take the lock, or raise :class:`JournalLockedError`."""
        if self._fd is not None:
            raise JournalLockedError(
                str(self.root), f"lock on {self.root} is already held"
            )
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            self._fd = -1
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise JournalLockedError(str(self.root))
        self._fd = fd

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        if fd >= 0:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    @contextmanager
    def holding(self) -> Iterator["JournalLock"]:
        self.acquire()
        try:
            yield self
        finally:
            self.release()


class JobJournal:
    """The on-disk journal of one assembly job."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.records_dir = self.root / "records"
        self.manifest_path = self.root / "MANIFEST"
        self.config_path = self.root / "job.json"
        self.decisions_path = self.root / "decisions.jsonl"

    def lock(self) -> JournalLock:
        """A fresh exclusive runner lock for this journal directory."""
        return JournalLock(self.root)

    # ----- creation ---------------------------------------------------------

    @property
    def exists(self) -> bool:
        return self.config_path.is_file()

    def create(self, config: dict) -> None:
        """Initialise a fresh job directory with an immutable config."""
        if self.exists:
            raise JournalError(
                f"job journal already exists at {self.root}; pass --resume "
                "to continue it or choose a fresh --job-dir"
            )
        self.records_dir.mkdir(parents=True, exist_ok=True)
        payload = dict(config)
        payload["journal_version"] = JOURNAL_VERSION
        _atomic_write(
            self.config_path,
            json.dumps(payload, sort_keys=True, indent=1).encode("ascii"),
        )

    def load_config(self) -> dict:
        if not self.exists:
            raise JournalError(f"no job journal at {self.root}")
        try:
            config = json.loads(self.config_path.read_text(encoding="ascii"))
        except (ValueError, OSError) as exc:
            raise JournalError(f"unreadable job.json in {self.root}: {exc}")
        if config.get("journal_version") not in SUPPORTED_JOURNAL_VERSIONS:
            raise JournalError(
                f"journal version {config.get('journal_version')!r} in "
                f"{self.root} is not supported "
                f"(expected one of {SUPPORTED_JOURNAL_VERSIONS})"
            )
        return config

    # ----- appending --------------------------------------------------------

    def append(self, stage: str, payload: dict) -> RecordRef:
        """Durably journal one stage boundary; returns its manifest ref."""
        if not stage or any(ch.isspace() for ch in stage):
            raise ValueError(f"invalid stage name {stage!r}")
        data = json.dumps(payload, sort_keys=True).encode("ascii")
        digest = _sha256(data)
        seq = len(self._manifest_lines())
        filename = f"{seq:04d}-{stage}.{digest[:12]}.json"
        self.records_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.records_dir / filename, data)
        line = f"{seq} {stage} {filename} {digest}\n"
        with open(self.manifest_path, "a", encoding="ascii") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        inc("job.checkpoint.bytes", len(data))
        inc("job.checkpoints")
        observe("job.checkpoint.record_bytes", len(data))
        event(
            "journal.append",
            lane="job",
            stage=stage,
            seq=seq,
            bytes=len(data),
        )
        return RecordRef(seq=seq, stage=stage, filename=filename, sha256=digest)

    def log_decision(self, decision: dict) -> None:
        """Append one retry decision (informational log)."""
        with open(self.decisions_path, "a", encoding="ascii") as handle:
            handle.write(json.dumps(decision, sort_keys=True) + "\n")

    def decisions(self) -> list[dict]:
        if not self.decisions_path.is_file():
            return []
        out = []
        for line in self.decisions_path.read_text(encoding="ascii").splitlines():
            try:
                out.append(json.loads(line))
            except ValueError:
                continue  # torn final append
        return out

    # ----- reading ----------------------------------------------------------

    def _manifest_lines(self) -> list[str]:
        if not self.manifest_path.is_file():
            return []
        return self.manifest_path.read_text(encoding="ascii").splitlines()

    def records(self) -> list[RecordRef]:
        """Validated manifest entries — the longest consistent prefix.

        A torn manifest line, a missing record file, or a record whose
        bytes no longer hash to the indexed digest ends the prefix; the
        entries before it remain valid resume points.
        """
        refs: list[RecordRef] = []
        for line in self._manifest_lines():
            parts = line.split()
            if len(parts) != 4:
                break
            try:
                seq = int(parts[0])
            except ValueError:
                break
            stage, filename, digest = parts[1], parts[2], parts[3]
            if seq != len(refs):
                break
            path = self.records_dir / filename
            try:
                data = path.read_bytes()
            except OSError:
                break
            if _sha256(data) != digest:
                break
            refs.append(
                RecordRef(seq=seq, stage=stage, filename=filename, sha256=digest)
            )
        return refs

    def load(self, ref: RecordRef) -> dict:
        data = (self.records_dir / ref.filename).read_bytes()
        if _sha256(data) != ref.sha256:
            raise JournalError(f"record {ref.filename} failed its hash check")
        return json.loads(data)

    def latest(self) -> "tuple[RecordRef, dict] | None":
        """The newest valid record and its payload, or ``None``."""
        refs = self.records()
        if not refs:
            return None
        return refs[-1], self.load(refs[-1])

