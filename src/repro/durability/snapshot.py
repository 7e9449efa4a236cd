"""Checkpoints: the broker's durable state, serialized whole.

A snapshot is the paper's precomputation output made durable: the
subscription table (the input ``I``), its tombstones, and the
cluster→multicast-group assignment (``S_q`` / ``M_q``) — everything a
restarted broker needs to *re-derive* the expensive in-memory pieces
(the packed S-tree, the routing caches) without replaying history.
Rectangles ride the :mod:`repro.io` codecs, so infinities and id
order survive the JSON round trip.

A snapshot also records the WAL LSN it covers (``checkpoint_lsn``):
recovery replays only records past it, and the journal may truncate
the WAL prefix below it (subject to the in-flight low-water mark).

Stores are torn-write-safe in both directions: writes go to a temp
file in the same directory and :func:`os.replace` in (a crash leaves
the previous snapshot intact), and reads verify an embedded BLAKE2b
digest — a damaged newest snapshot, or one whose digest is missing, is
skipped, falling back to the newest *valid* one, mirroring the WAL's
truncate-don't-trust policy.

**Each thing is encoded once.**  The stored text is
``canonical_json(snapshot.to_dict())`` and the digest is BLAKE2b-16
over the canonical text of the same payload without its ``digest`` and
``format_version`` members — the bytes they have always been.  Both
are assembled by :func:`repro.io.canonical_object` from one canonical
text per top-level field: the producer's where it handed one over in
``durable_state()["texts"]``, encoded otherwise.  A broker hands over
``table``'s (nearly all of the payload, kept by a
:class:`repro.io.TableEncoder`) and ``partition``'s (kept by the
:class:`~repro.clustering.groups.SpacePartition` until a group grows),
so a checkpoint of an unchanged broker encodes only scalars and
tombstones.  A snapshot computes its digest at most once and remembers
the 32 characters, not the text they cover: memory stores keep every
snapshot they are given.  Only a shipped snapshot keeps its field
texts, and the handed-over ones are strings the producer holds anyway.

That memo, and the sharing of one encoded table and partition between
consecutive snapshots, rest on a contract: **a ``Snapshot`` and the
dicts it holds are immutable once constructed.**  ``LogShipper``
re-ships one snapshot's :meth:`~Snapshot.shipped` form in every
catch-up, ``MemorySnapshotStore`` hands the same instance to every
``latest()``, and recovery reads ``table`` / ``partition`` /
``sessions`` without copying the parts it does not change — all three
rely on it.  Verification never does: :meth:`Snapshot.from_dict` and
:meth:`Snapshot.from_shipped` build a new snapshot from what they were
handed and compute its digest — over the field texts that arrived,
which are also the texts its fields are parsed from — on every
install; a payload's own ``digest`` member is only ever compared
against.  A stored canonical file less its ``digest`` and
``format_version`` members (they sort right after ``checkpoint_lsn``)
*is* the digested text, so a load hashes the file's own bytes and
encodes nothing; only a file whose bytes do not match goes to
:meth:`Snapshot.from_dict`.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..io import atomic_write_text, canonical_json, canonical_object

__all__ = [
    "Snapshot",
    "SnapshotStore",
    "MemorySnapshotStore",
    "FileSnapshotStore",
]

_FORMAT_VERSION = 1

#: The head of a canonical file: the ``checkpoint_lsn`` member, then the
#: two members the digest leaves out (the digest captured).
_STORED_HEAD = re.compile(
    rb'\{"checkpoint_lsn":-?[0-9]+,("digest":"([0-9a-f]{32})",'
    rb'"format_version":%d,)' % _FORMAT_VERSION
)


@dataclass(frozen=True)
class Snapshot:
    """One checkpoint of the broker's durable state."""

    snapshot_id: int
    #: The WAL LSN this snapshot covers: every SUBSCRIBE/UNSUBSCRIBE
    #: below it is already reflected in ``table``/``removed``.
    checkpoint_lsn: int
    #: :func:`repro.io.table_to_dict` encoding (full id space, in order).
    table: Dict
    #: Tombstoned subscription ids (sorted).
    removed: List[int] = field(default_factory=list)
    #: :meth:`repro.clustering.groups.SpacePartition.to_state` encoding.
    partition: Optional[Dict] = None
    #: Simulated time the checkpoint was taken (injected clock).
    taken_at: float = 0.0
    #: :meth:`repro.sessions.session.SessionManager.to_state` encoding
    #: of the subscriber-session cursor table, or ``None`` when the
    #: broker has no session layer attached.  Omitted from the
    #: serialized payload (and the digest) when absent, so snapshots
    #: from session-less brokers are byte-identical to format v1.
    sessions: Optional[Dict] = None
    #: Canonical text of the body fields whose text the producer
    #: already holds, by field name (see the module docstring); the
    #: rest are encoded on demand.
    texts: Dict[str, str] = field(
        default_factory=dict, compare=False, repr=False
    )
    _digest: Optional[str] = field(
        default=None, init=False, compare=False, repr=False
    )
    _shipped: Optional[Dict] = field(
        default=None, init=False, compare=False, repr=False
    )

    def _payload_body(self) -> Dict:
        body = {
            "snapshot_id": self.snapshot_id,
            "checkpoint_lsn": self.checkpoint_lsn,
            "table": self.table,
            "removed": sorted(int(x) for x in self.removed),
            "partition": self.partition,
            "taken_at": float(self.taken_at),
        }
        if self.sessions:
            body["sessions"] = self.sessions
        return body

    def to_dict(self) -> Dict:
        payload = {
            "format_version": _FORMAT_VERSION,
            **self._payload_body(),
        }
        payload["digest"] = self.digest()
        return payload

    def _body_texts(self) -> Dict[str, str]:
        """Canonical text of each body field, encoded only where the
        producer did not hand it over."""
        held = self.texts
        return {
            key: held.get(key) or canonical_json(value)
            for key, value in self._payload_body().items()
        }

    def _digest_of(self, texts: Dict[str, str]) -> str:
        """The digest over ``texts``, computed once and remembered."""
        if self._digest is None:
            body = canonical_object(texts).encode("utf-8")
            object.__setattr__(
                self,
                "_digest",
                hashlib.blake2b(body, digest_size=16).hexdigest(),
            )
        return self._digest

    def digest(self) -> str:
        """Content digest (excludes the digest field itself)."""
        return self._digest or self._digest_of(self._body_texts())

    def canonical(self) -> str:
        """``canonical_json(self.to_dict())``, assembled per field."""
        texts = self._body_texts()
        self._digest_of(texts)  # so digest() below encodes nothing again
        texts["digest"] = canonical_json(self.digest())
        texts["format_version"] = canonical_json(_FORMAT_VERSION)
        return canonical_object(texts)

    def shipped(self) -> Dict:
        """The wire form: ``{"texts": canonical text per body field,
        "digest": …}``, built once and shared by every re-ship."""
        if self._shipped is None:
            texts = self._body_texts()
            shipped = {"texts": texts, "digest": self._digest_of(texts)}
            object.__setattr__(self, "_shipped", shipped)
        return self._shipped

    @classmethod
    def from_shipped(
        cls, shipped: Dict, held: Optional[Snapshot] = None
    ) -> Snapshot:
        """Decode and verify a :meth:`shipped` form.  Each field is the
        text that arrived, kept as ``texts`` and parsed — the table's
        unless ``held`` already holds that very text parsed."""
        texts = shipped["texts"]
        text = texts["table"]
        body = {k: json.loads(v) for k, v in texts.items() if k != "table"}
        if held is not None and held.texts.get("table") == text:
            body["table"] = held.table
        else:
            body["table"] = json.loads(text)
        return cls._verified(body, shipped, texts)

    @classmethod
    def from_dict(cls, payload: Dict) -> Snapshot:
        """A verified snapshot, or ``ValueError`` for any other payload."""
        if not isinstance(payload, dict):
            raise ValueError(f"snapshot payload is a {type(payload).__name__}")
        version = payload.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported snapshot format version: {version!r}"
            )
        try:
            return cls._verified(payload, payload)
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed snapshot: {error!r}") from error

    @classmethod
    def _verified(
        cls, body: Dict, payload: Dict, texts: Optional[Dict] = None
    ) -> Snapshot:
        """A snapshot of ``body``'s values, whose own digest must equal
        the ``digest`` member ``payload`` carries."""
        snapshot = cls._of(body, texts)
        if "digest" not in payload:
            raise ValueError(
                f"snapshot {snapshot.snapshot_id}: digest missing "
                "(cannot be verified)"
            )
        if payload["digest"] != snapshot.digest():
            raise ValueError(
                f"snapshot {snapshot.snapshot_id}: digest mismatch "
                "(corrupt or tampered)"
            )
        return snapshot

    @classmethod
    def _of(cls, body: Dict, texts: Optional[Dict] = None) -> Snapshot:
        """A snapshot of ``body``'s values, unverified."""
        return cls(
            snapshot_id=int(body["snapshot_id"]),
            checkpoint_lsn=int(body["checkpoint_lsn"]),
            table=body["table"],
            removed=[int(x) for x in body.get("removed", [])],
            partition=body.get("partition"),
            taken_at=float(body.get("taken_at", 0.0)),
            sessions=body.get("sessions"),
            texts=texts or {},
        )


class SnapshotStore:
    """Where checkpoints live.  Newest-valid-wins retrieval."""

    def save(self, snapshot: Snapshot) -> None:
        raise NotImplementedError

    def latest(self) -> Optional[Snapshot]:
        """The newest snapshot that decodes and verifies, or ``None``."""
        raise NotImplementedError

    def ids(self) -> List[int]:
        """All retrievable snapshot ids, ascending (diagnostics)."""
        raise NotImplementedError


class MemorySnapshotStore(SnapshotStore):
    """Snapshots in a dict — the simulation default."""

    def __init__(self) -> None:
        self._snapshots: Dict[int, Snapshot] = {}

    def save(self, snapshot: Snapshot) -> None:
        self._snapshots[snapshot.snapshot_id] = snapshot

    def latest(self) -> Optional[Snapshot]:
        snapshots = self._snapshots
        return snapshots[max(snapshots)] if snapshots else None

    def ids(self) -> List[int]:
        return sorted(self._snapshots)


class FileSnapshotStore(SnapshotStore):
    """One JSON file per snapshot under a directory, written atomically."""

    _PREFIX = "snapshot-"
    _SUFFIX = ".json"

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, snapshot_id: int) -> Path:
        return self.directory / (
            f"{self._PREFIX}{snapshot_id:08d}{self._SUFFIX}"
        )

    def save(self, snapshot: Snapshot) -> None:
        # Renamed into place, the directory fsynced: a snapshot a host
        # crash loses sends recovery back to a stale checkpoint.
        atomic_write_text(
            self._path(snapshot.snapshot_id), snapshot.canonical()
        )

    def ids(self) -> List[int]:
        out: List[int] = []
        for path in self.directory.glob(
            f"{self._PREFIX}*{self._SUFFIX}"
        ):
            stem = path.name[len(self._PREFIX) : -len(self._SUFFIX)]
            try:
                out.append(int(stem))
            except ValueError:
                continue
        return sorted(out)

    def latest(self) -> Optional[Snapshot]:
        for snapshot_id in reversed(self.ids()):
            try:
                return _load(self._path(snapshot_id).read_bytes())
            except (ValueError, OSError):
                # Torn or corrupt: fall back to the previous checkpoint,
                # exactly like the WAL truncates at the last valid record.
                continue
        return None


def _load(data: bytes) -> Snapshot:
    """The verified snapshot a stored file holds, or ``ValueError``:
    its bytes hashed as they lie, less what :data:`_STORED_HEAD`
    captures, or else :meth:`Snapshot.from_dict`'s judgement."""
    payload = json.loads(data.decode("utf-8"))
    head = _STORED_HEAD.match(data)
    if head is not None and isinstance(payload, dict):
        digest = hashlib.blake2b(data[: head.start(1)], digest_size=16)
        digest.update(memoryview(data)[head.end(1):])
        stored = head.group(2).decode("ascii")
        if digest.hexdigest() == stored == payload.get("digest") and (
            payload.get("format_version") == _FORMAT_VERSION
        ):
            try:
                snapshot = Snapshot._of(payload)
            except (KeyError, TypeError, ValueError):
                pass  # from_dict says why
            else:
                object.__setattr__(snapshot, "_digest", stored)
                return snapshot
    return Snapshot.from_dict(payload)
