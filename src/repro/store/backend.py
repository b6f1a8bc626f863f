"""Result-store backends: an atomic disk store with an in-memory front.

The store maps **string keys** (usually digests from
:mod:`repro.store.hashing`, optionally namespaced with ``/``) to
**JSON-safe payloads**.  Two backends implement the same small
protocol:

* :class:`MemoryBackend` — a dict; for tests and ephemeral runs.
* :class:`DiskBackend` — one JSON file per key under a root directory.
  Writes are **atomic**: the payload lands in a same-directory temp
  file first and is moved into place with :func:`os.replace`, so a
  SIGKILL at any instant leaves either the old entry, the new entry,
  or no entry — never a torn one.  Every file carries a versioned
  envelope (``repro-store-v1``) with the key it serves; entries whose
  envelope does not parse or does not match are treated as absent and
  dropped (counted under ``store.corrupt_dropped``), so a damaged
  cache degrades to recomputation, never to wrong answers.

:class:`ResultStore` composes a backend with a bounded in-memory LRU
front and hit/miss/eviction accounting (mirrored into :mod:`repro.obs`
as ``store.hits`` / ``store.misses`` / ``store.evictions`` /
``store.writes`` when enabled).

No evaluation path or CLI verb reads or writes a store: sweeps,
surfaces and Monte-Carlo distributions always recompute in process.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.errors import StoreError

__all__ = ["MemoryBackend", "DiskBackend", "ResultStore"]

#: Envelope format version written to every disk entry.
STORE_FORMAT = "repro-store-v1"

#: Keys are path-like: digest hex, dotted names, ``/`` namespaces.
_KEY_PATTERN = re.compile(r"^[A-Za-z0-9._-]+(?:/[A-Za-z0-9._-]+)*$")


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not _KEY_PATTERN.match(key):
        raise StoreError(
            f"bad store key {key!r}: keys are /-separated segments of "
            "[A-Za-z0-9._-]"
        )
    if any(segment in (".", "..") for segment in key.split("/")):
        raise StoreError(f"bad store key {key!r}: relative path segments")
    return key


class MemoryBackend:
    """Process-local backend: a plain dict, no durability."""

    def __init__(self) -> None:
        self._entries: Dict[str, object] = {}

    def get(self, key: str):
        return self._entries.get(_check_key(key))

    def put(self, key: str, payload) -> None:
        self._entries[_check_key(key)] = payload

    def put_new(self, key: str, payload) -> bool:
        if _check_key(key) in self._entries:
            return False
        self._entries[key] = payload
        return True

    def delete(self, key: str) -> bool:
        return self._entries.pop(_check_key(key), None) is not None

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._entries if k.startswith(prefix))

    def entry_count(self) -> int:
        return len(self._entries)

    def total_bytes(self) -> int:
        return 0


class DiskBackend:
    """One JSON file per key under ``root``; atomic replace on write.

    The key maps directly onto the directory layout
    (``sweep/abc/part-0`` → ``<root>/sweep/abc/part-0.json``), which
    keeps the store human-inspectable and makes prefix listing and
    garbage collection plain directory walks.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.corrupt_dropped = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, *_check_key(key).split("/")) + ".json"

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            self._drop_corrupt(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != STORE_FORMAT
            or envelope.get("key") != key
            or "payload" not in envelope
        ):
            self._drop_corrupt(path)
            return None
        return envelope["payload"]

    def _drop_corrupt(self, path: str) -> None:
        self.corrupt_dropped += 1
        if obs.ENABLED:
            obs.incr("store.corrupt_dropped")
        try:
            os.unlink(path)
        except OSError:
            pass

    def put(self, key: str, payload) -> None:
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        envelope = {"format": STORE_FORMAT, "key": key, "payload": payload}
        # Same-directory temp file so os.replace stays a single-volume
        # atomic rename.
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, separators=(",", ":"))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def put_new(self, key: str, payload) -> bool:
        """Create ``key`` only if absent; return whether this call won.

        Unlike :meth:`put` (atomic last-writer-wins replace), this uses
        an exclusive ``O_CREAT | O_EXCL`` create, so exactly one of any
        number of concurrent callers — including callers in other
        processes or on other hosts sharing the filesystem — succeeds.
        """
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        envelope = {"format": STORE_FORMAT, "key": key, "payload": payload}
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, separators=(",", ":"))
        return True

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
            return True
        except FileNotFoundError:
            return False

    def _walk(self) -> Iterator[Tuple[str, os.DirEntry]]:
        stack = [self.root]
        while stack:
            directory = stack.pop()
            try:
                entries = list(os.scandir(directory))
            except FileNotFoundError:
                continue
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    stack.append(entry.path)
                elif entry.name.endswith(".json") and not entry.name.startswith(
                    ".tmp-"
                ):
                    relative = os.path.relpath(entry.path, self.root)
                    key = relative[: -len(".json")].replace(os.sep, "/")
                    yield key, entry

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(
            key for key, _ in self._walk() if key.startswith(prefix)
        )

    def entry_count(self) -> int:
        return sum(1 for _ in self._walk())

    def total_bytes(self) -> int:
        return sum(entry.stat().st_size for _, entry in self._walk())

    def gc(self, max_bytes: int) -> Tuple[int, int]:
        """Delete oldest entries until the store fits ``max_bytes``.

        Returns ``(entries_removed, bytes_freed)``.  Age is mtime-based
        (eviction order = least recently *written*); empty directories
        left behind are pruned.
        """
        if max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = [
            (entry.stat().st_mtime, entry.stat().st_size, entry.path)
            for _, entry in self._walk()
        ]
        total = sum(size for _, size, _ in entries)
        removed = 0
        freed = 0
        for _, size, path in sorted(entries):
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
            if obs.ENABLED:
                obs.incr("store.gc_removed")
        self._prune_empty_dirs()
        return removed, freed

    def _prune_empty_dirs(self) -> None:
        # ``topdown=False`` lists subdirs from scan time, so a parent
        # whose children were just pruned still appears non-empty;
        # attempt the rmdir unconditionally and let it fail on content.
        for directory, _, _ in os.walk(self.root, topdown=False):
            if directory != self.root:
                try:
                    os.rmdir(directory)
                except OSError:
                    pass


class ResultStore:
    """A content-addressed result store: backend + in-memory LRU front.

    Parameters
    ----------
    backend:
        A :class:`DiskBackend` or :class:`MemoryBackend` (anything with
        the same protocol).
    max_front:
        Bound on the in-memory front; the least recently used entry is
        evicted beyond it.  ``0`` disables the front entirely (every
        get goes to the backend).
    """

    def __init__(self, backend, max_front: int = 1024):
        if max_front < 0:
            raise StoreError(f"max_front must be >= 0, got {max_front}")
        self.backend = backend
        self.max_front = max_front
        self._front: "OrderedDict[str, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._writes = 0

    @classmethod
    def at(cls, root: str, max_front: int = 1024) -> "ResultStore":
        """Disk-backed store rooted at ``root`` (created if missing)."""
        return cls(DiskBackend(root), max_front=max_front)

    @classmethod
    def in_memory(cls, max_front: int = 1024) -> "ResultStore":
        """Ephemeral store for tests and single-process runs."""
        return cls(MemoryBackend(), max_front=max_front)

    def _remember(self, key: str, payload) -> None:
        if self.max_front == 0:
            return
        self._front[key] = payload
        self._front.move_to_end(key)
        while len(self._front) > self.max_front:
            self._front.popitem(last=False)
            self._evictions += 1
            if obs.ENABLED:
                obs.incr("store.evictions")

    def get(self, key: str):
        """Payload for ``key`` or ``None``; front hit avoids the disk."""
        if key in self._front:
            self._front.move_to_end(key)
            self._hits += 1
            if obs.ENABLED:
                obs.incr("store.hits")
            return self._front[key]
        payload = self.backend.get(key)
        if payload is None:
            self._misses += 1
            if obs.ENABLED:
                obs.incr("store.misses")
            return None
        self._hits += 1
        if obs.ENABLED:
            obs.incr("store.hits")
        self._remember(key, payload)
        return payload

    def put(self, key: str, payload) -> None:
        """Durably store ``payload`` under ``key`` (atomic on disk)."""
        self.backend.put(key, payload)
        self._writes += 1
        if obs.ENABLED:
            obs.incr("store.writes")
        self._remember(key, payload)

    def put_new(self, key: str, payload) -> bool:
        """Exclusive create (see :meth:`DiskBackend.put_new`).

        Note the LRU front is process-local: a *lost* race still leaves
        the winner's payload on the backend, and this store's front is
        only updated when this call wins.  Cross-process coordination
        (leases) should use a backend directly.
        """
        created = self.backend.put_new(key, payload)
        if created:
            self._writes += 1
            if obs.ENABLED:
                obs.incr("store.writes")
            self._remember(key, payload)
        return created

    def delete(self, key: str) -> bool:
        """Remove one entry from the backend and the front."""
        self._front.pop(key, None)
        return self.backend.delete(key)

    def keys(self, prefix: str = "") -> List[str]:
        """Backend keys starting with ``prefix``, sorted."""
        return self.backend.keys(prefix)

    def cache_info(self) -> obs.CacheInfo:
        """Front statistics in the shared ``lru_cache`` shape."""
        return obs.CacheInfo(
            hits=self._hits,
            misses=self._misses,
            currsize=len(self._front),
            maxsize=self.max_front,
        )

    def stats(self) -> Dict[str, object]:
        """One JSON-safe dict of store health numbers."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "writes": self._writes,
            "front_entries": len(self._front),
            "front_max": self.max_front,
            "backend_entries": self.backend.entry_count(),
            "backend_bytes": self.backend.total_bytes(),
            "corrupt_dropped": getattr(self.backend, "corrupt_dropped", 0),
        }

    def gc(self, max_bytes: int) -> Tuple[int, int]:
        """Shrink the backend to ``max_bytes`` (disk backends only)."""
        gc = getattr(self.backend, "gc", None)
        if gc is None:
            return (0, 0)
        removed, freed = gc(max_bytes)
        if removed:
            # Entries may have vanished under the front; drop it rather
            # than serve payloads the backend no longer holds as "durable".
            self._front.clear()
        return removed, freed
