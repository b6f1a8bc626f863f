"""Run manifests: one recorded CLI invocation per file.

* :mod:`repro.store.hashing` — canonical JSON and its SHA-256 digest;
* :mod:`repro.store.registry` — :class:`RunRegistry`: one manifest
  per recorded CLI invocation (inputs digest, config, wall time,
  metrics snapshot, result digest) behind ``repro runs list|show|diff``;
* :mod:`repro.store.backend` — :class:`ResultStore` over an atomic
  disk or in-memory backend, a standalone key/value store that no
  evaluation path or CLI verb uses.

See ``docs/store.md`` for the manifest layout.
"""

from repro.store.backend import DiskBackend, MemoryBackend, ResultStore
from repro.store.hashing import canonical_json, digest
from repro.store.registry import DEFAULT_RUNS_ROOT, RunManifest, RunRegistry

__all__ = [
    "ResultStore",
    "DiskBackend",
    "MemoryBackend",
    "RunManifest",
    "RunRegistry",
    "DEFAULT_RUNS_ROOT",
    "canonical_json",
    "digest",
]
