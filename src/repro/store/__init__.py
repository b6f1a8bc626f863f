"""Run manifests: one recorded CLI invocation per file.

* :mod:`repro.store.hashing` — canonical JSON and its SHA-256 digest;
* :mod:`repro.store.registry` — :class:`RunRegistry`: one manifest
  per recorded CLI invocation (inputs digest, config, wall time,
  metrics snapshot, result digest) behind ``repro runs list|show|diff``.

See ``docs/store.md`` for the manifest layout.
"""

from repro import _lazy_namespace

_lazy_namespace(globals(), {
    ".registry": ("RunManifest", "RunRegistry", "DEFAULT_RUNS_ROOT"),
    ".hashing": ("canonical_json", "digest"),
})
