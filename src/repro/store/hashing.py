"""Canonical hashing of run inputs and results.

Run manifests (:mod:`repro.store.registry`) identify a run's inputs
and its result by the SHA-256 digest of a *canonical JSON* rendering:
keys sorted, separators fixed, tuples flattened to lists, floats
rendered with Python's shortest round-trip ``repr`` (the :mod:`json`
default, deterministic across runs and platforms for IEEE-754
doubles).  Equal values always produce equal digests, so two runs of
the same command with the same inputs share an inputs digest, and
``repro runs diff`` can tell a changed result from an unchanged one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Mapping

from repro.errors import StoreError

__all__ = ["canonical_json", "digest"]


def _jsonable(value):
    """Recursively coerce ``value`` into a canonical JSON-safe form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        coerced = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise StoreError(
                    f"canonical JSON keys must be strings, got {key!r}"
                )
            coerced[key] = _jsonable(item)
        return coerced
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    raise StoreError(
        f"value of type {type(value).__name__} is not canonically hashable"
    )


def canonical_json(value) -> str:
    """Deterministic JSON text for ``value`` (sorted keys, no spaces)."""
    return json.dumps(
        _jsonable(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def digest(value) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    text = canonical_json(value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
