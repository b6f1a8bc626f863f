"""Run registry: durable manifests for every recorded invocation.

A :class:`RunManifest` captures what one optimize/compare/contour run
*was*: the command, a canonical digest of its inputs, the config the
user passed, wall time, an :mod:`repro.obs` metrics snapshot, and a
digest of the result it printed.  :class:`RunRegistry` persists
manifests as one JSON file per run under ``.repro/runs/`` (atomic
write: a temporary file, then ``os.replace``) and answers the CLI verbs
``repro runs list | show | diff``.

Two runs with equal ``inputs_digest`` and different ``result_digest``
mean non-determinism or a model change — exactly the regression signal
the registry exists to surface.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import StoreError
from repro.store.hashing import digest

__all__ = ["RunManifest", "RunRegistry", "DEFAULT_RUNS_ROOT"]

MANIFEST_FORMAT = "repro-run-manifest-v1"

#: Default registry location, relative to the working directory.
DEFAULT_RUNS_ROOT = os.path.join(".repro", "runs")


@dataclass(frozen=True)
class RunManifest:
    """Everything durable about one recorded invocation."""

    run_id: str
    command: str
    created_utc: str
    wall_time_s: float
    inputs: Dict[str, object]
    inputs_digest: str
    result_digest: str
    metrics: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["format"] = MANIFEST_FORMAT
        return payload

    @classmethod
    def from_dict(cls, payload: dict, source: str = "") -> "RunManifest":
        where = f" in {source!r}" if source else ""
        if not isinstance(payload, dict):
            raise StoreError(f"run manifest{where} is not a JSON object")
        if payload.get("format") != MANIFEST_FORMAT:
            raise StoreError(
                f"unsupported run-manifest format "
                f"{payload.get('format')!r}{where}"
            )
        try:
            return cls(
                run_id=payload["run_id"],
                command=payload["command"],
                created_utc=payload["created_utc"],
                wall_time_s=float(payload["wall_time_s"]),
                inputs=dict(payload["inputs"]),
                inputs_digest=payload["inputs_digest"],
                result_digest=payload["result_digest"],
                metrics=dict(payload.get("metrics") or {}),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(
                f"malformed run manifest{where}: {error!r}"
            ) from error


class RunRegistry:
    """One directory of run manifests, newest-last."""

    def __init__(self, root: str = DEFAULT_RUNS_ROOT):
        self.root = os.path.abspath(root)

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def record(
        self,
        command: str,
        inputs: Dict[str, object],
        result,
        wall_time_s: float,
        metrics: Optional[Dict[str, object]] = None,
        now: Optional[time.struct_time] = None,
    ) -> RunManifest:
        """Digest the inputs and result, persist, return the manifest."""
        os.makedirs(self.root, exist_ok=True)
        inputs_digest = digest(inputs)
        stamp = time.strftime(
            "%Y%m%dT%H%M%S", now if now is not None else time.gmtime()
        )
        base_id = f"{stamp}-{inputs_digest[:8]}"
        run_id = base_id
        suffix = 1
        while os.path.exists(self._path(run_id)):
            run_id = f"{base_id}.{suffix}"
            suffix += 1
        manifest = RunManifest(
            run_id=run_id,
            command=command,
            created_utc=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", now if now is not None else time.gmtime()
            ),
            wall_time_s=float(wall_time_s),
            inputs=dict(inputs),
            inputs_digest=inputs_digest,
            result_digest=digest(result),
            metrics=dict(metrics or {}),
        )
        path = self._path(run_id)
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=self.root
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return manifest

    def _path(self, run_id: str) -> str:
        if (
            not run_id
            or "/" in run_id
            or os.sep in run_id
            or run_id.startswith(".")
        ):
            raise StoreError(f"bad run id {run_id!r}")
        return os.path.join(self.root, f"{run_id}.json")

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def run_ids(self) -> List[str]:
        """Every recorded run id, oldest first."""
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json") and not name.startswith(".")
        )

    def load(self, run_id: str) -> RunManifest:
        """Read one manifest back; typed errors on damage."""
        path = self._path(run_id)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise StoreError(
                f"no run {run_id!r} under {self.root!r}; "
                f"have {self.run_ids()[-5:]}"
            ) from None
        except json.JSONDecodeError as error:
            raise StoreError(
                f"malformed run manifest in {path!r}: {error}"
            ) from error
        return RunManifest.from_dict(payload, source=path)

    def list_manifests(self) -> List[RunManifest]:
        """Every readable manifest, oldest first (damaged ones raise)."""
        return [self.load(run_id) for run_id in self.run_ids()]

    # ------------------------------------------------------------------
    # Diff
    # ------------------------------------------------------------------
    def diff(
        self, run_a: str, run_b: str
    ) -> Dict[str, Tuple[object, object]]:
        """Field-by-field differences between two runs.

        Inputs and metrics are compared key-wise (``inputs.grid`` style
        names); identical fields are omitted.  An empty dict means the
        runs were equivalent in everything but identity.
        """
        a = self.load(run_a)
        b = self.load(run_b)
        differences: Dict[str, Tuple[object, object]] = {}
        for field_name in ("command", "wall_time_s", "inputs_digest",
                           "result_digest"):
            va, vb = getattr(a, field_name), getattr(b, field_name)
            if va != vb:
                differences[field_name] = (va, vb)
        for group_name, ga, gb in (
            ("inputs", a.inputs, b.inputs),
            ("metrics", a.metrics, b.metrics),
        ):
            for key in sorted(set(ga) | set(gb)):
                va, vb = ga.get(key), gb.get(key)
                if va != vb:
                    differences[f"{group_name}.{key}"] = (va, vb)
        return differences
