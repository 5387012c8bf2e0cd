"""The content-addressed result cache.

Results are stored by cache key (see :func:`repro.serve.jobs.cache_key`)
under two-character fan-out directories::

    cache/
      ab/abcdef....json      # canonical result payload bytes
      corrupt/ab/...         # quarantined torn/tampered payloads

Writes go through a temp file and ``os.replace``; a key that already
exists is left untouched (first write wins), which together with the
simulator's determinism guarantees that every reader of a key — across
workers, processes and submissions — sees byte-identical payloads.

A payload that fails verification (torn write, bit rot — see
:func:`repro.serve.jobs.verify_result_payload`) is moved aside by
:meth:`ResultCache.quarantine` into ``corrupt/`` with a diagnostics
sidecar, so the next worker to need that key re-simulates instead of
serving garbage forever.  The write path carries chaos failpoints
(no-ops unless an injector is installed).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import List, Optional

from repro.obs.session import current_session

__all__ = ["ResultCache"]


class ResultCache:
    """Byte-payload store addressed by hex digest keys."""

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        if len(key) < 3 or not all(
            c in "0123456789abcdef" for c in key
        ):
            raise ValueError(f"bad cache key {key!r}")
        return os.path.join(self.root, key[:2], f"{key}.json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def get(self, key: str) -> Optional[bytes]:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def put(self, key: str, payload: bytes) -> bool:
        """Store ``payload`` under ``key``; returns False when the key
        already existed (the stored bytes win — determinism makes the
        difference unobservable, and first-write-wins keeps concurrent
        workers from racing on content)."""
        path = self._path(key)
        if os.path.exists(path):
            return False
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            if os.path.exists(path):
                os.unlink(temp_path)
                return False
            fp = current_session().failpoints
            if fp.enabled:
                fp.hit("cache.put.before_replace", path=path)
            os.replace(temp_path, path)
            if fp.enabled:
                fp.hit("cache.put.after_replace", path=path)
            return True
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def quarantine(self, key: str, reason: str) -> Optional[str]:
        """Move a corrupt payload into ``corrupt/``; returns its path.

        First-write-wins means a bad payload would otherwise be served
        to every future hit on the key — quarantining clears the slot
        so the next miss re-simulates, and keeps the bad bytes (plus a
        ``.reason.json`` diagnostics sidecar) for inspection.  Returns
        ``None`` when the key vanished first (another worker already
        quarantined it).
        """
        source = self._path(key)
        corrupt_dir = os.path.join(self.root, "corrupt", key[:2])
        os.makedirs(corrupt_dir, exist_ok=True)
        target = os.path.join(corrupt_dir, f"{key}.json")
        sequence = 0
        while os.path.exists(target):
            sequence += 1
            target = os.path.join(
                corrupt_dir, f"{key}.{sequence}.json"
            )
        try:
            os.rename(source, target)
        except FileNotFoundError:
            return None
        try:
            with open(
                target[: -len(".json")] + ".reason.json",
                "w",
                encoding="ascii",
            ) as handle:
                json.dump(
                    {
                        "cache_key": key,
                        "reason": reason,
                        "quarantined_at": time.time(),
                        "by_pid": os.getpid(),
                    },
                    handle,
                    indent=1,
                    sort_keys=True,
                )
                handle.write("\n")
        except OSError:
            pass  # diagnostics are best-effort; the quarantine stands
        return target

    def keys(self) -> List[str]:
        found = []
        for directory, subdirs, files in os.walk(self.root):
            if os.path.abspath(directory) == os.path.abspath(self.root):
                subdirs[:] = [d for d in subdirs if d != "corrupt"]
            for name in files:
                if name.endswith(".json") and not name.startswith("."):
                    found.append(name[: -len(".json")])
        return sorted(found)

    def __len__(self) -> int:
        return len(self.keys())
