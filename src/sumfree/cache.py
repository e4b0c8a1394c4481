"""Content-addressed result cache for the CLI.

Entries are keyed by (operation, parameters, code-version tag) so a version
bump invalidates everything, and stored as the JSON payload the operation
would emit.  An entry that is corrupt, was stored for another request or
fails the caller's payload check (`valid`) is treated as a miss; the caller
recomputes and overwrites it.  Stores rename a finished temporary file over
the entry, or warn if they cannot write (say, the cache directory is a file).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Optional

VERSION_TAG = "sumfree-0.1.0"


def default_cache_dir() -> Path:
    env = os.environ.get("SUMFREE_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "sumfree"


def cache_key(operation: str, params: Any) -> str:
    blob = json.dumps([operation, params, VERSION_TAG], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_lookup(
    cache_dir: Path,
    operation: str,
    params: Any,
    valid: Callable[[Any], bool] = lambda payload: True,
) -> Optional[Any]:
    path = cache_dir / f"{cache_key(operation, params)}.json"
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text())
        stored = (entry["operation"], entry["params"], entry["version"])
        if stored != (operation, params, VERSION_TAG) or not valid(entry["payload"]):
            raise ValueError("entry does not match the request")
        return entry["payload"]
    except (ValueError, KeyError, TypeError, OSError) as exc:  # TypeError: not an object
        print(f"warning: corrupt cache entry {path.name}: {exc}", file=sys.stderr)
        return None


def cache_store(cache_dir: Path, operation: str, params: Any, payload: Any) -> None:
    path = cache_dir / f"{cache_key(operation, params)}.json"
    entry = {
        "operation": operation,
        "params": params,
        "version": VERSION_TAG,
        "payload": payload,
    }
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        print(f"warning: cache entry {path.name} not stored: {exc}", file=sys.stderr)
