"""The branch route's per-seed counts from compiled C (`kernel.c`).

`seed_counts(n, seeds)` gives what `census._seed_counts` gives.  The C code
builds each seed's problem itself from the definitions and shares no code
with the Python route, which stays as the reference the tests compare it
against.

`load` compiles the source on first use with sysconfig's CC into
`~/.cache/sumfree-kernel/`, a build directory that persists across
processes and is separate from the result cache (`--no-cache` governs
results only), so a box builds once and later processes start no compiler.
The library's name is a hash of the source, the compiler and the flags.  A
build writes a pid-suffixed temporary file and renames it into place, and
appends a trailer holding that hash and a digest of the compiled bytes, so
a truncated or foreign file at the name is rebuilt, never loaded.  When no
library can be built or loaded (no compiler, an unwritable directory, a
failed or timed-out build), `load` returns None and callers count in Python.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
from array import array
from pathlib import Path

SOURCE = Path(__file__).with_name("kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC")
# the build takes about 0.15 s on a 2-core Intel Xeon with gcc 12.2
BUILD_TIMEOUT_S = 60
# the upper half's vertices are the bits of one uint64 index mask
MAX_PART = 64
# kernel.c's return codes past 0, KERNEL_OK
_ERRORS = {1: (ValueError, "seeds must be masks of [n/2], n >= 1"),
           2: (OverflowError, "a count exceeds 64 bits"),
           3: (MemoryError, "the kernel's memo could not grow")}
_MAGIC = b"sumfree-kernel "


def build_dir() -> Path:
    return Path.home() / ".cache" / "sumfree-kernel"


def _compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _trailer(key: str, body: bytes) -> bytes:
    return _MAGIC + key.encode() + hashlib.sha256(body).hexdigest().encode()


def _intact(path: Path, key: str) -> bool:
    """Whether `path` holds a library built for `key`, whole."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    size = len(_trailer(key, b""))
    return len(data) > size and data[-size:] == _trailer(key, data[:-size])


def _build(cc: list[str], path: Path, key: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([*cc, *FLAGS, "-o", str(tmp), str(SOURCE)], check=True,
                       capture_output=True, timeout=BUILD_TIMEOUT_S)
        body = tmp.read_bytes()
        tmp.write_bytes(body + _trailer(key, body))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def load():
    """The kernel's entry point, `sumfree_seed_counts`, from the library
    built for this source, compiler and flags, built first if there is
    none; None if it cannot be built or loaded."""
    import ctypes
    cc = _compiler()
    try:
        key = hashlib.sha256(repr((SOURCE.read_bytes(), cc, FLAGS)).encode()).hexdigest()[:32]
        path = build_dir() / f"{key}.so"
        if not _intact(path, key):
            _build(cc, path, key)
        fn = ctypes.CDLL(str(path)).sumfree_seed_counts
    except (OSError, subprocess.SubprocessError):
        return None
    # buffers pass as addresses: a ctypes array type made per call would be
    # cyclic garbage
    fn.argtypes = (ctypes.c_int, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p)
    fn.restype = ctypes.c_int
    return fn


def seed_counts(n: int, seeds: list[int]) -> tuple[int, int]:
    """(f, f_max) over the sets of [n] whose part in [n/2] is in `seeds`,
    as `census._seed_counts` counts them.  Refuses n - n//2 > MAX_PART, and
    raises OverflowError rather than let a 64-bit sum wrap."""
    if n - n // 2 > MAX_PART:
        raise ValueError(f"the kernel takes n - n//2 <= {MAX_PART}, not {n - n // 2}")
    fn = load()
    if fn is None:
        raise RuntimeError("the compiled kernel could not be built or loaded")
    batch, out = array("Q", seeds), array("Q", (0, 0))
    code = fn(n, batch.buffer_info()[0], len(batch), out.buffer_info()[0])
    if code:
        error, message = _ERRORS[code]
        raise error(message)
    return out[0], out[1]
