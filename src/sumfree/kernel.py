"""Compiled C (`kernel.c`): the MIS recursion, the branch route's per-seed
counts, the two-step listing and the oracle route's counting DFS.

Each of the four entry points has one Python twin that takes the same
arguments and is its reference in the tests.  `mis_search(nbr, free, cover,
out)` is `mis._search`'s recursion, pivot rule and memo on at most MAX_PART
vertices and pairs; `mis._mis` runs it, or `_search` when it returns None.
`seed_counts(n, seeds)` is `census._seed_counts` and `seed_listing(n, part,
seeds, cap)` is `census._seed_listings`: each seed's problem is built in C
from the definitions, then counted, or listed by the same search that
`mis_search` runs.  `census` runs them when the kernel loads (and, for the
listing, when `listing_fits`), and their twins otherwise.
`dfs_counts(n, cut, stripe, stripes)` is `census._dfs_counts`, for
`census.oracle_counts`; it shares no C function with the other three, only
this loader.

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
import sysconfig
from array import array
from pathlib import Path
from typing import Optional, Sequence

from .mis import EnumerationLimitError

SOURCE = Path(__file__).with_name("kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC")
# the build takes about 0.15 s on a 2-core Intel Xeon with gcc 12.2
BUILD_TIMEOUT_S = 60
# vertices are the bits of one uint64 index mask, and a problem has at most
# one cover pair per vertex
MAX_PART = 64
# the listing's masks are at most two uint64 words
MAX_N = 128
# kernel.c's return codes past 1, KERNEL_BAD_INPUT, which each entry point
# words itself
_ERRORS = {2: (OverflowError, "a count exceeds 64 bits"),
           3: (MemoryError, "the kernel's memo or listing could not grow"),
           4: (EnumerationLimitError, "a seed has more maximal independent sets than the cap")}
_MAGIC = b"sumfree-kernel "
_WORD = (1 << 64) - 1


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
    """Compile the library to `path`, or raise OSError; only a build imports subprocess."""
    import subprocess
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([*cc, *FLAGS, "-o", str(tmp), str(SOURCE)], check=True,
                       capture_output=True, timeout=BUILD_TIMEOUT_S)
        body = tmp.read_bytes()
        tmp.write_bytes(body + _trailer(key, body))
        os.replace(tmp, path)
    except subprocess.SubprocessError as error:
        raise OSError(f"building {SOURCE.name} failed: {error}") from error
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def load():
    """The library built for this source, compiler and flags, built first
    if there is none, with its entry points declared; None if it cannot be
    built or loaded."""
    import ctypes
    cc = _compiler()
    try:
        key = hashlib.sha256(repr((SOURCE.read_bytes(), cc, FLAGS)).encode()).hexdigest()[:32]
        path = build_dir() / f"{key}.so"
        if not _intact(path, key):
            _build(cc, path, key)
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    # buffers pass as addresses: a ctypes array type made per call would be
    # cyclic garbage
    addr, c_int = ctypes.c_void_p, ctypes.c_int
    lib.sumfree_seed_counts.argtypes = (c_int, addr, ctypes.c_size_t, addr)
    lib.sumfree_mis.argtypes = (addr, c_int, ctypes.c_uint64, addr, addr, c_int, c_int, addr)
    lib.sumfree_seed_listing.argtypes = (c_int, ctypes.c_uint64, ctypes.c_uint64, addr,
                                         ctypes.c_size_t, ctypes.c_uint64, addr)
    lib.sumfree_dfs_counts.argtypes = (c_int, c_int, c_int, c_int, addr)
    lib.sumfree_seed_counts.restype = lib.sumfree_mis.restype = c_int
    lib.sumfree_seed_listing.restype = lib.sumfree_dfs_counts.restype = c_int
    lib.sumfree_release.argtypes = (addr,)
    lib.sumfree_release.restype = None
    return lib


def _check(code: int, bad_input: str) -> None:
    """Raise for a kernel.c return code other than KERNEL_OK."""
    if code:
        error, message = _ERRORS.get(code, (ValueError, bad_input))
        raise error(message)


def _take(lib, address: int, words: int) -> array:
    """The `words` uint64 words of a buffer the kernel allocated at
    `address` (0 for none), copied out; the buffer is released."""
    if not address:
        return array("Q")
    import ctypes
    try:
        return array("Q", ctypes.string_at(address, 8 * words))
    finally:
        lib.sumfree_release(address)


def mis_search(nbr: Sequence[int], free: int, cover: Sequence[tuple[int, int]] = (),
               out: Optional[list[int]] = None) -> Optional[int]:
    """`mis._search(nbr, free, cover, out)` in C: the same count, and the
    same sets appended in the same order.  None when the library does not
    load, `cover` has more than MAX_PART pairs, or `free` spans more than
    MAX_PART bits.

    The problem is moved down by the lowest bit of `free`: that keeps each
    pair's difference test and the vertex order, and so the listing."""
    lib = load()
    low = (free & -free).bit_length() - 1 if free else 0
    part = free >> low
    span = part.bit_length()
    if lib is None or len(cover) > MAX_PART or span > MAX_PART:
        return None
    masks = array("Q", [nbr[v] >> low & part for v in range(low, low + span)])
    shifts = array("i", [min(shift, MAX_PART) for shift, _ in cover])
    hits = array("Q", [hit >> low & part for _, hit in cover])
    res = array("Q", (0, 0))
    _check(lib.sumfree_mis(masks.buffer_info()[0], span, part, shifts.buffer_info()[0],
                           hits.buffer_info()[0], len(cover), out is not None,
                           res.buffer_info()[0]),
           "at most 64 vertices and 64 pairs, no negative shift")
    count, sets = res
    if sets:
        listed = _take(lib, sets, count)
        out.extend([m << low for m in listed] if low else listed)
    return count


def seed_counts(n: int, seeds: list[int]) -> tuple[int, int]:
    """(f, f_max) over the sets of [n] whose part in [n/2] is in `seeds`,
    as `census._seed_counts` counts them.  Refuses n - n//2 > MAX_PART, and
    raises OverflowError rather than let a 64-bit sum wrap."""
    if n - n // 2 > MAX_PART:
        raise ValueError(f"the kernel takes n - n//2 <= {MAX_PART}, not {n - n // 2}")
    lib = load()
    if lib is None:
        raise RuntimeError("the compiled kernel could not be built or loaded")
    batch, out = array("Q", seeds), array("Q", (0, 0))
    _check(lib.sumfree_seed_counts(n, batch.buffer_info()[0], len(batch), out.buffer_info()[0]),
           "seeds must be masks of [n/2], n >= 1")
    return out[0], out[1]


def dfs_counts(n: int, cut: int, stripe: int, stripes: int) -> tuple[int, int]:
    """`census._dfs_counts(n, cut, stripe, stripes)` in C: (f, f_max) over
    one stripe of the sum-free subsets of [n], ValueError on bad input."""
    lib = load()
    if lib is None:
        raise RuntimeError("the compiled kernel could not be built or loaded")
    out = array("Q", (0, 0))
    _check(lib.sumfree_dfs_counts(n, cut, stripe, stripes, out.buffer_info()[0]),
           "need 1 <= n <= 128, 0 <= cut <= n and 0 <= stripe < stripes")
    return out[0], out[1]


def listing_fits(n: int, part: int) -> bool:
    """Whether `seed_listing` takes the part B of [n]: n <= MAX_N, B spans
    at most MAX_PART bits, and at most MAX_PART elements of [2 min B] lie
    outside B, which bounds every seed's cover pairs."""
    if not 1 <= n <= MAX_N:
        return False
    low = (part & -part).bit_length()  # min B, 0 for none
    return ((part >> max(low - 1, 0)).bit_length() <= MAX_PART
            and ((1 << min(2 * low, n)) - 1 & ~part).bit_count() <= MAX_PART)


def seed_listing(n: int, part: int, seeds: Sequence[int], cap: int) -> list[int]:
    """`census._seed_listings(n, part, seeds, cap)` in C: the same masks,
    sorted in C into the same `census._mask_sort_key` order, and
    EnumerationLimitError for a seed with more than `cap` maximal
    independent sets under its cover.  ValueError unless
    `listing_fits(n, part)` and each seed is a mask of [n] outside B, which
    must lie in [n] too."""
    if not listing_fits(n, part):
        raise ValueError(f"the kernel lists n <= {MAX_N} on parts of at most {MAX_PART}"
                         f" bits with at most {MAX_PART} elements of [2 min B] outside")
    lib = load()
    if lib is None:
        raise RuntimeError("the compiled kernel could not be built or loaded")
    bad_input = "the part and the seeds must be disjoint masks of [n]"
    wide = n > 64
    try:
        batch = array("Q", [w for s in seeds for w in (s & _WORD, s >> 64)] if wide else seeds)
    except OverflowError:
        raise ValueError(bad_input) from None
    res = array("Q", (0, 0))
    _check(lib.sumfree_seed_listing(n, part & _WORD, part >> 64, batch.buffer_info()[0],
                                    len(seeds), cap, res.buffer_info()[0]), bad_input)
    count, sets = res
    words = _take(lib, sets, 2 * count if wide else count)
    if wide:
        return [lo | hi << 64 for lo, hi in zip(words[::2], words[1::2])]
    return words.tolist()
