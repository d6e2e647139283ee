"""Build-on-first-use loader for the native kernels (``_native.c``).

:func:`load` returns the shared library as a ``ctypes.CDLL``, or ``None``
when it cannot be had -- no C compiler, a failed build, an unloadable
library.  Each caller binds its own symbol and keeps a pure-Python or
numpy fallback that returns the same values: :mod:`repro.graphs.fast`
binds ``repro_wave_accumulate`` (exact path-metric waves) and
:mod:`repro.graphs.generators` binds ``repro_pair_stubs`` (k-regular
wiring).  Nothing happens at import: the first :func:`load` call compiles
(or finds) the library and the answer is kept for the process.

The shared object is built with ``$CC`` (default ``cc``) and the portable
flags in :data:`FLAGS` -- no ``-march=native``, because the cache may be
shared by machines with different CPUs -- and keyed by a hash of the C
source, the flags and the compiler's ``--version`` banner, so an edited
kernel or a new compiler never loads a stale build.  The file name also
carries a digest of the library's own bytes, checked before every load
(see :func:`_cached`).  It is cached in
``${XDG_CACHE_HOME:-~/.cache}/repro/`` (created ``0700`` and required to
belong to the current user), falling back to a private temporary directory
when that is unusable.  Each build writes a unique temporary file and
``os.replace``-s it into place, so pool workers resolving the library at
the same moment cannot see a half-written file.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

SOURCE = Path(__file__).with_name("_native.c")

#: Compiler flags; part of the library's content hash.
FLAGS = ("-O3", "-shared", "-fPIC")

_UNRESOLVED = object()
_library = _UNRESOLVED


def load() -> Optional[ctypes.CDLL]:
    """The native library, or ``None`` (callers use their fallbacks).

    Resolved once per process; every failure mode degrades to ``None``
    rather than raising.
    """
    global _library
    if _library is _UNRESOLVED:
        _library = _resolve()
    return _library


def _resolve():
    compiler = shlex.split(os.environ.get("CC", "cc")) or ["cc"]
    try:
        banner = subprocess.run(
            compiler + ["--version"], capture_output=True, timeout=30, check=True
        ).stdout
        source = SOURCE.read_bytes()
    except (OSError, subprocess.SubprocessError):
        return None
    digest = hashlib.sha256()
    for part in (source, " ".join(FLAGS).encode(), banner):
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    key = digest.hexdigest()[:20]
    directory = _cache_dir()
    if directory is None:
        return None
    library = _cached(directory, key) or _build(compiler, directory, key)
    if library is None:
        return None
    try:
        return ctypes.CDLL(str(library))
    except OSError:
        return None


def _cache_dir() -> Optional[Path]:
    """The per-user library cache, or a fresh private temp dir, or ``None``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    directory = Path(base) / "repro"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        owner = getattr(os, "getuid", lambda: directory.stat().st_uid)()
        if directory.stat().st_uid == owner and os.access(directory, os.W_OK):
            return directory
    except OSError:
        pass
    try:
        return Path(tempfile.mkdtemp(prefix="repro-native-"))
    except OSError:
        return None


def _content_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _cached(directory: Path, key: str) -> Optional[Path]:
    """A cached build for ``key`` whose bytes still match its name, if any.

    ``dlopen`` of a truncated library dies of ``SIGBUS`` instead of
    failing, so a build is named by its own content digest and checked
    against it before it is loaded; a damaged file is skipped (and rebuilt).
    """
    for path in sorted(directory.glob(f"native-{key}-*.so")):
        try:
            if path.stem.rsplit("-", 1)[1] == _content_digest(path):
                return path
        except OSError:
            continue
    return None


def _build(compiler, directory: Path, key: str) -> Optional[Path]:
    """Compile into a unique temp name, then atomically move it into place."""
    try:
        handle, scratch = tempfile.mkstemp(
            prefix=".build-", suffix=".so", dir=directory
        )
        os.close(handle)
    except OSError:
        return None
    try:
        subprocess.run(
            compiler + list(FLAGS) + [str(SOURCE), "-o", scratch],
            capture_output=True,
            timeout=120,
            check=True,
        )
        library = directory / f"native-{key}-{_content_digest(Path(scratch))}.so"
        os.replace(scratch, library)
        return library
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
