"""Sink discipline: where an artifact may go, how it is published,
fenced and found again, and when a cached layout may be reused. No
module-level ``ray``/pandas import: shard actors load this at cold start.

Path check, the PathGuard analog (reference src/core/artifact_guard.py
:188-278 rejects system trees and `^/tmp(/|$)`): the sinks validate
their output directory at construction, so a mis-templated URI
(``/etc/...``, the read-only reference/testdata trees, a bare temp
root) fails in the calling process, not 30 actors deep. The
reference rejects all of /tmp because its artifact root lives in the
repo; here /tmp is the sanctioned scratch, so only the BARE temp roots
are rejected.

Publish and fence, the artifact-manifest analog (artifact_guard.py
:125-186): a sink writes each data file with :func:`publish` and then
its manifest with :func:`fence`, last; :func:`fenced` lists the units
whose manifest is readable and whose data file exists. Anything else
is incomplete and is redone.

Build once, the content-keyed benchmark cache analog
(src/cli/benchmark/samples.py:131-144): :func:`build_once` owns every
write-once layout (bucketed, range, Z-order, PQ, the dedup index, the
generated corpus), named by a hash of its inputs' content and its
build parameters and published whole by one rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from typing import Callable, Iterable

# Write-protected system trees (reference artifact_guard.py:236-258).
PROTECTED_PREFIXES = (
    "/etc",
    "/usr",
    "/bin",
    "/sbin",
    "/lib",
    "/lib64",
    "/boot",
    "/dev",
    "/proc",
    "/sys",
    "/run",
    "/var/run",
)

# Read-only inputs of THIS environment: never sinks.
READONLY_PREFIXES = (
    "/root/reference",
    "/root/testdata",
)

# Bare temp roots: artifacts need a named directory, not a dumping
# ground (reference artifact_guard.py:229-262 rejects `^/tmp(/|$)`).
BARE_TEMP_ROOTS = ("/tmp", "/var/tmp", "/private/tmp")


class SinkPathError(ValueError):
    """Raised when a sink directory violates path discipline."""


def validate_sink_dir(path: str) -> str:
    """Validate (and normalize) a sink output directory. Returns the
    absolute path or raises :class:`SinkPathError`."""
    if not path:
        raise SinkPathError("empty sink path")
    p = os.path.abspath(path)
    if p == "/":
        raise SinkPathError("filesystem root is not a sink")
    for pre in PROTECTED_PREFIXES:
        if p == pre or p.startswith(pre + os.sep):
            raise SinkPathError(f"sink {p!r} is inside protected system tree {pre!r}")
    for pre in READONLY_PREFIXES:
        if p == pre or p.startswith(pre + os.sep):
            raise SinkPathError(f"sink {p!r} is inside read-only input tree {pre!r}")
    if p in BARE_TEMP_ROOTS:
        raise SinkPathError(
            f"sink {p!r} is a bare temp root — use a named subdirectory"
        )
    return p


MANIFEST_SUFFIX = ".manifest.json"

#: Parent directory of every :func:`build_once` layout.
CACHE_ROOT = tempfile.gettempdir()


def publish(path: str, write: Callable[[str], None]) -> None:
    """Publish one file atomically: ``write(tmp)`` fills a tmp file
    private to this process, then ``os.replace`` moves it onto ``path``.
    A failing ``write`` leaves ``path`` as it was and no tmp behind."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def fence(out_dir: str, name: str, manifest: dict) -> None:
    """Write ``manifest`` as ``out_dir/name``: the fence, published
    after the data file it names."""

    def write(tmp: str) -> None:
        with open(tmp, "w") as f:
            json.dump(manifest, f, sort_keys=True)

    publish(os.path.join(out_dir, name), write)


def fenced(out_dir: str, prefix: str = "") -> list[dict]:
    """Every manifest ``out_dir/<prefix>*.manifest.json`` whose
    ``data_file`` exists. A torn manifest, or one whose data file is
    gone, is not fenced."""
    if not os.path.isdir(out_dir):
        return []
    done = []
    for name in os.listdir(out_dir):
        if name.startswith(prefix) and name.endswith(MANIFEST_SUFFIX):
            try:
                with open(os.path.join(out_dir, name)) as f:
                    m = json.load(f)
                if os.path.exists(os.path.join(out_dir, m["data_file"])):
                    done.append(m)
            except (json.JSONDecodeError, KeyError, TypeError, OSError):
                continue  # torn manifest == not fenced
    return done


def input_file_fingerprint(path: str, probe: int = 1 << 20) -> str:
    """Fast fingerprint of an input FILE: size + sha256 of the first and
    last ``probe`` bytes. Mtime-free (stable across copies); head+tail
    probing keeps resume validation O(probe) per file instead of
    re-reading 100 TB — parquet files carry their footer metadata (row
    counts, column stats) in the probed tail, so any regeneration that
    changes row content perturbs the tail bytes."""
    st = os.stat(path)
    h = hashlib.sha256()
    h.update(str(st.st_size).encode())
    with open(path, "rb") as f:
        h.update(f.read(probe))
        if st.st_size > probe:
            f.seek(max(probe, st.st_size - probe))
            h.update(f.read(probe))
    return h.hexdigest()


def content_fingerprint(doc_ids: list[str], hashes: list[str]) -> str:
    """Order-independent fingerprint of a (doc_id, content_hash) set:
    sum of per-row sha256 values mod 2^128. Stable across parallelism
    levels, batch boundaries and row order, so the fingerprints of the
    units of one output add up to the whole output's."""
    sha, from_bytes = hashlib.sha256, int.from_bytes
    acc = sum(
        from_bytes(sha(f"{d}\x00{h}".encode()).digest()[:16], "little")
        for d, h in zip(doc_ids, hashes)
    )
    return f"{acc % (1 << 128):032x}"


def build_once(
    name: str,
    input_files: Iterable[str],
    make: Callable[[str], object],
    extra: tuple = (),
) -> str:
    """Directory ``CACHE_ROOT/fa_<name>_<tag>``, built once by
    ``make(tmp)`` and reused while its inputs are unchanged. The tag
    hashes ``name``, each input file's :func:`input_file_fingerprint`
    and ``extra`` (the build parameters). ``make`` fills an empty tmp
    dir private to this process, which is then renamed into place: a
    failed build leaves nothing that a later call trusts, and the loser
    of a concurrent build uses the winner's copy and drops its own."""
    h = hashlib.sha256(name.encode())
    for path in input_files:
        h.update(b"\x00" + input_file_fingerprint(path).encode())
    h.update(repr(extra).encode())
    dest = os.path.join(CACHE_ROOT, f"fa_{name}_{h.hexdigest()[:16]}")
    if os.path.isdir(dest):
        return dest
    tmp = f"{dest}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)  # this process's crashed build
    os.makedirs(tmp)
    try:
        make(tmp)
        try:
            os.rename(tmp, dest)
        except OSError:
            # a concurrent build won the rename: same tag, same content
            if not os.path.isdir(dest):
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return dest
