"""Persistent cache of audited d^2 profiles.

One JSON file per (canonical polynomial text, r, requested precision). It
holds what the pivot audit settled on for the first n generators:
d^2_1..d^2_n, the pivots, the dropped count and the precision used, each
real as a decimal string that parses back exactly at that precision. That
is O(n) numbers; the Gram matrix itself is cheaper to rebuild than to store
and parse back. Writes go through a temp file and a rename so concurrent
runs sharing a directory never observe a torn file, and reads bump the
mtime so eviction is least-recently-used.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .dpcore import DirichletPolynomial
from .exact import as_fraction
from .linalg import LDLProfile
from .numio import mp_to_str, str_to_mp

CACHE_VERSION = 3


def _key(P: DirichletPolynomial, r, bits: int) -> str:
    text = f"{P.to_text()}|{as_fraction(r)}|{bits}"
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def cache_path(cache_dir, P: DirichletPolynomial, r, bits: int) -> Path:
    return Path(cache_dir) / f"xdp-gram-{_key(P, r, bits)}.json"


def store_gram(cache_dir, P: DirichletPolynomial, r, bits: int,
               prof: LDLProfile, actual_bits: int) -> Path:
    """Atomically persist the audited profile of the Gram system under the
    request key (``bits`` as requested; ``actual_bits`` as used). Returns
    the written path."""
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CACHE_VERSION,
        "poly": P.to_text(),
        "r": str(as_fraction(r)),
        "n": len(prof.d_squared),
        "precision_bits": actual_bits,
        "dropped": prof.dropped,
        "d_squared": [mp_to_str(v, actual_bits) for v in prof.d_squared],
        "pivots": [mp_to_str(v, actual_bits) for v in prof.pivots],
    }
    path = cache_path(cache_dir, P, r, bits)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_gram(cache_dir, P: DirichletPolynomial, r, bits: int,
              n_min: int) -> Optional[tuple]:
    """(LDLProfile, precision_bits) stored under the request key if it covers
    at least n_min generators, else None. The profile is the stored one, of
    order n >= n_min; being unpivoted, its leading entries serve every
    smaller order, at the stored precision.

    A hit refreshes the file's mtime. Unreadable or mismatched files are
    treated as misses, never as errors.
    """
    path = cache_path(cache_dir, P, r, bits)
    try:
        payload = json.loads(path.read_text())
        n = payload["n"]
        if payload["version"] != CACHE_VERSION or n < n_min \
                or payload["poly"] != P.to_text():
            return None
        bits_used = payload["precision_bits"]
        prof = LDLProfile(d_squared=[str_to_mp(v, bits_used) for v in payload["d_squared"]],
                          pivots=[str_to_mp(v, bits_used) for v in payload["pivots"]],
                          dropped=payload["dropped"], band=None)
        if len(prof.d_squared) != n or len(prof.pivots) != n:
            return None
    except (OSError, ValueError, KeyError, TypeError):
        return None
    os.utime(path)
    return prof, bits_used


def cache_gc(cache_dir, max_bytes: int) -> int:
    """Evict least-recently-used entries until the directory fits. Returns
    the number of files removed. max_bytes = 0 evicts every entry; a
    negative limit is refused."""
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    directory = Path(cache_dir)
    if not directory.is_dir():
        return 0
    entries = []
    for path in directory.glob("xdp-gram-*.json"):
        try:
            st = path.stat()
        except OSError:
            continue
        entries.append((st.st_mtime, st.st_size, path))
    entries.sort(key=lambda e: e[0], reverse=True)      # newest first
    kept = 0
    evicted = 0
    for mtime, size, path in entries:
        if kept + size <= max_bytes:
            kept += size
        else:
            try:
                path.unlink()
                evicted += 1
            except OSError:
                pass
    return evicted
