"""Canonical JSON serialization and hashing.

Every persisted or hashed structure in the package goes through these
helpers so that byte-for-byte determinism holds across runs and platforms:
sorted keys, compact separators, UTF-8, no NaN/Infinity.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to the canonical JSON form used for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def canonical_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``obj``."""
    return sha256_hex(canonical_json(obj))


def json_int(obj: dict, key: str) -> int:
    """``obj[key]``, which must be a JSON integer: a bool, float or string
    raises ``TypeError`` rather than being coerced."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {type(value).__name__}")
    return value
