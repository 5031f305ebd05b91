"""Canonical JSON serialization and hashing.

Every persisted or hashed structure in the package goes through these
helpers so that byte-for-byte determinism holds across runs and platforms:
sorted keys, compact separators, UTF-8, no NaN/Infinity.
"""

from __future__ import annotations

import hashlib
import json
import math
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


_DECODER = json.JSONDecoder()


def parse_json(data: str | bytes, start: int | None = None) -> Any:
    """JSON from outside the process; every malformed input raises
    ``json.JSONDecodeError``. ``json`` itself lets nesting deeper than the
    recursion limit escape as ``RecursionError`` and an integer too long to
    convert as a bare ``ValueError``. Bytes are decoded in the encoding
    ``json.loads`` detects (UTF-8, or UTF-16/32). With ``start``, only the
    value that begins at ``data[start]`` (a str) is decoded, and
    ``(value, end)`` returned, as from ``JSONDecoder.raw_decode``."""
    text = data if isinstance(data, str) else decode_text(data, json.detect_encoding(data))
    try:
        return json.loads(text) if start is None else _DECODER.raw_decode(text, start)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, start or 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError as e:
        raise json.JSONDecodeError(str(e), text, start or 0) from None


def decode_text(data: bytes, encoding: str = "utf-8") -> str:
    """``data`` decoded; a bad byte raises ``json.JSONDecodeError`` at its line."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as e:
        valid = data[:e.start].decode(encoding)
        raise json.JSONDecodeError(f"invalid {encoding.upper()}: {e.reason}", valid,
                                   len(valid)) from None


#: What each JSON type is called in a reader's errors.
_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "a boolean",
          dict: "an object", list: "an array", None: "null", type(None): "null"}
_FLOAT_MAX = math.nextafter(math.inf, 0)
_REQUIRED = object()


def json_get(obj: dict, key: str, kind, default: Any = _REQUIRED) -> Any:
    """``obj[key]`` as the JSON type ``kind``, never coerced: ``int`` (not a
    bool), ``float`` (a finite number, returned as a float), ``str``,
    ``bool``, ``dict``, ``list``, or a tuple of them in which ``None`` admits
    null. An absent key gives ``default`` (``KeyError`` if there is none).
    Any other value, or an ``obj`` that is no object, raises ``TypeError``
    naming the key but not the value, so no nesting can break the message."""
    if type(obj) is not dict:
        raise TypeError(f"{key} must be read from an object, not {_NAMES.get(type(obj))}")
    if key not in obj:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    value = obj[key]
    t = type(value)
    kinds = kind if type(kind) is tuple else (kind,)
    if t in kinds and t is not float or value is None and None in kinds:
        return value
    if float in kinds and t in (int, float) and abs(value) <= _FLOAT_MAX:
        return float(value)
    got = repr(value) if t is float else _NAMES.get(t)
    raise TypeError(f"{key} must be {' or '.join(_NAMES[k] for k in kinds)}, got {got}")


def json_strs(obj: dict, key: str, default: Any = _REQUIRED) -> Any:
    """``obj[key]`` as a JSON array of strings, returned as a tuple."""
    value = json_get(obj, key, list, default)
    if value is not default and not all(type(item) is str for item in value):
        raise TypeError(f"{key} must be an array of strings")
    return value if value is default else tuple(value)
