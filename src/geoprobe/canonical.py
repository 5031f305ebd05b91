"""Canonical JSON serialization and hashing.

Every persisted or hashed structure in the package goes through these
helpers so that byte-for-byte determinism holds across runs and platforms:
sorted keys, compact separators, UTF-8, no NaN/Infinity. Trace lines are
these bytes, the same ones the state and payload hashes cover.
``canonical_json`` encodes through one encoder built at import, not one
built per call, and without a circular-reference table: a self-referencing
value raises ``RecursionError``. A fragment encoded once is reused as a
``Raw`` value, which ``canonical_compose`` writes into a line as it stands.

JSON read from outside the process goes through ``parse_json``, which
admits no NaN and no infinity, so what it returns can always be encoded
again.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Any, Callable


def _unencodable(obj: Any) -> Any:
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _finite_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _canonical_encoder(make=json.encoder.c_make_encoder,
                       string=json.encoder.encode_basestring) -> Callable[[Any], str]:
    """The canonical encoding as one function that writes each string with
    ``string``: CPython's C encoder object or, where the interpreter has none
    (``make`` is ``None``), the pure-Python encoder ``json`` falls back to.
    ``json.dumps`` with keyword arguments builds one afresh on every call."""
    if make is None:
        # Arguments as below, with a float writer in place of allow_nan, then one_shot.
        encoder = json.encoder._make_iterencode(None, _unencodable, string, None, _finite_float,
                                                ":", ",", True, False, True)
    else:
        # Arguments: markers (None: no circular check), default, string encoder,
        # indent, key separator, item separator, sort_keys, skipkeys, allow_nan.
        encoder = make(None, _unencodable, string, None, ":", ",", True, False, False)

    def encode(obj: Any) -> str:
        return "".join(encoder(obj, 0))

    return encode


class Raw(str):
    """Text already in canonical JSON form. ``canonical_compose`` writes it
    as it stands; ``canonical_json`` encodes it as the string it is."""

    __slots__ = ()


def _raw_or_string(s: str, encode=json.encoder.encode_basestring) -> str:
    return s if type(s) is Raw else encode(s)


_encode = _canonical_encoder()
_compose = _canonical_encoder(string=_raw_or_string)


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to the canonical JSON form used for hashing and for
    every trace line: ``json.dumps(obj, sort_keys=True, separators=(",",
    ":"), ensure_ascii=False, allow_nan=False)``. A NaN or an infinity
    raises ``ValueError``."""
    return _encode(obj)


def canonical_compose(obj: Any) -> Raw:
    """``canonical_json`` of ``obj`` with each ``Raw`` value in it read as
    the JSON it holds, so a fragment encoded once is neither parsed nor
    encoded again. The result is ``Raw``, to be composed in turn. Every
    string goes through a Python hook here, so ``canonical_json`` stays the
    encoder for trees that hold no fragment."""
    return Raw(_compose(obj))


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def canonical_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``obj``."""
    return sha256_hex(canonical_json(obj))


class _NonFinite(ValueError):
    """A NaN, an infinity, or a number too large for a float, met while decoding."""


def _finite_number(text: str) -> float:
    """A JSON number with a fraction or an exponent, or one of the
    constants ``json`` accepts (``NaN``, ``Infinity``, ``-Infinity``)."""
    value = float(text)
    if not math.isfinite(value):
        raise _NonFinite(text)
    return value


class NonFiniteNumberError(json.JSONDecodeError):
    """A NaN, an infinity, or a number too large for a float, in JSON read
    by ``parse_json``. ``path`` holds the member names and array indices
    from the top-level value down to it."""

    def __init__(self, token: str, doc: str, pos: int, path: tuple[str | int, ...]):
        where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path).lstrip(".")
        super().__init__(f"{token} is not a finite JSON number"
                         + (f" (at {where})" if where else ""), doc, pos)
        self.path = path


#: A JSON string, a structural character, or a token ``parse_json`` may
#: reject: a non-finite constant or a number with a fraction or an exponent.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}:,]'
                    r"|(-?Infinity|NaN|-?\d+(?:\.\d+)?[eE][-+]?\d+|-?\d+\.\d+)")


def _non_finite_error(text: str, start: int) -> NonFiniteNumberError:
    """The error for the first non-finite number of ``text[start:]``. The
    text before it decoded, so its tokens are valid JSON: strings, numbers
    and literals need no more than this walk to place the number."""
    path: list[str | int | None] = []
    expect_key = False
    for m in _TOKEN.finditer(text, start):
        token = m.group()
        if token in ("{", "["):
            path.append(None if token == "{" else 0)
            expect_key = token == "{"
        elif token in ("}", "]"):
            path.pop()
        elif token == ",":
            expect_key = type(path[-1]) is not int
            if not expect_key:
                path[-1] += 1
        elif token == ":":
            expect_key = False
        elif token[0] == '"':
            if expect_key:
                path[-1] = json.loads(token)
        elif not math.isfinite(float(token)):
            return NonFiniteNumberError(token, text, m.start(), tuple(path))
    return NonFiniteNumberError("a number", text, start, ())


_DECODER = json.JSONDecoder(parse_constant=_finite_number, parse_float=_finite_number)


def parse_json(data: str | bytes, start: int | None = None) -> Any:
    """JSON from outside the process; every malformed input raises
    ``json.JSONDecodeError``. ``NaN``, ``Infinity`` and ``-Infinity`` are
    not JSON (RFC 8259), and a number too large for a float would read as
    an infinity: each is rejected at its position, so nothing read can fail
    ``canonical_json`` later. ``json`` itself lets nesting deeper than the
    recursion limit escape as ``RecursionError`` and an integer too long to
    convert as a bare ``ValueError``. Bytes are decoded in the encoding
    ``json.loads`` detects (UTF-8, or UTF-16/32). With ``start``, only the
    value that begins at ``data[start]`` (a str) is decoded, and
    ``(value, end)`` returned, as from ``JSONDecoder.raw_decode``."""
    text = data if isinstance(data, str) else decode_text(data, json.detect_encoding(data))
    try:
        return _DECODER.decode(text) if start is None else _DECODER.raw_decode(text, start)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, start or 0) from None
    except json.JSONDecodeError:
        raise
    except _NonFinite:
        raise _non_finite_error(text, start or 0) from None
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
