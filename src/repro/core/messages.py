"""Wire messages and a transport-agnostic codec.

Every message the library sends — detector queries/responses, baseline
heartbeats, consensus ballots — is a frozen dataclass registered with the
codec below.  The deterministic simulator passes message objects around
directly; the UDP transport serialises them to JSON with
:func:`encode_message` / :func:`decode_message`.

The ``QUERY``/``RESPONSE`` pair implements the paper's query-response
mechanism: a query carries the sender's ``suspected`` and ``mistake`` sets
(as ``<id, counter>`` records) plus a round identifier so that each
query-response pair is uniquely identified in the system (footnote 2 of the
paper); a response echoes the round identifier so stale responses can be
discarded or counted as late extras.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Mapping, Type, TypeVar

from ..errors import TransportError
from ..ids import ProcessId

__all__ = [
    "Query",
    "Response",
    "register_message",
    "encode_message",
    "decode_message",
    "message_kind",
    "message_kind_of",
]

TaggedRecords = tuple[tuple[ProcessId, int], ...]

#: kind -> (class, field names); the field tuple is computed once, when the
#: class registers, so encode/decode never call ``dataclasses.fields``.
_REGISTRY: dict[str, tuple[type, tuple[str, ...]]] = {}
_KIND_BY_TYPE: dict[type, str] = {}
#: cached class-name fallbacks for unregistered types (tests pass plain
#: strings through the simulated network); registering a type evicts it.
_KIND_FALLBACK: dict[type, str] = {}

#: exact types JSON carries as they are — everything else is walked
_SCALARS = frozenset({int, str, float, bool, type(None)})
_encode = json.JSONEncoder(separators=(",", ":")).encode
_decode = json.JSONDecoder().decode

M = TypeVar("M")


def register_message(kind: str) -> Callable[[Type[M]], Type[M]]:
    """Class decorator registering a frozen dataclass as a wire message.

    ``kind`` is the stable on-the-wire discriminator; it must be unique
    across the whole library (core, baselines, consensus).
    """

    def _register(cls: Type[M]) -> Type[M]:
        if not is_dataclass(cls):
            raise TypeError(f"{cls.__name__} must be a dataclass to be a wire message")
        if kind in _REGISTRY and _REGISTRY[kind][0] is not cls:
            raise ValueError(f"message kind {kind!r} is already registered")
        _REGISTRY[kind] = (cls, tuple(f.name for f in fields(cls)))
        _KIND_BY_TYPE[cls] = kind
        _KIND_FALLBACK.pop(cls, None)
        return cls

    return _register


def message_kind(message: object) -> str:
    """Return the registered wire discriminator for ``message``."""
    try:
        return _KIND_BY_TYPE[type(message)]
    except KeyError:
        raise TransportError(f"{type(message).__name__} is not a registered message") from None


def message_kind_of(message: object) -> str:
    """Like :func:`message_kind` but with a cached class-name fallback.

    The simulated network labels every message for trace accounting; this
    lookup is on its per-message hot path, so unregistered types resolve to
    their class name via a dictionary hit instead of a raised-and-caught
    :class:`TransportError` per message.
    """
    cls = type(message)
    kind = _KIND_BY_TYPE.get(cls)
    if kind is not None:
        return kind
    kind = _KIND_FALLBACK.get(cls)
    if kind is None:
        kind = _KIND_FALLBACK[cls] = cls.__name__
    return kind


def encode_message(message: object) -> bytes:
    """Serialise a registered message to JSON bytes."""
    payload = _to_payload(message)
    try:
        return _encode(payload).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise TransportError(f"cannot encode {payload['kind']!r} message: {exc}") from exc


def decode_message(data: bytes) -> Any:
    """Deserialise JSON bytes previously produced by :func:`encode_message`.

    Bytes off a socket are outside input: whatever is wrong with them, the
    only exception this raises is :class:`TransportError`.
    """
    try:
        payload = _decode(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TransportError(f"malformed message payload: {exc}") from exc
    return _from_payload(payload)


def _to_payload(message: object) -> dict[str, Any]:
    kind = message_kind(message)
    payload = {"kind": kind}
    for name in _REGISTRY[kind][1]:
        value = getattr(message, name)
        payload[name] = value if type(value) in _SCALARS else _jsonify(value)
    return payload


def _from_payload(payload: Any) -> Any:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise TransportError("message payload lacks a 'kind' discriminator")
    kind = payload["kind"]
    entry = _REGISTRY.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise TransportError(f"unknown message kind {kind!r}")
    cls, names = entry
    kwargs = {}
    try:
        for name in names:
            value = payload[name]
            kwargs[name] = value if type(value) in _SCALARS else _dejsonify(value)
    except KeyError:
        raise TransportError(f"{kind!r} message is missing field {name!r}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        # a tagged form of the wrong shape ("__frozenset__" of dicts, a
        # "__mapping__" that is not pairs) or nesting past the stack
        raise TransportError(f"malformed {kind!r} field {name!r}: {exc}") from exc
    return cls(**kwargs)


def _jsonify(value: Any) -> Any:
    if isinstance(value, tuple):
        return [item if type(item) in _SCALARS else _jsonify(item) for item in value]
    if type(value) in _KIND_BY_TYPE:
        return {"__message__": _to_payload(value)}
    if isinstance(value, frozenset):
        return {"__frozenset__": sorted((_jsonify(item) for item in value), key=repr)}
    if isinstance(value, Mapping):
        return {"__mapping__": [[_jsonify(k), _jsonify(v)] for k, v in value.items()]}
    return value


def _dejsonify(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(
            [item if type(item) in _SCALARS else _dejsonify(item) for item in value]
        )
    if isinstance(value, dict):
        if "__message__" in value:
            return _from_payload(value["__message__"])
        if "__frozenset__" in value:
            return frozenset(_dejsonify(item) for item in value["__frozenset__"])
        if "__mapping__" in value:
            return {
                _dejsonify(k): _dejsonify(v) for k, v in value["__mapping__"]
            }
    return value


@register_message("fd.query")
@dataclass(frozen=True, slots=True)
class Query:
    """``QUERY(suspected_i, mistake_i)`` — line 6 of Algorithm 1.

    ``round_id`` uniquely pairs this query with its responses.  ``extra``
    is an optional piggyback slot used by layered services (e.g. the Omega
    leader elector gossips accusation counters through it); the core
    protocol ignores it.
    """

    sender: ProcessId
    round_id: int
    suspected: TaggedRecords
    mistakes: TaggedRecords
    extra: tuple[tuple[str, Any], ...] = ()

    def extra_payload(self) -> dict[str, Any]:
        """The piggyback slot as a dictionary (possibly empty)."""
        return dict(self.extra)


@register_message("fd.response")
@dataclass(frozen=True, slots=True)
class Response:
    """``RESPONSE`` — line 38 of Algorithm 1; echoes the query's round id."""

    sender: ProcessId
    round_id: int
    extra: tuple[tuple[str, Any], ...] = ()

    def extra_payload(self) -> dict[str, Any]:
        return dict(self.extra)
