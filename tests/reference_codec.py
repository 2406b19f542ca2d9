"""Reference model of the wire encoder: the generic pre-compilation version.

This is ``encode_message`` as it stood before the codec was compiled per
message class — ``dataclasses.fields()`` per call, a recursive ``_jsonify``
into every container, ``json.dumps`` per call — kept as the oracle the
compiled encoder must match byte for byte
(``tests/property/test_codec_properties.py``).  It has no case for a
registered message nested in a field, so ``consensus.instance`` is outside
its domain.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Mapping

from repro.core.messages import message_kind


def reference_encode(message: object) -> bytes:
    payload = {"kind": message_kind(message)}
    for f in fields(message):  # type: ignore[arg-type]
        payload[f.name] = _jsonify(getattr(message, f.name))
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _jsonify(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    if isinstance(value, frozenset):
        return {"__frozenset__": sorted((_jsonify(item) for item in value), key=repr)}
    if isinstance(value, Mapping):
        return {"__mapping__": [[_jsonify(k), _jsonify(v)] for k, v in value.items()]}
    return value
