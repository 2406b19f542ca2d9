"""Out-of-tree detector family and consensus protocol for the registry tests.

Loaded only in fresh interpreters, via ``REPRO_PLUGINS=tests.registry_plugin``:
registering ``zz-heartbeat`` in the test process would add it to the default
detector axis of q1 and c1 for every later test.  Each entry is a built-in
under a new key, so it runs exactly like the original.
"""

from __future__ import annotations

from dataclasses import replace

from repro.consensus import get_protocol, register_protocol
from repro.detectors import get_detector, register_detector

__all__ = ["ZZ_HEARTBEAT", "ZZ_CT"]

ZZ_HEARTBEAT = register_detector(
    replace(get_detector("heartbeat"), key="zz-heartbeat", title="plugin heartbeat")
)
ZZ_CT = register_protocol(replace(get_protocol("ct"), key="zz-ct", title="plugin ct"))
