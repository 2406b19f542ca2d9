"""The class name the e2e tracer looks up for the ``partial`` layer.

Unknown participants are :class:`repro.core.protocol.TimeFreeDetector` over a
learned membership view (``DetectorConfig(membership=None,
range_density=d)``); the ``partial`` registry family builds exactly that.
``benchmarks/e2e/layers.py`` still resolves
``repro.partial.protocol:PartialTimeFreeDetector`` on every ``--trace`` run,
so this name-only subclass keeps the lookup working; it defines no method,
so the tracer never wraps the core twice.  The telemetry re-baseline that
drops the ``partial`` layer deletes this module.
"""

from __future__ import annotations

from ..core.protocol import TimeFreeDetector

__all__ = ["PartialTimeFreeDetector"]


class PartialTimeFreeDetector(TimeFreeDetector):
    """:class:`TimeFreeDetector` under its former name; nothing builds it."""
