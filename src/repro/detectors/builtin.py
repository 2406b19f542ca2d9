"""The six built-in detector families, registered with the plugin registry.

===================  =====  ======  ==========================================
key                  mode   class   mechanism / stated assumption
===================  =====  ======  ==========================================
``time-free``        query  ◇S      the paper's query-response pattern; needs
                                    the behavioral property MP (no clocks)
``partial``          query  ◇S      the same core over a learned membership
                                    view: 1-hop queries, record flooding;
                                    needs an f-covering topology
``heartbeat``        timed  ◇P      all-to-all ``I am alive`` every Δ, fixed
                                    per-peer timeout Θ; accurate only while
                                    delays stay under Θ
``heartbeat-adaptive`` timed ◇P     textbook adaptation: each false suspicion
                                    grows the peer's timeout, so eventually-
                                    bounded delays imply eventual accuracy
``gossip``           timed  ◇P      Friedman-Tcharny heartbeat vectors flooded
                                    1-hop; works on partial topologies, still
                                    timeout-ruled
``phi``              timed  ◇P      phi-accrual (Hayashibara et al.): suspicion
                                    level from a normal fit of inter-arrival
                                    times; assumes stationary delays
===================  =====  ======  ==========================================

Each family's knobs live in a frozen params dataclass; query families carry
the ``grace``/``idle``/``retry`` pacing fields by convention (see
:class:`~repro.detectors.spec.DetectorSpec`).  Validation of knob *values*
stays in the cores themselves — the registry only validates knob names.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.classes import FDClass
from ..core.omega import OmegaElector
from ..core.protocol import DetectorConfig, TimeFreeDetector
from .registry import register_detector
from .spec import BuiltDetector, DetectorContext, DetectorMode, DetectorSpec

__all__ = [
    "TimeFreeParams",
    "PartialParams",
    "HeartbeatParams",
    "AdaptiveHeartbeatParams",
    "GossipParams",
    "PhiParams",
]


# ---------------------------------------------------------------------------
# query families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeFreeParams:
    """Pacing of the paper's detector (Δ = ``grace``) plus the Omega layer."""

    grace: float = 1.0
    idle: float = 0.0
    retry: float | None = None
    with_omega: bool = False


def _build_time_free(context: DetectorContext, params: TimeFreeParams) -> BuiltDetector:
    config = DetectorConfig.for_process(context.process_id, context.membership, context.f)
    elector = None
    if params.with_omega:
        elector = OmegaElector(config)
        core = TimeFreeDetector(
            config, extra_provider=elector.payload, extra_consumer=elector.consume
        )
    else:
        core = TimeFreeDetector(config)
    return BuiltDetector(spec=TIME_FREE_SPEC, params=params, core=core, elector=elector)


TIME_FREE_SPEC = register_detector(
    DetectorSpec(
        key="time-free",
        title="time-free (async)",
        fd_class=FDClass.DIAMOND_S,
        mode=DetectorMode.QUERY,
        params_cls=TimeFreeParams,
        factory=_build_time_free,
        summary="query-response message pattern, no timers; needs behavioral property MP",
    )
)


@dataclass(frozen=True)
class PartialParams:
    """Partial-connectivity extension knobs; the range density ``d`` is not
    one of them: it is the deployment's (``DetectorContext.range_density``)."""

    grace: float = 1.0
    idle: float = 0.0
    retry: float | None = None
    mobility: bool = True


def _build_partial(context: DetectorContext, params: PartialParams) -> BuiltDetector:
    # A learned view: Pi is never read, only the range density and f.
    config = DetectorConfig(
        process_id=context.process_id,
        membership=None,
        f=context.f,
        range_density=context.range_density,
    )
    core = TimeFreeDetector(config, mobility=params.mobility)
    return BuiltDetector(spec=PARTIAL_SPEC, params=params, core=core)


PARTIAL_SPEC = register_detector(
    DetectorSpec(
        key="partial",
        title="time-free (partial connectivity)",
        fd_class=FDClass.DIAMOND_S,
        mode=DetectorMode.QUERY,
        params_cls=PartialParams,
        factory=_build_partial,
        summary="1-hop queries + record flooding on f-covering topologies, unknown membership",
    )
)


# ---------------------------------------------------------------------------
# timed families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeartbeatParams:
    """Δ = ``period``, Θ = ``timeout``."""

    period: float = 1.0
    timeout: float = 2.0


def _build_heartbeat(context: DetectorContext, params: HeartbeatParams) -> BuiltDetector:
    from ..baselines.heartbeat import HeartbeatDetector

    core = HeartbeatDetector(
        context.process_id,
        context.membership,
        period=params.period,
        timeout=params.timeout,
    )
    return BuiltDetector(spec=HEARTBEAT_SPEC, params=params, core=core)


HEARTBEAT_SPEC = register_detector(
    DetectorSpec(
        key="heartbeat",
        title="heartbeat",
        fd_class=FDClass.DIAMOND_P,
        mode=DetectorMode.TIMED,
        params_cls=HeartbeatParams,
        factory=_build_heartbeat,
        summary="all-to-all heartbeats, fixed timeout; accurate only while delays < Θ",
    )
)


@dataclass(frozen=True)
class AdaptiveHeartbeatParams:
    """Fixed-timeout heartbeat plus the textbook ◇P timeout growth."""

    period: float = 1.0
    timeout: float = 2.0
    timeout_increment: float = 0.5


def _build_adaptive_heartbeat(
    context: DetectorContext, params: AdaptiveHeartbeatParams
) -> BuiltDetector:
    from ..baselines.heartbeat import HeartbeatDetector

    core = HeartbeatDetector(
        context.process_id,
        context.membership,
        period=params.period,
        timeout=params.timeout,
        adaptive=True,
        timeout_increment=params.timeout_increment,
    )
    return BuiltDetector(spec=ADAPTIVE_HEARTBEAT_SPEC, params=params, core=core)


ADAPTIVE_HEARTBEAT_SPEC = register_detector(
    DetectorSpec(
        key="heartbeat-adaptive",
        title="heartbeat (adaptive)",
        fd_class=FDClass.DIAMOND_P,
        mode=DetectorMode.TIMED,
        params_cls=AdaptiveHeartbeatParams,
        factory=_build_adaptive_heartbeat,
        summary="per-peer timeout grows on every false suspicion (eventual accuracy under GST)",
    )
)


@dataclass(frozen=True)
class GossipParams:
    """Friedman-Tcharny gossip heartbeat (Θ > Δ required by the core)."""

    period: float = 1.0
    timeout: float = 2.0


def _build_gossip(context: DetectorContext, params: GossipParams) -> BuiltDetector:
    from ..baselines.gossip import GossipHeartbeatDetector

    core = GossipHeartbeatDetector(
        context.process_id,
        context.membership,
        period=params.period,
        timeout=params.timeout,
    )
    return BuiltDetector(spec=GOSSIP_SPEC, params=params, core=core)


GOSSIP_SPEC = register_detector(
    DetectorSpec(
        key="gossip",
        title="gossip heartbeat (Friedman-Tcharny)",
        fd_class=FDClass.DIAMOND_P,
        mode=DetectorMode.TIMED,
        params_cls=GossipParams,
        factory=_build_gossip,
        summary="heartbeat vectors flooded 1-hop; partial-topology capable, timeout-ruled",
    )
)


@dataclass(frozen=True)
class PhiParams:
    """Accrual knobs (Hayashibara defaults; ``threshold`` 8 ≈ odds 10^-8)."""

    period: float = 1.0
    threshold: float = 8.0
    window_size: int = 100
    min_std: float = 0.05
    eval_fraction: float = 0.25


def _build_phi(context: DetectorContext, params: PhiParams) -> BuiltDetector:
    from ..baselines.phi_accrual import PhiAccrualDetector

    core = PhiAccrualDetector(
        context.process_id,
        context.membership,
        period=params.period,
        threshold=params.threshold,
        window_size=params.window_size,
        min_std=params.min_std,
        eval_fraction=params.eval_fraction,
    )
    return BuiltDetector(spec=PHI_SPEC, params=params, core=core)


PHI_SPEC = register_detector(
    DetectorSpec(
        key="phi",
        title="phi-accrual",
        fd_class=FDClass.DIAMOND_P,
        mode=DetectorMode.TIMED,
        params_cls=PhiParams,
        factory=_build_phi,
        summary="suspicion level from a normal fit of heartbeat inter-arrivals (stationary delays)",
    )
)
