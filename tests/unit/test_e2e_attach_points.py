"""The names ``benchmarks/e2e`` attaches its tracing shims to.

``benchmarks/e2e/layers.py`` patches class methods only where the class
itself defines them (``attr in vars(cls)``) and module functions under the
names ``repro`` modules bind them to, and skips silently what it does not
find — so renaming or hoisting one of these would zero
``runtime.udp.datagrams`` / ``runtime.us_per_msg`` / ``core.messages.*`` /
``sim.topology.build_s`` / ``sim.engine.*`` / ``sim.trace.*`` without
failing anything.  This pins them.
"""

import inspect

import pytest

from repro.core import messages
from repro.core.protocol import TimeFreeDetector
from repro.detectors.facade import QueryRoundFacade
from repro.experiments import e1_density, e2_mobility
from repro.harness import lease
from repro.partial import covering
from repro.partial import protocol as partial_protocol
from repro.runtime import udp
from repro.runtime.memory import MemoryHub
from repro.runtime.transport import Transport
from repro.runtime.udp import UdpTransport
from repro.sim import node, topology
from repro.sim.engine import Scheduler
from repro.sim.node import TimedDriver
from repro.sim.trace import TraceRecorder


def test_runtime_boundaries_are_defined_on_the_classes_the_tracer_patches():
    assert "send" in vars(UdpTransport)
    assert "submit" in vars(MemoryHub)
    assert "set_handler" in vars(Transport)


def test_codec_entry_points_are_module_functions_bound_in_the_udp_module():
    assert inspect.isfunction(messages.encode_message)
    assert inspect.isfunction(messages.decode_message)
    # patched wherever bound: the transport must reach the codec through
    # its own module-level names, looked up at call time
    assert udp.encode_message is messages.encode_message
    assert udp.decode_message is messages.decode_message
    assert "encode_message" in UdpTransport.send.__code__.co_names
    assert "decode_message" in UdpTransport._on_datagram.__code__.co_names


@pytest.mark.parametrize(
    "builder", ["full_mesh", "ring", "grid", "star", "random_geometric", "manet_topology"]
)
def test_topology_builders_are_module_functions(builder):
    assert inspect.isfunction(vars(topology)[builder])


def test_experiments_reach_the_manet_builder_through_a_module_level_name():
    # the tracer rebinds the name in every module that holds the function
    assert e1_density.manet_topology is topology.manet_topology
    assert e2_mobility.manet_topology is topology.manet_topology


@pytest.mark.parametrize(
    "method", ["run", "schedule_fire", "schedule_batch", "schedule_at", "schedule_after"]
)
def test_scheduler_boundaries_are_defined_on_scheduler_itself(method):
    assert inspect.isfunction(vars(Scheduler)[method])


@pytest.mark.parametrize(
    "method",
    [
        "record_suspicion_change", "record_round", "record_crash", "record_mobility",
        "record_recovery", "record_membership", "record_drop", "record_drops",
        "changes_of", "suspects_at", "first_suspicion_time",
        "permanent_suspicion_time", "suspicion_intervals",
        "false_suspicion_count_at", "targets_of", "rounds_of", "crash_time_of",
        "crashed_processes",
    ],
)
def test_recorder_boundaries_are_defined_on_the_recorder_itself(method):
    # the delegating facade is the attach point: a recorder that inherited
    # these from a store, or forwarded them with __getattr__, would zero
    # sim.trace.* in traced runs
    assert inspect.isfunction(vars(TraceRecorder)[method])


@pytest.mark.parametrize("view", ["suspicion_changes", "rounds"])
def test_recorder_views_are_properties_the_tracer_can_rebuild(view):
    prop = vars(TraceRecorder)[view]
    assert isinstance(prop, property)
    assert inspect.isfunction(prop.fget)


def test_the_query_driver_name_still_resolves():
    # layers.py looks both driver classes up by name on every --trace run;
    # a missing name raises there and fails the whole benchmark
    assert inspect.isclass(node.QueryResponseDriver)
    assert issubclass(node.QueryResponseDriver, TimedDriver)


def test_the_partial_core_name_still_resolves():
    # layers.py resolves repro.partial.protocol:PartialTimeFreeDetector for
    # the `partial` layer on every --trace run
    assert inspect.isclass(partial_protocol.PartialTimeFreeDetector)
    assert issubclass(partial_protocol.PartialTimeFreeDetector, TimeFreeDetector)


@pytest.mark.parametrize(
    "method", ["start_round", "finish_round", "abort_round", "on_query", "on_response"]
)
def test_the_partial_name_defines_no_core_method(method):
    # the tracer patches a method only where the class itself defines it:
    # one defined here would wrap the core a second time
    assert method not in vars(partial_protocol.PartialTimeFreeDetector)
    assert inspect.isfunction(vars(TimeFreeDetector)[method])


@pytest.mark.parametrize(
    "check", ["validate_f_covering", "validate_f_covering_fast", "validate_mobility_scenario"]
)
def test_the_covering_validators_are_module_functions(check):
    # wrapped as sim.topology:validate
    assert inspect.isfunction(vars(covering)[check])


@pytest.mark.parametrize(
    "method",
    ["on_message", "on_start", "on_crash", "on_detach", "on_attach", "on_recover", "on_leave"],
)
def test_the_host_boundaries_are_defined_on_timed_driver_itself(method):
    # sim.node:handler and sim.node:lifecycle: every family runs through them
    assert inspect.isfunction(vars(TimedDriver)[method])


@pytest.mark.parametrize("method", ["start", "on_message", "on_wakeup"])
def test_the_round_loop_is_defined_on_the_facade_itself(method):
    # detectors.facade_s: the one query-round loop every query family runs
    assert inspect.isfunction(vars(QueryRoundFacade)[method])


LEDGER_METHODS = [
    "claim", "renew", "complete", "release", "reap", "counts", "owners", "done_indices",
]


def test_the_sqlite_ledger_name_still_resolves():
    # layers.py resolves repro.harness.lease:SqliteLedger beside FileLedger
    # for harness:lease on every --trace run
    assert inspect.isclass(lease.SqliteLedger)
    assert issubclass(lease.SqliteLedger, lease.FileLedger)


@pytest.mark.parametrize("method", LEDGER_METHODS)
def test_the_sqlite_ledger_name_defines_no_ledger_method(method):
    # a method defined on the name-only subclass would be wrapped a second time
    assert method not in vars(lease.SqliteLedger)
    assert inspect.isfunction(vars(lease.FileLedger)[method])
