"""The names ``benchmarks/e2e`` attaches its tracing shims to.

``benchmarks/e2e/layers.py`` patches class methods only where the class
itself defines them (``attr in vars(cls)``) and module functions under the
names ``repro`` modules bind them to, and skips silently what it does not
find — so renaming or hoisting one of these would zero
``runtime.udp.datagrams`` / ``runtime.us_per_msg`` / ``core.messages.*`` /
``sim.topology.build_s`` without failing anything.  This pins them.
"""

import inspect

import pytest

from repro.core import messages
from repro.experiments import e1_density, e2_mobility
from repro.runtime import udp
from repro.runtime.memory import MemoryHub
from repro.runtime.transport import Transport
from repro.runtime.udp import UdpTransport
from repro.sim import topology


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
