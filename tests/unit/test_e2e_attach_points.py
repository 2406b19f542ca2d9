"""The names ``benchmarks/e2e`` attaches its runtime tracing shims to.

``benchmarks/e2e/layers.py`` patches class methods only where the class
itself defines them (``attr in vars(cls)``) and module functions under the
names ``repro`` modules bind them to, and skips silently what it does not
find — so renaming or hoisting one of these would zero
``runtime.udp.datagrams`` / ``runtime.us_per_msg`` / ``core.messages.*``
without failing anything.  This pins them.
"""

import inspect

from repro.core import messages
from repro.runtime import udp
from repro.runtime.memory import MemoryHub
from repro.runtime.transport import Transport
from repro.runtime.udp import UdpTransport


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

