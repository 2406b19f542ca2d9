"""Property-based tests of the wire codec.

Round trips per message kind, the compiled encoder against the reference
model (``tests/reference_codec.py``) byte for byte, and ``decode_message``
against hostile input.
"""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.gossip import GossipHeartbeat
from repro.baselines.heartbeat import Heartbeat
from repro.consensus.messages import (
    Ack,
    Decide,
    Estimate,
    InstanceEnvelope,
    Nack,
    Proposal,
)
from repro.core import messages as codec
from repro.core.messages import Query, Response, decode_message, encode_message
from repro.errors import TransportError
from tests.reference_codec import reference_encode

PIDS = st.one_of(st.integers(min_value=0, max_value=1_000), st.text(min_size=1, max_size=8))
TAG_RECORDS = st.lists(
    st.tuples(PIDS, st.integers(min_value=0, max_value=10_000)),
    max_size=8,
    unique_by=lambda record: record[0],
).map(tuple)
VALUES = st.one_of(st.integers(), st.text(max_size=20), st.booleans(), st.none())


def roundtrips(message) -> bool:
    return decode_message(encode_message(message)) == message


class TestDetectorMessages:
    @given(sender=PIDS, round_id=st.integers(min_value=1), suspected=TAG_RECORDS, mistakes=TAG_RECORDS)
    def test_query_roundtrip(self, sender, round_id, suspected, mistakes):
        assert roundtrips(
            Query(sender=sender, round_id=round_id, suspected=suspected, mistakes=mistakes)
        )

    @given(sender=PIDS, round_id=st.integers(min_value=1))
    def test_response_roundtrip(self, sender, round_id):
        assert roundtrips(Response(sender=sender, round_id=round_id))

    @given(
        sender=PIDS,
        round_id=st.integers(min_value=1),
        accusations=TAG_RECORDS,
    )
    def test_query_with_piggyback_roundtrip(self, sender, round_id, accusations):
        query = Query(
            sender=sender,
            round_id=round_id,
            suspected=(),
            mistakes=(),
            extra=(("omega.accusations", accusations),),
        )
        assert roundtrips(query)


class TestBaselineMessages:
    @given(sender=PIDS, seq=st.integers(min_value=0))
    def test_heartbeat_roundtrip(self, sender, seq):
        assert roundtrips(Heartbeat(sender=sender, seq=seq))

    @given(sender=PIDS, vector=TAG_RECORDS)
    def test_gossip_roundtrip(self, sender, vector):
        assert roundtrips(GossipHeartbeat(sender=sender, vector=vector))


class TestConsensusMessages:
    @given(sender=PIDS, round=st.integers(min_value=1), value=VALUES, ts=st.integers(min_value=0))
    def test_estimate_roundtrip(self, sender, round, value, ts):
        assert roundtrips(Estimate(sender=sender, round=round, value=value, ts=ts))

    @given(sender=PIDS, round=st.integers(min_value=1), value=VALUES)
    def test_proposal_roundtrip(self, sender, round, value):
        assert roundtrips(Proposal(sender=sender, round=round, value=value))

    @given(sender=PIDS, round=st.integers(min_value=1))
    def test_ack_nack_roundtrip(self, sender, round):
        assert roundtrips(Ack(sender=sender, round=round))
        assert roundtrips(Nack(sender=sender, round=round))

    @given(sender=PIDS, value=VALUES)
    def test_decide_roundtrip(self, sender, value):
        assert roundtrips(Decide(sender=sender, value=value))


ROUNDS = st.integers(min_value=1)
# Everything a field may legally hold and get back unchanged: scalars,
# nested tuples, frozensets of hashables, mappings (lists decode to tuples
# and NaN != NaN, so neither is a round-trippable input).
SCALARS = st.one_of(
    st.integers(), st.text(max_size=12), st.booleans(), st.none(),
    st.floats(allow_nan=False),
)
HASHABLES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(HASHABLES, max_size=4),
        st.dictionaries(HASHABLES, inner, max_size=3),
    ),
    max_leaves=10,
)
EXTRAS = st.lists(st.tuples(st.text(max_size=8), PAYLOADS), max_size=3).map(tuple)
BALLOTS = st.one_of(
    st.builds(Estimate, sender=PIDS, round=ROUNDS, value=PAYLOADS, ts=st.integers(min_value=0)),
    st.builds(Proposal, sender=PIDS, round=ROUNDS, value=PAYLOADS),
    st.builds(Ack, sender=PIDS, round=ROUNDS),
    st.builds(Nack, sender=PIDS, round=ROUNDS),
    st.builds(Decide, sender=PIDS, value=PAYLOADS),
)
#: the nine kinds the reference model can encode
REFERENCE_MESSAGES = st.one_of(
    st.builds(Query, sender=PIDS, round_id=ROUNDS, suspected=TAG_RECORDS,
              mistakes=TAG_RECORDS, extra=EXTRAS),
    st.builds(Response, sender=PIDS, round_id=ROUNDS, extra=EXTRAS),
    st.builds(Heartbeat, sender=PIDS, seq=st.integers(min_value=0)),
    st.builds(GossipHeartbeat, sender=PIDS, vector=TAG_RECORDS),
    BALLOTS,
)


class TestInstanceEnvelope:
    @given(instance=st.integers(min_value=2), ballot=BALLOTS)
    def test_envelope_roundtrip_over_every_ballot_kind(self, instance, ballot):
        assert roundtrips(InstanceEnvelope(instance=instance, payload=ballot))

    def test_envelope_wire_form_is_the_tagged_message(self):
        data = encode_message(InstanceEnvelope(2, Ack(1, 3)))
        assert data == (
            b'{"kind":"consensus.instance","instance":2,'
            b'"payload":{"__message__":{"kind":"ct.ack","sender":1,"round":3}}}'
        )


class TestAgainstReferenceEncoder:
    def test_reference_covers_every_kind_but_the_envelope(self):
        covered = {
            "fd.query", "fd.response", "hb.beat", "hb.gossip",
            "ct.estimate", "ct.proposal", "ct.ack", "ct.nack", "ct.decide",
        }
        assert set(codec._KIND_BY_TYPE.values()) == covered | {"consensus.instance"}

    @given(message=REFERENCE_MESSAGES)
    def test_compiled_encoder_is_byte_identical(self, message):
        data = encode_message(message)
        assert data == reference_encode(message)  # so decoding inverts both
        assert decode_message(data) == message


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8),
)
FIELD_NAMES = sorted(
    {"kind", "__message__", "__frozenset__", "__mapping__"}
    | {f.name for cls in codec._KIND_BY_TYPE for f in dataclasses.fields(cls)}
)
JSON_VALUES = st.recursive(
    st.one_of(JSON_LEAVES, st.sampled_from(sorted(codec._KIND_BY_TYPE.values()))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(FIELD_NAMES), st.text(max_size=4)),
                        inner, max_size=6),
    ),
    max_leaves=20,
)


def decodes_or_drops(data: bytes) -> None:
    try:
        message = decode_message(data)
    except TransportError:
        return
    assert type(message) in codec._KIND_BY_TYPE


RESPONSE_WITH_EXTRA = b'{"kind":"fd.response","sender":1,"round_id":1,"extra":%s}'
ENVELOPE_WITH_PAYLOAD = b'{"kind":"consensus.instance","instance":2,"payload":{"__message__":%s}}'


class TestHostileInput:
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        decodes_or_drops(data)

    @given(value=JSON_VALUES)
    def test_arbitrary_json(self, value):
        decodes_or_drops(json.dumps(value).encode("utf-8"))

    @given(message=REFERENCE_MESSAGES, field=st.sampled_from(FIELD_NAMES), value=JSON_VALUES)
    def test_one_corrupted_field_of_a_valid_message(self, message, field, value):
        payload = json.loads(encode_message(message))
        payload[field] = value
        decodes_or_drops(json.dumps(payload).encode("utf-8"))

    @pytest.mark.parametrize("data", [
        pytest.param(b'{"kind":[1]}', id="kind-list"),
        pytest.param(b'{"kind":{}}', id="kind-dict"),
        pytest.param(b'{"kind":null}', id="kind-null"),
        pytest.param(RESPONSE_WITH_EXTRA % b'{"__frozenset__":5}', id="frozenset-scalar"),
        pytest.param(RESPONSE_WITH_EXTRA % b'{"__frozenset__":[{}]}', id="frozenset-unhashable"),
        pytest.param(RESPONSE_WITH_EXTRA % b'{"__mapping__":[1]}', id="mapping-not-pairs"),
        pytest.param(RESPONSE_WITH_EXTRA % b'{"__mapping__":[[{},1]]}', id="mapping-unhashable-key"),
        pytest.param(ENVELOPE_WITH_PAYLOAD % b"7", id="nested-message-scalar"),
        pytest.param(ENVELOPE_WITH_PAYLOAD % b'{"kind":[1]}', id="nested-message-kind-list"),
        pytest.param(b"[" * 100_000, id="scanner-overflow"),
    ])
    def test_known_escapes_raise_transport_error(self, data):
        with pytest.raises(TransportError):
            decode_message(data)

    @pytest.mark.parametrize("depth", range(100, 1300, 100))
    def test_deep_nesting_never_escapes_as_recursion_error(self, depth):
        # shallow nests decode, the deepest overflow the JSON scanner, and
        # in between the parse succeeds but the container walk overflows
        decodes_or_drops(RESPONSE_WITH_EXTRA % (b"[" * depth + b"]" * depth))
