"""Generated hostile inputs for every decoder on the serving path.

Each decoder gets a well-formed input with one mutation: a flipped bit, a
cut, appended bytes, or one u8/u16/u32/u64 field rewritten to lie (zero,
one, off by one, doubled, the top bit, all ones, or any value). The contract
is the same for all of them: the input parses, or the decoder raises an
``IrshieldError`` that the shared error table does not map to
``ERR_INTERNAL``. A ready enclave session answers every mutated Infer or Map
frame with an error frame or a well-formed reply, and stays ready.
"""

import os
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irshield import protocol
from irshield.enclave import (
    MSG_ERROR,
    MSG_INFER,
    MSG_IR,
    MSG_MAP,
    MSG_RESULT,
    attest,
    build_key_message,
    decode_result_payload,
    encode_result_payload,
    enclave_create,
    measurement_from_manifest,
    provision_keys,
)
from irshield.errors import IrshieldError
from irshield.netdef import serialize_network
from irshield.partition import (
    pack_model, parse_manifest, render_manifest, split_network, unpack_model,
)
from irshield.sealing import SealedContainer, open_container, seal
from irshield.tensor import Tensor

from conftest import seed_image

MODEL_KEY = bytes(range(32))
IMG_KEY = bytes(range(32, 64))
ROOT_KEY = bytes(range(64, 96))
LABELS = [f"label-{i}" for i in range(10)]

HOSTILE = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def mutated(draw, blob: bytes, fields: tuple[tuple[int, str], ...] = ()):
    """``blob`` with one bit flipped, cut short, extended, or with one of its
    ``(offset, struct format)`` fields rewritten to lie."""
    kind = draw(st.sampled_from(["flip", "cut", "append"] + ["lie"] * 3 * bool(fields)))
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(blob) - 1))
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "cut":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=32))
    offset, fmt = draw(st.sampled_from(fields))
    (true,) = struct.unpack_from(fmt, blob, offset)
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    lies = sorted({v for v in (0, 1, true - 1, true + 1, 2 * true, top // 2 + 1, top)
                   if 0 <= v <= top and v != true})
    value = draw(st.sampled_from(lies) | st.integers(0, top))
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def parses_or_refuses(decode, blob: bytes) -> None:
    try:
        decode(blob)
    except IrshieldError as exc:
        assert protocol.error_code(exc) != protocol.ERR_INTERNAL, repr(exc)


FRAME = protocol.pack_frame(protocol.MSG_PREDICT, bytes(range(40)))
HELLO = protocol.server_hello_payload((32, 32, 3), 10, 5)
ERROR = protocol.error_payload(protocol.ERR_MALFORMED, "frame length mismatch")
CONTAINER = seal(bytes(range(48)), IMG_KEY, "image", nonce=bytes(12)).encode()
TENSOR = Tensor(4, 3, 2, [float(i) for i in range(24)]).encode()
# entries start at 4; each is u32 index, f32 score, u16 label length, label
RESULT = encode_result_payload([(3, "cat", 0.5), (7, "dög", 0.25)])
MANIFEST = render_manifest({
    "frontnet.sealed": "0123456789abcdef" * 4,
    "labels.sealed": "fedcba9876543210" * 4,
    "partition.json": "ab" * 32,
}).encode()


@HOSTILE
@given(mutated(FRAME, ((0, "B"), (1, "<Q"))))
def test_unpack_frame(blob):
    parses_or_refuses(protocol.unpack_frame, blob)


@HOSTILE
@given(mutated(HELLO, tuple((4 * i, "<I") for i in range(6))))
def test_parse_server_hello(blob):
    parses_or_refuses(protocol.parse_server_hello, blob)


@HOSTILE
@given(mutated(ERROR, ((0, "<H"),)))
def test_decode_error(blob):
    parses_or_refuses(protocol.decode_error, blob)


@HOSTILE
@given(mutated(CONTAINER, ((4, "<I"), (8, "B"), (21, "<Q"))))
def test_sealed_container_decode(blob):
    parses_or_refuses(SealedContainer.decode, blob)


@HOSTILE
@given(mutated(TENSOR, ((0, "<I"), (4, "<I"), (8, "<I"))))
def test_tensor_decode(blob):
    parses_or_refuses(Tensor.decode, blob)


@HOSTILE
@given(mutated(RESULT, ((0, "<I"), (4, "<I"), (12, "<H"), (17, "<I"), (25, "<H"))))
def test_decode_result_payload(blob):
    parses_or_refuses(decode_result_payload, blob)


@pytest.fixture(scope="module")
def front(plain17):
    return split_network(plain17, 4)[0]


@HOSTILE
@given(data=st.data())
def test_unpack_model(front, data):
    bundle = pack_model(*serialize_network(front))
    parses_or_refuses(unpack_model, data.draw(mutated(bundle, ((0, "<Q"),))))


@HOSTILE
@given(mutated(MANIFEST))
@example(MANIFEST.replace(b"0123456789abcdef" * 4, b"zz" * 32))
def test_parse_manifest_then_measurement(blob):
    # latin-1 gives every byte sequence a text to parse
    parses_or_refuses(lambda b: measurement_from_manifest(parse_manifest(b.decode("latin-1"))),
                      blob)


@pytest.fixture(scope="module")
def session(front):
    session = enclave_create(seal(pack_model(*serialize_network(front)), MODEL_KEY, "frontnet"),
                             seal("\n".join(LABELS).encode(), MODEL_KEY, "labels"))
    nonce = os.urandom(32)
    evidence = attest(session, nonce, ROOT_KEY)
    provision_keys(session, build_key_message(
        ROOT_KEY, evidence.measurement, nonce, evidence.mac, MODEL_KEY, IMG_KEY))
    return session


def assert_error_or_reply(session, request: bytes, reply_type: int, check_reply) -> None:
    msg_type, payload = protocol.unpack_frame(session.call(request))
    if msg_type == MSG_ERROR:
        protocol.decode_error(payload)
    else:
        assert msg_type == reply_type
        check_reply(payload)
    assert session.state == "ready"


@HOSTILE
@given(data=st.data())
def test_enclave_infer_frame(session, front, data):
    image = seed_image(front.input_shape, 900).encode()
    request = protocol.pack_frame(MSG_INFER, seal(image, IMG_KEY, "image").encode())
    fields = ((0, "B"), (1, "<Q"), (13, "<I"), (17, "B"), (30, "<Q"))
    assert_error_or_reply(session, data.draw(mutated(request, fields)), MSG_IR, Tensor.decode)


@HOSTILE
@given(data=st.data())
def test_enclave_infer_sealed_tensor(session, front, data):
    # a client that holds the image key can seal any tensor bytes it likes
    image = seed_image(front.input_shape, 901).encode()
    blob = data.draw(mutated(image, ((0, "<I"), (4, "<I"), (8, "<I"))))
    request = protocol.pack_frame(MSG_INFER, seal(blob, IMG_KEY, "image").encode())
    assert_error_or_reply(session, request, MSG_IR, Tensor.decode)


@HOSTILE
@given(data=st.data())
def test_enclave_map(session, data):
    body = struct.pack("<I", 3) + b"".join(struct.pack("<If", i, 0.25 * i) for i in (2, 5, 9))
    request = protocol.pack_frame(MSG_MAP, body)
    fields = ((0, "B"), (1, "<Q"), (9, "<I"), (13, "<I"), (21, "<I"), (29, "<I"))

    def check_result(payload):
        decode_result_payload(open_container(SealedContainer.decode(payload), IMG_KEY))

    assert_error_or_reply(session, data.draw(mutated(request, fields)), MSG_RESULT, check_result)
