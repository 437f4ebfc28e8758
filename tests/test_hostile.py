"""Generated hostile inputs for every decoder on the serving path.

Each decoder gets a well-formed input with one mutation: a flipped bit, a
cut, appended bytes, or one field rewritten to lie. The fields come from the
``struct.Struct`` records the program itself reads and writes, through one
helper, ``fields``. An integer field lies with zero, one, off by one,
doubled, the top bit, all ones, or any value; a bytes field (a magic, nonce,
key, measurement or MAC) with zeros, ones, or any bytes of its length.
The contract is the same for all of them: the input parses, or the decoder raises an
``IrshieldError`` that the shared error table does not map to
``ERR_INTERNAL``. A ready enclave session answers every mutated Infer or Map
frame with an error frame or a well-formed reply, and stays ready. A fresh
session answers every mutated Attest or ProvisionKeys frame with its reply
or an error code other than ``ERR_INTERNAL``; a refused ProvisionKeys leaves
it ``failed`` and holding no key. The file
readers are held to their own error type: the netpbm reader to
``ShapeError``, and ``parse_network`` on mutated weight bytes to
``WeightsError``. A deployment whose ``partition.json`` or ``backnet.cfg``
was mutated and rehashed in the manifest either fails with an
``IrshieldError`` or can answer Hello.
"""

import importlib
import pkgutil
import re
import socket
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irshield
from irshield import enclave, netdef, partition, protocol, sealing, tensor
from irshield.enclave import (
    MSG_ATTEST_EVIDENCE,
    MSG_ATTEST_REQ,
    MSG_ERROR,
    MSG_INFER,
    MSG_IR,
    MSG_MAP,
    MSG_PROVISION,
    MSG_PROVISION_OK,
    MSG_RESULT,
    _wrap_key,
    attest,
    build_key_message,
    enclave_create,
    measurement_from_manifest,
    provision_keys,
)
from irshield.errors import IrshieldError, ProtocolError, ShapeError, WeightsError
from irshield.imageio import load_image
from irshield.netdef import parse_network, serialize_network
from irshield.partition import (
    pack_model, parse_manifest, render_manifest, split_network, unpack_model, write_artifacts,
)
from irshield.protocol import decode_result_payload, encode_result_payload
from irshield.sealing import NONCE_LEN, SealedContainer, encrypt, open_container, seal
from irshield.server import deploy
from irshield.tensor import Tensor

from conftest import rewrite_artifact, seed_image
from test_enclave import held_secrets

MODEL_KEY = bytes(range(32))
IMG_KEY = bytes(range(32, 64))
ROOT_KEY = bytes(range(64, 96))
LABELS = [f"label-{i}" for i in range(10)]

HOSTILE = settings(derandomize=True, max_examples=150, deadline=None)


_FIELD = re.compile(r"(\d*)([a-zA-Z?])")


def walk(record: struct.Struct):
    """Each field of ``record`` as ``(offset, format, lies)``: integer and
    ``Ns`` bytes fields are given lies, floats are skipped."""
    order = record.format[0] if record.format[0] in "@=<>!" else ""
    consumed = order
    for count, code in _FIELD.findall(record.format[len(order):]):
        for one in [count + code] if code == "s" else [code] * int(count or 1):
            # a zero-count field of the same code gives the aligned start
            yield struct.calcsize(f"{consumed}0{code}"), order + one, code not in "efd"
            consumed += one


def fields(*layout) -> tuple[tuple[int, str], ...]:
    """The ``(offset, format)`` of every field that can lie in ``layout``, whose
    items lie end to end: each is a ``struct.Struct`` record, or the number of
    bytes of something that is not one (a label, say)."""
    out, at = [], 0
    for part in layout:
        if isinstance(part, struct.Struct):
            out += [(at + offset, fmt) for offset, fmt, lies in walk(part) if lies]
            part = part.size
        at += part
    return tuple(out)


def src_structs():
    for info in pkgutil.iter_modules(irshield.__path__):
        module = importlib.import_module(f"irshield.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, struct.Struct):
                yield pytest.param(value, id=f"{info.name}.{name}")


@pytest.mark.parametrize("record", list(src_structs()))
def test_fields_cover_each_src_struct(record):
    # the fields that lie and the floats skipped fill the record, each where it packs
    walked = list(walk(record))
    assert sum(struct.calcsize(fmt) for _, fmt, _ in walked) == record.size
    values = [bytes([k]) * struct.calcsize(fmt) if fmt.endswith("s") else k
              for k, (_, fmt, _) in enumerate(walked, start=1)]
    blob = record.pack(*values)
    assert [struct.unpack_from(fmt, blob, offset)[0] for offset, fmt, _ in walked] == values


@st.composite
def mutated(draw, blob: bytes, record_fields: tuple[tuple[int, str], ...] = ()):
    """``blob`` with one bit flipped, cut short, extended, or with one of its
    ``(offset, struct format)`` fields rewritten to lie."""
    kind = draw(st.sampled_from(["flip", "cut", "append"] + ["lie"] * 3 * bool(record_fields)))
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(blob) - 1))
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "cut":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=32))
    offset, fmt = draw(st.sampled_from(record_fields))
    (true,) = struct.unpack_from(fmt, blob, offset)
    size = struct.calcsize(fmt)
    if isinstance(true, bytes):
        lies = [v for v in (bytes(size), b"\xff" * size) if v != true]
        value = draw(st.sampled_from(lies) | st.binary(min_size=size, max_size=size))
    else:
        top = 2 ** (8 * size) - 1
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
CONTAINER = seal(bytes(range(48)), IMG_KEY, "image", nonce=bytes(NONCE_LEN)).encode()
TENSOR = Tensor.from_array(np.arange(24).reshape(2, 3, 4)).encode()
RESULT_ENTRIES = [(3, "cat", 0.5), (7, "dög", 0.25)]
RESULT = encode_result_payload(RESULT_ENTRIES)
# the count, then each entry's record followed by its label
RESULT_FIELDS = fields(protocol._RESULT_COUNT, *[part for _, label, _ in RESULT_ENTRIES
                                                for part in (protocol._RESULT_ENTRY, len(label.encode()))])
MANIFEST = render_manifest({
    "frontnet.sealed": "0123456789abcdef" * 4,
    "labels.sealed": "fedcba9876543210" * 4,
    "partition.json": "ab" * 32,
}).encode()


@HOSTILE
@given(mutated(FRAME, fields(protocol._HEADER)))
def test_unpack_frame(blob):
    parses_or_refuses(protocol.unpack_frame, blob)


@HOSTILE
@given(mutated(FRAME, fields(protocol._HEADER)))
def test_read_frame(blob):
    # the peer sends the bytes and closes: a lying length or a cut ends in
    # ConnectionError, a bad type or an oversized length in ProtocolError
    # (FrameTooLarge is one)
    writer, reader = socket.socketpair()
    with writer, reader:
        reader.settimeout(5)
        writer.sendall(blob)
        writer.shutdown(socket.SHUT_WR)
        with pytest.raises((ProtocolError, ConnectionError)):
            while True:
                protocol.read_frame(reader)


@HOSTILE
@given(mutated(HELLO, fields(protocol._SERVER_HELLO)))
def test_parse_server_hello(blob):
    parses_or_refuses(protocol.parse_server_hello, blob)


@HOSTILE
@given(mutated(ERROR, fields(protocol._ERROR_CODE)))
def test_decode_error(blob):
    parses_or_refuses(protocol.decode_error, blob)


@HOSTILE
@given(mutated(CONTAINER, fields(sealing._HEADER)))
def test_sealed_container_decode(blob):
    parses_or_refuses(SealedContainer.decode, blob)


@HOSTILE
@given(mutated(TENSOR, fields(tensor._HEADER)))
def test_tensor_decode(blob):
    parses_or_refuses(Tensor.decode, blob)


@HOSTILE
@given(mutated(RESULT, RESULT_FIELDS))
def test_decode_result_payload(blob):
    parses_or_refuses(decode_result_payload, blob)


NETPBM = (
    b"P2\n# a comment\n3 2\n255\n0 1 2\n3 4 255\n",
    b"P3 2 1 65535 0 1 2 65535 40000 7\n",
    b"P5\n3 2\n255\n" + bytes(range(0, 60, 10)),
    b"P6 2 1 1000\n" + struct.pack(">6H", 0, 1, 999, 1000, 500, 7),
)


@st.composite
def mutated_text(draw, blob: bytes):
    """``blob`` mutated as by ``mutated``, or with one of its decimal numbers
    rewritten to lie: zero, one, off by one, doubled, past 16 bits, or far
    too long to convert."""
    if draw(st.booleans()):
        return draw(mutated(blob))
    number = draw(st.sampled_from(list(re.finditer(rb"\d+", blob))))
    true = int(number.group())
    lies = [str(v).encode() for v in (0, 1, true - 1, true + 1, 2 * true, 65536, 2**63)]
    value = draw(st.sampled_from(lies + [b"9" * 400, b"9" * 5000])
                 | st.integers(0, 2**64).map(lambda v: str(v).encode()))
    return blob[: number.start()] + value + blob[number.end() :]


@pytest.fixture(scope="module")
def image_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "image.pnm"


@settings(HOSTILE, max_examples=4 * HOSTILE.max_examples)
@given(blob=st.sampled_from(NETPBM).flatmap(mutated_text))
@example(blob=b"P2 1 1 255 " + b"9" * 5000)
@example(blob=b"P2 1 1 255 " + b"9" * 400)
def test_load_image(image_path, blob):
    image_path.write_bytes(blob)
    try:
        load_image(image_path)
    except ShapeError:
        pass


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, plain17):
    directory = tmp_path_factory.mktemp("hostile-artifacts")
    write_artifacts(directory, plain17, 4, LABELS, MODEL_KEY, nonces=(bytes(12), bytes(range(12))))
    return directory, {name: (directory / name).read_bytes()
                       for name in ("partition.json", "backnet.cfg")}


def deploy_mutated(artifacts, name: str, blob: bytes) -> None:
    """Deploy with artifact ``name`` replaced by ``blob`` and rehashed in the
    manifest, then put the original back. ``deploy`` must raise an
    ``IrshieldError`` or return a Deployment whose Hello parses."""
    directory, originals = artifacts
    rewrite_artifact(directory, name, blob)
    try:
        dep = deploy(directory, k=1, root_key=ROOT_KEY)
    except IrshieldError:
        return
    finally:
        rewrite_artifact(directory, name, originals[name])
    protocol.parse_server_hello(dep.hello)


@HOSTILE
@given(data=st.data())
def test_deploy_partition_record(artifacts, data):
    record = artifacts[1]["partition.json"]
    deploy_mutated(artifacts, "partition.json", data.draw(mutated_text(record)))


@HOSTILE
@given(data=st.data())
def test_deploy_back_config(artifacts, data):
    config = artifacts[1]["backnet.cfg"]
    deploy_mutated(artifacts, "backnet.cfg", data.draw(mutated_text(config)))


@pytest.fixture(scope="module")
def front(plain17):
    return split_network(plain17, 4)[0]


@HOSTILE
@given(data=st.data())
def test_parse_network_weights(front, data):
    config, weights = serialize_network(front)
    try:
        parse_network(config, data.draw(mutated(weights, fields(netdef._WEIGHTS_HEADER))))
    except WeightsError:
        pass


@HOSTILE
@given(data=st.data())
def test_unpack_model(front, data):
    bundle = pack_model(*serialize_network(front))
    parses_or_refuses(unpack_model, data.draw(mutated(bundle, fields(partition._BUNDLE_HEADER))))


@HOSTILE
@given(mutated(MANIFEST))
@example(MANIFEST.replace(b"0123456789abcdef" * 4, b"zz" * 32))
def test_parse_manifest_then_measurement(blob):
    # latin-1 gives every byte sequence a text to parse
    parses_or_refuses(lambda b: measurement_from_manifest(parse_manifest(b.decode("latin-1"))),
                      blob)


@pytest.fixture(scope="module")
def sealed(front):
    """The sealed front model and labels every enclave session here is made over."""
    return (seal(pack_model(*serialize_network(front)), MODEL_KEY, "frontnet"),
            seal("\n".join(LABELS).encode(), MODEL_KEY, "labels"))


# With a fixed client nonce every session over the same artifacts attests to
# the same evidence, so one key message provisions any of them.
NONCE = bytes(range(96, 128))


@pytest.fixture(scope="module")
def handshake(sealed):
    """The wrap key and key message of a session attested with ``NONCE``."""
    evidence = attest(enclave_create(*sealed), NONCE, ROOT_KEY)
    wrap = _wrap_key(ROOT_KEY, evidence.measurement, NONCE, evidence.mac)
    return wrap, build_key_message(ROOT_KEY, evidence.measurement, NONCE, evidence.mac,
                                   MODEL_KEY, IMG_KEY, nonce=bytes(12))


@pytest.fixture(scope="module")
def session(sealed, handshake):
    session = enclave_create(*sealed)
    attest(session, NONCE, ROOT_KEY)
    provision_keys(session, handshake[1])
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
    request = data.draw(mutated(request, fields(protocol._HEADER, sealing._HEADER)))
    assert_error_or_reply(session, request, MSG_IR, Tensor.decode)


@HOSTILE
@given(data=st.data())
def test_enclave_infer_sealed_tensor(session, front, data):
    # a client that holds the image key can seal any tensor bytes it likes
    image = seed_image(front.input_shape, 901).encode()
    blob = data.draw(mutated(image, fields(tensor._HEADER)))
    request = protocol.pack_frame(MSG_INFER, seal(blob, IMG_KEY, "image").encode())
    assert_error_or_reply(session, request, MSG_IR, Tensor.decode)


@HOSTILE
@given(data=st.data())
def test_enclave_map(session, data):
    pairs = [(i, 0.25 * i) for i in (2, 5, 9)]
    body = enclave._COUNT.pack(len(pairs)) + b"".join(enclave._MAP_ENTRY.pack(*p) for p in pairs)
    request = protocol.pack_frame(MSG_MAP, body)
    layout = fields(protocol._HEADER, enclave._COUNT, *[enclave._MAP_ENTRY] * len(pairs))

    def check_result(payload):
        decode_result_payload(open_container(SealedContainer.decode(payload), IMG_KEY))

    assert_error_or_reply(session, data.draw(mutated(request, layout)), MSG_RESULT, check_result)


def reply_type(session, request: bytes) -> int:
    """The type of the session's reply to ``request``; an error frame must
    carry a code other than ``ERR_INTERNAL``."""
    msg_type, payload = protocol.unpack_frame(session.call(request))
    if msg_type == MSG_ERROR:
        code, message = protocol.decode_error(payload)
        assert code != protocol.ERR_INTERNAL, message
    return msg_type


def frame_type(request: bytes) -> int | None:
    try:
        return protocol.unpack_frame(request)[0]
    except ProtocolError:
        return None


@HOSTILE
@given(data=st.data())
def test_enclave_attest_frame(sealed, data):
    # any 32-byte root key attests; only the nonce's length is checked
    session = enclave_create(*sealed)
    request = protocol.pack_frame(MSG_ATTEST_REQ, ROOT_KEY + NONCE)
    got = reply_type(session, data.draw(mutated(request, fields(protocol._HEADER,
                                                                enclave._ATTEST_REQUEST))))
    assert got in (MSG_ATTEST_EVIDENCE, MSG_ERROR)
    assert session.state == ("attested" if got == MSG_ATTEST_EVIDENCE else "created")


@st.composite
def provision_requests(draw, wrap: bytes, key_msg: bytes):
    """A ProvisionKeys frame mutated as by ``mutated``, a frame around a
    mutated key message, or one whose sender holds the wrap key and wraps
    mutated key material."""
    kind = draw(st.sampled_from(["frame", "message", "keys"]))
    if kind == "frame":
        frame = protocol.pack_frame(MSG_PROVISION, key_msg)
        return draw(mutated(frame, fields(protocol._HEADER, enclave._KEY_MESSAGE)))
    if kind == "message":
        return protocol.pack_frame(MSG_PROVISION,
                                   draw(mutated(key_msg, fields(enclave._KEY_MESSAGE))))
    keys = draw(mutated(MODEL_KEY + IMG_KEY, fields(enclave._KEYS)))
    # joined, not packed, so that keys of another length keep it
    nonce = bytes(NONCE_LEN)
    return protocol.pack_frame(MSG_PROVISION, nonce + encrypt(wrap, nonce, keys, enclave._KEYS_AAD))


@HOSTILE
@given(data=st.data())
def test_enclave_provision_frame(sealed, handshake, data):
    wrap, key_msg = handshake
    session = enclave_create(*sealed)
    attest(session, NONCE, ROOT_KEY)
    request = data.draw(provision_requests(wrap, key_msg))
    got = reply_type(session, request)
    assert got in (MSG_PROVISION_OK, MSG_ERROR)
    if got == MSG_PROVISION_OK:
        assert session.state == "ready"
    elif frame_type(request) == MSG_PROVISION:
        # a refused ProvisionKeys fails the session and leaves it no secret
        assert session.state == "failed"
        secrets = {"root key": ROOT_KEY, "model key": MODEL_KEY, "image key": IMG_KEY,
                   "wrap key": wrap}
        assert held_secrets(session, secrets) == []
    else:
        # a frame of another type or length never reaches the handler
        assert session.state == "attested"
