import errno
import hashlib
import json
import logging
import os
import shutil
import socket
import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from irshield import enclave, protocol
from irshield.client import AttestationRejected, ResultAuthError, client_predict
from irshield.enclave import (
    attest,
    build_key_message,
    enclave_create,
    measurement_from_manifest,
    provision_keys,
    verify_evidence,
)
from irshield.engine import forward, top_k
from irshield.errors import (
    AuthError, PartitionError, ProtocolError, ShapeError, StateError, WeightsError,
)
from irshield.imageio import load_image, resize_to_shape
from irshield.netdef import parse_network, serialize_network
from irshield.partition import parse_manifest, render_manifest, write_artifacts
from irshield.protocol import decode_result_payload
from irshield.sealing import SealedContainer, open_container, seal
from irshield.server import Server, deploy, handle_predict
from irshield.tensor import Tensor

from conftest import GOLDEN_DIR, rewrite_artifact, seed_image, write_netpbm

MODEL_KEY = bytes(range(32))
IMG_KEY = bytes(range(32, 64))
ROOT_KEY = bytes(range(64, 96))
LABELS10 = [f"label-{i:02d}-subject-code-{i * 7:04d}" for i in range(10)]


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory, plain17):
    directory = tmp_path_factory.mktemp("deploy") / "plain17-cut4"
    write_artifacts(directory, plain17, 4, LABELS10, MODEL_KEY,
                    nonces=(bytes(12), bytes(range(12))))
    return directory


@pytest.fixture(scope="module")
def measurement(artifact_dir):
    """The enclave measurement every deployment of ``artifact_dir`` attests to."""
    return measurement_from_manifest(parse_manifest((artifact_dir / "manifest.txt").read_text()))


@pytest.fixture()
def server(artifact_dir):
    dep = deploy(artifact_dir, k=3, root_key=ROOT_KEY)
    tap: list[bytes] = []
    srv = Server(("127.0.0.1", 0), dep, tap=tap).start()
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def test_image(tmp_path_factory, plain17):
    path = tmp_path_factory.mktemp("images") / "input.ppm"
    write_netpbm(seed_image(plain17.input_shape, 500), path)
    return path


def expected_topk(plain17, image_path, k):
    probs = forward(plain17, load_image(image_path))
    return [(LABELS10[i - 1], s) for i, s in top_k(probs, k)]


def edit_record(directory, **changes) -> None:
    """Rewrite partition.json with ``changes`` (a None value drops the key) and
    rehash its manifest line."""
    meta = json.loads((directory / "partition.json").read_text())
    meta.update(changes)
    meta = {key: value for key, value in meta.items() if value is not None}
    rewrite_artifact(directory, "partition.json", json.dumps(meta).encode())


@pytest.fixture()
def record_dir(tmp_path, artifact_dir):
    """A copy of the deployed artifacts that a test may edit."""
    return shutil.copytree(artifact_dir, tmp_path / "m")


class TestDeploy:
    def test_happy_path(self, artifact_dir):
        dep = deploy(artifact_dir, k=3, root_key=ROOT_KEY)
        assert dep.backnet is dep.artifacts.backnet
        assert dep.backnet.n_layers == 13
        assert protocol.parse_server_hello(dep.hello) == {
            "version": protocol.PROTOCOL_VERSION, "input_shape": (32, 32, 3), "classes": 10, "k": 3}
        session = dep.new_session()
        assert session.state == "created"
        assert session.measurement == measurement_from_manifest(dep.artifacts.manifest)

    def test_deploy_creates_no_session(self, artifact_dir, monkeypatch):
        import irshield.server as server_mod

        def refuse(*args, **kwargs):
            raise AssertionError("deploy created an enclave session")

        monkeypatch.setattr(server_mod, "enclave_create", refuse)
        deploy(artifact_dir, k=3, root_key=ROOT_KEY)

    @pytest.mark.parametrize("root_key", [ROOT_KEY.hex(), ROOT_KEY[:31], None])
    def test_root_key_is_32_bytes_only(self, artifact_dir, root_key):
        with pytest.raises(ValueError, match="root key must be 32 bytes"):
            deploy(artifact_dir, k=3, root_key=root_key)

    def test_k_bounds(self, artifact_dir):
        with pytest.raises(ValueError, match="k must be"):
            deploy(artifact_dir, k=0, root_key=ROOT_KEY)
        with pytest.raises(ValueError, match="k must be"):
            deploy(artifact_dir, k=11, root_key=ROOT_KEY)

    def test_truncated_backnet_weights(self, record_dir):
        truncated = (record_dir / "backnet.weights").read_bytes()[:-40]
        rewrite_artifact(record_dir, "backnet.weights", truncated)
        with pytest.raises(WeightsError, match=r"expected \d+ bytes, got \d+ bytes"):
            deploy(record_dir, k=3, root_key=ROOT_KEY)

    def test_edited_manifest_hash_mismatch(self, tmp_path, plain17):
        directory = tmp_path / "m"
        arts = write_artifacts(directory, plain17, 4, LABELS10, MODEL_KEY)
        hashes = dict(arts.manifest)
        hashes["partition.json"] = "f" * 64
        (directory / "manifest.txt").write_text(render_manifest(hashes))
        with pytest.raises(ProtocolError, match="hash mismatch"):
            deploy(directory, k=3, root_key=ROOT_KEY)

    def test_shape_incompatibility(self, record_dir):
        edit_record(record_dir, ir_shape=[4, 4, 2])
        with pytest.raises(ShapeError, match="front model emits"):
            deploy(record_dir, k=3, root_key=ROOT_KEY)

    def test_class_count_and_k_bound_come_from_the_back_model(self, record_dir):
        # the record claims 12 classes; the back model has 10
        edit_record(record_dir, classes=12)
        with pytest.raises(ValueError, match=r"k must be in \[1, 10\], got 11"):
            deploy(record_dir, k=11, root_key=ROOT_KEY)
        srv = Server(("127.0.0.1", 0), deploy(record_dir, k=3, root_key=ROOT_KEY)).start()
        driver = WireDriver(srv.address)
        try:
            assert driver.handshake()["classes"] == 10
        finally:
            driver.close()
            srv.stop()

    def test_record_without_cut_refused(self, record_dir):
        edit_record(record_dir, cut=None)
        with pytest.raises(ProtocolError, match="partition.json must be an object with the keys"):
            deploy(record_dir, k=3, root_key=ROOT_KEY)

    def test_record_that_is_a_list_refused(self, record_dir):
        rewrite_artifact(record_dir, "partition.json", b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError, match="partition.json must be an object with the keys"):
            deploy(record_dir, k=3, root_key=ROOT_KEY)

    def test_record_with_scalar_input_shape_refused(self, record_dir):
        edit_record(record_dir, input_shape=7)
        with pytest.raises(ProtocolError, match=r"input_shape must be three integers"):
            deploy(record_dir, k=3, root_key=ROOT_KEY)

    def test_record_with_unsendable_input_shape_refused(self, record_dir):
        # deploy never advertises in its Hello a shape no client can send
        edit_record(record_dir, input_shape=[65535, 65535, 3])
        with pytest.raises(ProtocolError,
                           match="partition.json input shape 65535x65535x3 cannot be sent"):
            deploy(record_dir, k=3, root_key=ROOT_KEY)

    def test_back_model_without_softmax_refused(self, record_dir):
        # every Predict would otherwise be answered as a malformed image
        config = (record_dir / "backnet.cfg").read_text()
        assert config.endswith("[softmax]\n")
        rewrite_artifact(record_dir, "backnet.cfg", config[: -len("[softmax]\n")].encode())
        with pytest.raises(ProtocolError, match=r"back model must end in a \[softmax\] layer"):
            deploy(record_dir, k=3, root_key=ROOT_KEY)

    @pytest.mark.parametrize("slots, message", [
        (("labels.sealed", "frontnet.sealed"), "container holds labels, expected frontnet"),
        (("frontnet.sealed", "frontnet.sealed"), "container holds frontnet, expected labels"),
    ])
    def test_sealed_artifact_in_the_wrong_slot_refused(self, record_dir, slots, message):
        # each container's content type is in its clear header
        blobs = [(record_dir / name).read_bytes() for name in slots]
        rewrite_artifact(record_dir, "frontnet.sealed", blobs[0])
        rewrite_artifact(record_dir, "labels.sealed", blobs[1])
        with pytest.raises(AuthError, match=message):
            deploy(record_dir, k=3, root_key=ROOT_KEY)

    def test_back_config_not_utf8_refused(self, record_dir):
        config = (record_dir / "backnet.cfg").read_bytes()
        rewrite_artifact(record_dir, "backnet.cfg", b"\xff\xfe" + config)
        with pytest.raises(ProtocolError, match="back model config is not UTF-8 text"):
            deploy(record_dir, k=3, root_key=ROOT_KEY)

    def test_hand_built_network_with_an_unknown_activation_never_sealed(self, plain17):
        # the network itself is refused, so write_artifacts cannot seal it; sealed,
        # it deployed, and every client's provisioning then failed as an AuthError
        # when the enclave parsed the front model
        tanh = replace(plain17.layers[0], activation="tanh")
        with pytest.raises(ShapeError, match=r"^layer 1 \(convolutional\): unknown activation 'tanh'"):
            replace(plain17, layers=(tanh, *plain17.layers[1:]))


def provisioned_session(dep, img_key=IMG_KEY):
    session = dep.new_session()
    nonce = os.urandom(32)
    evidence = attest(session, nonce, dep.root_key)
    key_msg = build_key_message(
        dep.root_key, evidence.measurement, nonce, evidence.mac, MODEL_KEY, img_key
    )
    provision_keys(session, key_msg)
    return session


class TestHandlePredict:
    def test_matches_local_full_model(self, artifact_dir, plain17, test_image):
        dep = deploy(artifact_dir, k=3, root_key=ROOT_KEY)
        session = provisioned_session(dep)
        image = load_image(test_image)
        sealed = seal(image.encode(), IMG_KEY, "image")
        result = handle_predict(dep, session, sealed)
        opened = open_container(SealedContainer.decode(result), IMG_KEY)
        got = [(label, score) for _, label, score in decode_result_payload(opened)]
        assert got == expected_topk(plain17, test_image, 3)

    def test_before_provisioning_not_ready(self, artifact_dir, plain17):
        dep = deploy(artifact_dir, k=3, root_key=ROOT_KEY)
        sealed = seal(seed_image(plain17.input_shape, 501).encode(), IMG_KEY, "image")
        with pytest.raises(StateError):
            handle_predict(dep, dep.new_session(), sealed)

    def test_tampered_image_denied(self, artifact_dir, plain17):
        dep = deploy(artifact_dir, k=3, root_key=ROOT_KEY)
        session = provisioned_session(dep)
        box = seal(seed_image(plain17.input_shape, 502).encode(), IMG_KEY, "image")
        blob = bytearray(box.encode())
        blob[-1] ^= 0x40
        with pytest.raises(AuthError):
            handle_predict(dep, session, bytes(blob))

    def test_sealed_result_replayed_as_image_denied(self, artifact_dir, plain17):
        # a result opens under the image key, but an image opener refuses it
        dep = deploy(artifact_dir, k=3, root_key=ROOT_KEY)
        session = provisioned_session(dep)
        sealed = seal(seed_image(plain17.input_shape, 503).encode(), IMG_KEY, "image")
        result = handle_predict(dep, session, sealed)
        with pytest.raises(AuthError, match="container holds result, expected image"):
            handle_predict(dep, session, result)
        assert session.state == "ready"


class WireDriver:
    """Low-level protocol driver for crafting exact frame sequences."""

    def __init__(self, address, record=None):
        self.sock = socket.create_connection(address, timeout=10)
        self.record = record

    def send(self, msg_type, payload):
        frame = protocol.encode_frame(msg_type, payload)
        if self.record is not None:
            self.record.append(("send", frame))
        self.sock.sendall(frame)

    def recv(self):
        msg_type, payload = protocol.read_frame(self.sock)
        if self.record is not None:
            self.record.append(("recv", protocol.encode_frame(msg_type, payload)))
        return msg_type, payload

    def close(self):
        self.sock.close()

    def handshake(self, model_key=MODEL_KEY, img_key=IMG_KEY, root_key=ROOT_KEY,
                  attest_nonce=None, key_msg_nonce=None):
        self.send(protocol.MSG_HELLO, protocol.PROTOCOL_VERSION.to_bytes(4, "little"))
        msg_type, payload = self.recv()
        assert msg_type == protocol.MSG_HELLO
        info = protocol.parse_server_hello(payload)
        nonce = attest_nonce if attest_nonce is not None else os.urandom(32)
        self.send(protocol.MSG_ATTEST_REQUEST, nonce)
        msg_type, payload = self.recv()
        assert msg_type == protocol.MSG_ATTEST_EVIDENCE
        measurement, mac = payload[:32], payload[32:]
        assert verify_evidence(root_key, measurement, nonce, mac)
        key_msg = build_key_message(root_key, measurement, nonce, mac,
                                    model_key, img_key, nonce=key_msg_nonce)
        self.send(protocol.MSG_PROVISION_KEYS, key_msg)
        msg_type, payload = self.recv()
        assert (msg_type, payload) == (protocol.MSG_PROVISION_KEYS, b"")
        return info

    def predict(self, sealed_bytes):
        self.send(protocol.MSG_PREDICT, sealed_bytes)
        return self.recv()


class TestServing:
    def test_round_trip_equals_local_inference(self, server, plain17, test_image):
        got = client_predict(
            server.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY,
            expected_measurement=measurement_from_manifest(server.dep.artifacts.manifest),
        )
        assert got == expected_topk(plain17, test_image, 3)

    def test_repeated_predicts_on_one_connection(self, server, plain17):
        driver = WireDriver(server.address)
        try:
            driver.handshake()
            for seed in (510, 511, 512):
                x = seed_image(plain17.input_shape, seed)
                msg_type, payload = driver.predict(seal(x.encode(), IMG_KEY, "image").encode())
                assert msg_type == protocol.MSG_RESULT
                opened = open_container(SealedContainer.decode(payload), IMG_KEY)
                got = [(label, score) for _, label, score in decode_result_payload(opened)]
                want = [(LABELS10[i - 1], s) for i, s in top_k(forward(plain17, x), 3)]
                assert got == want
        finally:
            driver.close()

    def test_tampered_image_yields_auth_error_and_connection_survives(self, server, plain17):
        driver = WireDriver(server.address)
        try:
            driver.handshake()
            x = seed_image(plain17.input_shape, 513)
            blob = bytearray(seal(x.encode(), IMG_KEY, "image").encode())
            blob[-2] ^= 0x10
            msg_type, payload = driver.predict(bytes(blob))
            assert msg_type == protocol.MSG_ERROR
            code, _ = protocol.decode_error(payload)
            assert code == protocol.ERR_AUTH_FAILURE
            msg_type, _ = driver.predict(seal(x.encode(), IMG_KEY, "image").encode())
            assert msg_type == protocol.MSG_RESULT
        finally:
            driver.close()

    def test_result_replayed_as_predict_yields_auth_error_and_connection_survives(
        self, server, plain17
    ):
        driver = WireDriver(server.address)
        try:
            driver.handshake()
            image = seal(seed_image(plain17.input_shape, 517).encode(), IMG_KEY, "image").encode()
            msg_type, result = driver.predict(image)
            assert msg_type == protocol.MSG_RESULT
            msg_type, payload = driver.predict(result)
            assert msg_type == protocol.MSG_ERROR
            assert protocol.decode_error(payload)[0] == protocol.ERR_AUTH_FAILURE
            assert driver.predict(image)[0] == protocol.MSG_RESULT
        finally:
            driver.close()

    def test_predict_before_provisioning_not_ready(self, server, plain17):
        driver = WireDriver(server.address)
        try:
            driver.send(protocol.MSG_HELLO, protocol.PROTOCOL_VERSION.to_bytes(4, "little"))
            driver.recv()
            x = seed_image(plain17.input_shape, 514)
            msg_type, payload = driver.predict(seal(x.encode(), IMG_KEY, "image").encode())
            assert msg_type == protocol.MSG_ERROR
            assert protocol.decode_error(payload)[0] == protocol.ERR_NOT_READY
        finally:
            driver.close()

    def test_predict_as_first_frame_not_ready(self, server, plain17):
        driver = WireDriver(server.address)
        try:
            x = seed_image(plain17.input_shape, 517)
            msg_type, payload = driver.predict(seal(x.encode(), IMG_KEY, "image").encode())
            assert msg_type == protocol.MSG_ERROR
            assert protocol.decode_error(payload)[0] == protocol.ERR_NOT_READY
        finally:
            driver.close()

    def assert_refused_and_connection_survives(self, server, plain17, image, code):
        driver = WireDriver(server.address)
        try:
            driver.handshake()
            msg_type, payload = driver.predict(seal(image.encode(), IMG_KEY, "image").encode())
            assert msg_type == protocol.MSG_ERROR
            assert protocol.decode_error(payload)[0] == code
            x = seed_image(plain17.input_shape, 519)
            msg_type, _ = driver.predict(seal(x.encode(), IMG_KEY, "image").encode())
            assert msg_type == protocol.MSG_RESULT
        finally:
            driver.close()

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_refused_as_malformed(self, server, plain17, fill):
        pixels = seed_image(plain17.input_shape, 518).array.copy()
        pixels[0, 0, 0] = fill
        image = Tensor.from_array(pixels)
        self.assert_refused_and_connection_survives(server, plain17, image, protocol.ERR_MALFORMED)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_scores_refused_as_internal(self, server, plain17, monkeypatch):
        # finite pixels whose activations overflow in the front model: the
        # enclave refuses them before any intermediate tensor is framed
        audit: list[bytes] = []
        dep = server.dep
        monkeypatch.setattr(dep, "new_session", lambda: enclave_create(
            dep.artifacts.frontnet_sealed, dep.artifacts.labels_sealed, audit=audit))
        w, h, c = plain17.input_shape
        image = Tensor.from_array(np.full((c, h, w), 3e38))
        self.assert_refused_and_connection_survives(server, plain17, image, protocol.ERR_INTERNAL)
        # attest, provision, the refusal, then the follow-up predict's
        # intermediate tensor and result
        assert [frame[0] for frame in audit] == [
            enclave.MSG_ATTEST_EVIDENCE, enclave.MSG_PROVISION_OK, enclave.MSG_ERROR,
            enclave.MSG_IR, enclave.MSG_RESULT,
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_back_model_scores_refused_as_internal(self, artifact_dir, plain17,
                                                              tmp_path):
        # the host deploys a back model whose scores overflow: each Predict
        # answers an error, never a result, and the connection stays open
        directory = tmp_path / "overflow"
        shutil.copytree(artifact_dir, directory)
        back = parse_network((directory / "backnet.cfg").read_text(),
                             (directory / "backnet.weights").read_bytes())
        scaled = tuple({name: w * np.float32(1e30) for name, w in lw.items()}
                       for lw in back.weights)
        rewrite_artifact(directory, "backnet.weights",
                         serialize_network(replace(back, weights=scaled))[1])
        srv = Server(("127.0.0.1", 0), deploy(directory, k=3, root_key=ROOT_KEY)).start()
        driver = WireDriver(srv.address)
        try:
            driver.handshake()
            image = seal(seed_image(plain17.input_shape, 550).encode(), IMG_KEY, "image").encode()
            for _ in range(2):
                msg_type, payload = driver.predict(image)
                assert msg_type == protocol.MSG_ERROR
                assert protocol.decode_error(payload) == (
                    protocol.ERR_INTERNAL, "back model produced non-finite scores")
        finally:
            driver.close()
            srv.stop()

    def test_finished_connection_threads_are_pruned(self, measurement, server, test_image):
        for _ in range(50):
            client_predict(server.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
        assert len(server._conns) <= 5

    def test_foreign_img_key_denied(self, server, plain17):
        driver = WireDriver(server.address)
        try:
            driver.handshake()
            x = seed_image(plain17.input_shape, 515)
            other_key = b"\x77" * 32
            msg_type, payload = driver.predict(seal(x.encode(), other_key, "image").encode())
            assert msg_type == protocol.MSG_ERROR
            assert protocol.decode_error(payload)[0] == protocol.ERR_AUTH_FAILURE
        finally:
            driver.close()

    def test_oversized_payload_closes_with_too_large(self, server):
        driver = WireDriver(server.address)
        try:
            driver.send(protocol.MSG_HELLO, protocol.PROTOCOL_VERSION.to_bytes(4, "little"))
            driver.recv()
            import struct as _struct

            driver.sock.sendall(_struct.pack("<BQ", protocol.MSG_PREDICT, protocol.MAX_PAYLOAD + 1))
            msg_type, payload = driver.recv()
            assert msg_type == protocol.MSG_ERROR
            assert protocol.decode_error(payload)[0] == protocol.ERR_TOO_LARGE
            with pytest.raises((ConnectionError, OSError)):
                driver.predict(b"anything")
        finally:
            driver.close()

    def test_wrong_measurement_aborts_before_keys(self, artifact_dir, test_image):
        dep = deploy(artifact_dir, k=3, root_key=ROOT_KEY)
        tap: list[bytes] = []
        srv = Server(("127.0.0.1", 0), dep, tap=tap).start()
        try:
            with pytest.raises(AttestationRejected):
                client_predict(
                    srv.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY,
                    expected_measurement=b"\x00" * 32,
                )
        finally:
            srv.stop()
        joined = b"".join(tap)
        for key in (MODEL_KEY, IMG_KEY):
            assert key not in joined
        # the wrap of (model_key || img_key) is 12 + 64 + 16 bytes; no
        # received payload of that size means no key message ever arrived
        assert all(len(chunk) != 92 for chunk in tap)

    @pytest.mark.parametrize("shape", [(0, 32, 3), (65535, 65535, 3)])
    def test_unsendable_hello_shape_refused_before_any_resize(self, measurement, shape, test_image,
                                                             monkeypatch):
        # a one-shot host that answers Hello with a shape no Predict can carry
        import irshield.client as client_mod

        def refuse(*args):
            raise AssertionError("the client resized its image to the host's shape")

        monkeypatch.setattr(client_mod, "resize_to_shape", refuse)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def answer_hello():
                conn, _ = listener.accept()
                with conn:
                    protocol.read_frame(conn)
                    protocol.send_frame(conn, protocol.MSG_HELLO,
                                        protocol.server_hello_payload(shape, 10, 3))
                    while conn.recv(4096):  # until the client hangs up
                        pass

            host = threading.Thread(target=answer_hello, daemon=True)
            host.start()
            try:
                with pytest.raises(ProtocolError, match="cannot be sent in one Predict"):
                    client_predict(listener.getsockname()[:2], test_image,
                                   MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
            finally:
                host.join(timeout=10)
            assert not host.is_alive()

    def test_reply_of_another_type_refused(self, measurement, test_image):
        # a one-shot host that answers Hello with a Result frame
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def answer_hello():
                conn, _ = listener.accept()
                with conn:
                    protocol.read_frame(conn)
                    protocol.send_frame(conn, protocol.MSG_RESULT, b"")
                    while conn.recv(4096):  # until the client hangs up
                        pass

            host = threading.Thread(target=answer_hello, daemon=True)
            host.start()
            try:
                with pytest.raises(ProtocolError) as info:
                    client_predict(listener.getsockname()[:2], test_image,
                                   MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
            finally:
                host.join(timeout=10)
            assert not host.is_alive()
        assert str(info.value) == "unexpected message type 6 in reply to type 1"

    def test_image_of_another_shape_is_resized_to_the_hello_shape(self, measurement, server,
                                                                    plain17, tmp_path):
        path = tmp_path / "small.pgm"
        write_netpbm(seed_image((20, 12, 1), 505), path)
        want = top_k(forward(plain17, resize_to_shape(load_image(path), plain17.input_shape)), 3)
        got = client_predict(server.address, path, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
        assert got == [(LABELS10[i - 1], score) for i, score in want]

    @pytest.mark.parametrize("length", [63, 65])
    def test_evidence_of_another_length_refused_before_keys(self, measurement, length, plain17,
                                                            test_image):
        # a one-shot host that answers Hello, then AttestRequest with evidence
        # one byte short or long, and records every frame after it
        after_evidence = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def answer():
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(10)
                    protocol.read_frame(conn)
                    protocol.send_frame(conn, protocol.MSG_HELLO, protocol.server_hello_payload(
                        plain17.input_shape, 10, 3))
                    protocol.read_frame(conn)
                    protocol.send_frame(conn, protocol.MSG_ATTEST_EVIDENCE, bytes(length))
                    try:
                        while True:
                            after_evidence.append(protocol.read_frame(conn)[0])
                    except OSError:  # the client hangs up
                        pass

            host = threading.Thread(target=answer, daemon=True)
            host.start()
            try:
                with pytest.raises(ProtocolError, match="attestation evidence must be 64 bytes"):
                    client_predict(listener.getsockname()[:2], test_image,
                                   MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
            finally:
                host.join(timeout=10)
            assert not host.is_alive()
        assert after_evidence == []  # no ProvisionKeys, nor any other frame

    def test_wrong_model_key_raises_auth_error(self, measurement, server, test_image):
        # the error frame's code picks the exception type, as on the enclave boundary
        with pytest.raises(AuthError, match="frontnet"):
            client_predict(server.address, test_image, b"\x5a" * 32, IMG_KEY, ROOT_KEY, measurement)

    def test_wrong_root_key_rejected_client_side(self, measurement, server, test_image):
        with pytest.raises(AttestationRejected):
            client_predict(server.address, test_image, MODEL_KEY, IMG_KEY, b"\x13" * 32,
                           measurement)

    def test_result_tamper_reported_distinctly(self, measurement, server, plain17, monkeypatch,
                                               tmp_path):
        import irshield.client as client_mod

        real_container = client_mod.SealedContainer

        class TamperOnDecode:
            # patched into the client module only; flips one result byte
            @staticmethod
            def decode(blob):
                flipped = bytearray(blob)
                flipped[-1] ^= 0x01
                return real_container.decode(bytes(flipped))

        monkeypatch.setattr(client_mod, "SealedContainer", TamperOnDecode)
        x_path = tmp_path / "result_tamper.ppm"
        write_netpbm(seed_image(plain17.input_shape, 516), x_path)
        with pytest.raises(ResultAuthError):
            client_predict(server.address, x_path, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)

    def test_image_echoed_as_result_reported_distinctly(self, measurement, artifact_dir,
                                                        test_image):
        # a host that answers Predict with the client's own sealed image
        class EchoServer(Server):
            def _answer(self, session, msg_type, payload):
                if msg_type == protocol.MSG_PREDICT:
                    return payload
                return super()._answer(session, msg_type, payload)

        srv = EchoServer(("127.0.0.1", 0), deploy(artifact_dir, k=3, root_key=ROOT_KEY)).start()
        try:
            with pytest.raises(ResultAuthError):
                client_predict(srv.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
        finally:
            srv.stop()

    def test_concurrent_clients_with_distinct_keys(self, measurement, server, plain17, tmp_path):
        n_clients = 8
        paths = []
        for i in range(n_clients):
            path = tmp_path / f"img-{i}.ppm"
            write_netpbm(seed_image(plain17.input_shape, 520 + i), path)
            paths.append(path)
        keys = [hashlib.sha256(f"img-key-{i}".encode()).digest() for i in range(n_clients)]
        results = [None] * n_clients
        errors = []

        def run(i):
            try:
                results[i] = client_predict(
                    server.address, paths[i], MODEL_KEY, keys[i], ROOT_KEY, measurement
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((i, exc))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(n_clients):
            assert results[i] == expected_topk(plain17, paths[i], 3)

    def test_session_isolation_between_img_keys(self, server, plain17):
        key_a, key_b = b"\xa1" * 32, b"\xb2" * 32
        containers = {}
        for name, key in (("a", key_a), ("b", key_b)):
            driver = WireDriver(server.address)
            try:
                driver.handshake(img_key=key)
                x = seed_image(plain17.input_shape, 530)
                msg_type, payload = driver.predict(seal(x.encode(), key, "image").encode())
                assert msg_type == protocol.MSG_RESULT
                containers[name] = SealedContainer.decode(payload)
            finally:
                driver.close()
        open_container(containers["a"], key_a)
        open_container(containers["b"], key_b)
        with pytest.raises(AuthError):
            open_container(containers["a"], key_b)
        with pytest.raises(AuthError):
            open_container(containers["b"], key_a)

    def test_host_blindness_tap_audit(self, measurement, server, plain17, test_image):
        client_predict(
            server.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement,
        )
        host_visible = b"".join(server.tap)
        image = load_image(test_image)
        assert image.encode()[12:28] not in host_visible  # raw pixel run
        for label in LABELS10:
            assert label.encode() not in host_visible
        probs = forward(plain17, image)
        for label, score in [(LABELS10[i - 1], s) for i, s in top_k(probs, 3)]:
            assert label.encode() not in host_visible
        for key in (MODEL_KEY, IMG_KEY):
            assert key not in host_visible

    def test_interrupted_session_raises_cleanly(self, measurement, artifact_dir, plain17,
                                                test_image):
        dep = deploy(artifact_dir, k=3, root_key=ROOT_KEY)
        srv = Server(("127.0.0.1", 0), dep).start()
        driver = WireDriver(srv.address)
        try:
            driver.handshake()
            srv.stop()
            x = seed_image(plain17.input_shape, 540)
            with pytest.raises((ConnectionError, OSError)):
                for _ in range(50):  # buffered writes may take a few sends to fail
                    driver.predict(seal(x.encode(), IMG_KEY, "image").encode())
        finally:
            driver.close()
        # a fresh server and client still work: client state is reusable
        srv2 = Server(("127.0.0.1", 0), dep).start()
        try:
            got = client_predict(srv2.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY,
                                 measurement)
            assert got == expected_topk(plain17, test_image, 3)
        finally:
            srv2.stop()

    def test_fuzzed_frames_never_crash(self, measurement, server, plain17, test_image):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            blob = rng.bytes(int(rng.integers(0, 64)))
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.settimeout(5)
                try:
                    sock.sendall(blob)
                    # half-close: the server sees EOF instead of a stalled frame
                    sock.shutdown(socket.SHUT_WR)
                    while sock.recv(4096):
                        pass
                except OSError:
                    pass  # a reset from the server is a legal fuzz outcome
        got = client_predict(server.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
        assert got == expected_topk(plain17, test_image, 3)


class TestConnectionLog:
    """A peer that hangs up between frames is logged as closed; one that goes
    away within a frame, as dropped."""

    @staticmethod
    def connection_lines(artifact_dir, caplog, client) -> list[str]:
        caplog.set_level(logging.INFO, logger="irshield.server")
        srv = Server(("127.0.0.1", 0), deploy(artifact_dir, k=3, root_key=ROOT_KEY)).start()
        try:
            client(srv.address)
            # the connection's thread logs once it reads the hang-up
            deadline = time.monotonic() + 5
            while True:
                lines = [r.getMessage() for r in caplog.records
                         if r.name == "irshield.server" and r.getMessage().startswith("connection")]
                if lines or time.monotonic() > deadline:
                    return lines
                time.sleep(0.01)
        finally:
            srv.stop()

    def test_predict_then_hang_up_logs_closed(self, measurement, artifact_dir, test_image, caplog):
        lines = self.connection_lines(artifact_dir, caplog, lambda address: client_predict(
            address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement))
        assert len(lines) == 1 and lines[0].endswith(" closed"), lines
        assert not [line for line in caplog.messages if "dropped" in line]

    def test_refused_hello_logs_ended_by_the_server(self, artifact_dir, caplog):
        def hello_of_version_2(address):
            with socket.create_connection(address, timeout=10) as sock:
                protocol.send_frame(sock, protocol.MSG_HELLO, (2).to_bytes(4, "little"))
                assert protocol.read_frame(sock)[0] == protocol.MSG_ERROR
                with pytest.raises(protocol.ConnectionClosed):
                    protocol.read_frame(sock)

        lines = self.connection_lines(artifact_dir, caplog, hello_of_version_2)
        assert len(lines) == 1, lines
        assert lines[0].endswith(f" ended by the server: error code {protocol.ERR_MALFORMED}")

    def test_half_a_frame_then_hang_up_logs_dropped(self, artifact_dir, caplog):
        def half_frame(address):
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(protocol.encode_frame(protocol.MSG_HELLO, protocol.CLIENT_HELLO)[:5])

        lines = self.connection_lines(artifact_dir, caplog, half_frame)
        assert len(lines) == 1, lines
        assert lines[0].endswith(" dropped: connection closed mid-frame")


class TestLifecycle:
    """stop() shuts the listening socket down, which wakes the blocked accept()
    on Linux; every open connection is then shut down and its thread joined."""

    def test_stop_wakes_accept_at_once_and_may_repeat(self, artifact_dir):
        srv = Server(("127.0.0.1", 0), deploy(artifact_dir, k=3, root_key=ROOT_KEY)).start()
        time.sleep(0.05)  # the accept loop is blocked in accept()
        start = time.monotonic()
        srv.stop()
        assert time.monotonic() - start < 1
        assert not srv._accept_thread.is_alive()
        srv.stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(srv.address, timeout=1).close()

    def test_run_forever_serves_on_the_calling_thread_until_stopped(self, measurement,
                                                                    artifact_dir, plain17,
                                                                    test_image):
        srv = Server(("127.0.0.1", 0), deploy(artifact_dir, k=3, root_key=ROOT_KEY))
        runner = threading.Thread(target=srv.run_forever)
        runner.start()
        try:
            got = client_predict(srv.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
            assert got == expected_topk(plain17, test_image, 3)
        finally:
            srv.stop()
            runner.join(timeout=5)
        assert not runner.is_alive()

    def test_stop_with_a_connection_its_peer_reset(self, artifact_dir, caplog):
        # the connection's thread is held in the tap while its peer resets the
        # connection, so stop() shuts down a socket that is no longer connected
        caplog.set_level(logging.INFO, logger="irshield.server")
        held, release = threading.Event(), threading.Event()

        class HoldingTap(list):
            def append(self, item):
                held.set()
                release.wait(10)
                super().append(item)

        srv = Server(("127.0.0.1", 0), deploy(artifact_dir, k=3, root_key=ROOT_KEY),
                     tap=HoldingTap()).start()
        timer = threading.Timer(0.5, release.set)
        try:
            with socket.create_connection(srv.address, timeout=10) as sock:
                sock.sendall(protocol.encode_frame(protocol.MSG_HELLO, protocol.CLIENT_HELLO))
                assert held.wait(10)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            time.sleep(0.1)  # the reset reaches the server's socket
            timer.start()
            srv.stop()
        finally:
            release.set()
            timer.cancel()
            srv.stop()
        assert [line for line in caplog.messages if " dropped: " in line]

    def test_unexpected_exception_is_logged_as_failed_and_the_daemon_serves_on(
            self, measurement, artifact_dir, plain17, test_image, caplog, monkeypatch):
        import irshield.server as server_mod

        caplog.set_level(logging.INFO, logger="irshield.server")
        failures = [RuntimeError("back model bug")]

        def forward_failing_once(net, x):
            if failures:
                raise failures.pop()
            return forward(net, x)

        monkeypatch.setattr(server_mod, "forward", forward_failing_once)
        srv = Server(("127.0.0.1", 0), deploy(artifact_dir, k=3, root_key=ROOT_KEY)).start()
        try:
            # the connection closes without a reply to the Predict
            with pytest.raises(ConnectionError):
                client_predict(srv.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
            got = client_predict(srv.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
            assert got == expected_topk(plain17, test_image, 3)
        finally:
            srv.stop()
        failed = [r for r in caplog.records if r.getMessage().endswith(" failed")]
        assert len(failed) == 1
        assert failed[0].getMessage().startswith("connection ")
        assert str(failed[0].exc_info[1]) == "back model bug"

    class ListenerFailingOnce:
        """A listening socket whose first accept() raises ``error``."""

        def __init__(self, sock, error):
            self._sock, self._errors = sock, [error]

        def accept(self):
            if self._errors:
                raise self._errors.pop()
            return self._sock.accept()

        def __getattr__(self, name):
            return getattr(self._sock, name)

    def test_accept_out_of_descriptors_is_logged_and_retried(self, measurement, artifact_dir,
                                                             plain17, test_image, caplog):
        caplog.set_level(logging.INFO, logger="irshield.server")
        srv = Server(("127.0.0.1", 0), deploy(artifact_dir, k=3, root_key=ROOT_KEY))
        srv._sock = self.ListenerFailingOnce(srv._sock, OSError(errno.EMFILE, "Too many open files"))
        srv.start()
        try:
            got = client_predict(srv.address, test_image, MODEL_KEY, IMG_KEY, ROOT_KEY, measurement)
            assert got == expected_topk(plain17, test_image, 3)
        finally:
            srv.stop()
        assert not srv._accept_thread.is_alive()
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["accept: [Errno 24] Too many open files; retrying in 0.1 s"]

    def test_accept_error_that_is_not_transient_ends_the_loop(self, artifact_dir, caplog):
        caplog.set_level(logging.INFO, logger="irshield.server")
        srv = Server(("127.0.0.1", 0), deploy(artifact_dir, k=3, root_key=ROOT_KEY))
        srv._sock = self.ListenerFailingOnce(srv._sock, OSError(errno.ENOTSOCK, "not a socket"))
        srv.start()
        srv._accept_thread.join(timeout=5)
        try:
            assert not srv._accept_thread.is_alive()
        finally:
            srv.stop()
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


HELLO = protocol.PROTOCOL_VERSION.to_bytes(4, "little")


def attest_and_provision(driver):
    nonce = os.urandom(32)
    driver.send(protocol.MSG_ATTEST_REQUEST, nonce)
    msg_type, evidence = driver.recv()
    assert msg_type == protocol.MSG_ATTEST_EVIDENCE
    key_msg = build_key_message(ROOT_KEY, evidence[:32], nonce, evidence[32:], MODEL_KEY, IMG_KEY)
    driver.send(protocol.MSG_PROVISION_KEYS, key_msg)
    assert driver.recv() == (protocol.MSG_PROVISION_KEYS, b"")


class TestSessionOrder:
    """The enclave session alone orders attest, provision and predict; the
    daemon answers each frame as it comes. Only a failed Predict keeps the
    connection open."""

    @staticmethod
    def assert_error(driver, code):
        msg_type, payload = driver.recv()
        assert msg_type == protocol.MSG_ERROR
        assert protocol.decode_error(payload)[0] == code

    @staticmethod
    def assert_closed(driver):
        assert driver.sock.recv(1) == b""

    @staticmethod
    def assert_predicts(driver, plain17):
        x = seed_image(plain17.input_shape, 550)
        msg_type, _ = driver.predict(seal(x.encode(), IMG_KEY, "image").encode())
        assert msg_type == protocol.MSG_RESULT

    def test_predict_then_handshake_then_predict(self, server, plain17):
        driver = WireDriver(server.address)
        try:
            x = seed_image(plain17.input_shape, 551)
            driver.send(protocol.MSG_PREDICT, seal(x.encode(), IMG_KEY, "image").encode())
            self.assert_error(driver, protocol.ERR_NOT_READY)
            driver.handshake()
            self.assert_predicts(driver, plain17)
        finally:
            driver.close()

    def test_hello_after_provisioning_is_answered(self, server, plain17):
        driver = WireDriver(server.address)
        try:
            info = driver.handshake()
            driver.send(protocol.MSG_HELLO, HELLO)
            msg_type, payload = driver.recv()
            assert msg_type == protocol.MSG_HELLO
            assert protocol.parse_server_hello(payload) == info
            self.assert_predicts(driver, plain17)
        finally:
            driver.close()

    def test_attest_request_without_hello_is_served(self, server, plain17):
        driver = WireDriver(server.address)
        try:
            attest_and_provision(driver)
            self.assert_predicts(driver, plain17)
        finally:
            driver.close()

    @pytest.mark.parametrize("prologue, frame, code", [
        pytest.param([(protocol.MSG_ATTEST_REQUEST, bytes(32))],
                     (protocol.MSG_ATTEST_REQUEST, bytes(32)), protocol.ERR_NOT_READY,
                     id="attest-twice"),
        pytest.param([], (protocol.MSG_PROVISION_KEYS, bytes(92)), protocol.ERR_NOT_READY,
                     id="provision-before-attest"),
        pytest.param([(protocol.MSG_HELLO, HELLO)], (protocol.MSG_RESULT, bytes(40)),
                     protocol.ERR_MALFORMED, id="client-sent-result"),
        pytest.param([(protocol.MSG_HELLO, HELLO)], (protocol.MSG_ATTEST_REQUEST, bytes(31)),
                     protocol.ERR_MALFORMED, id="31-byte-nonce"),
    ])
    def test_refused_and_closed(self, server, prologue, frame, code):
        driver = WireDriver(server.address)
        try:
            for msg_type, payload in prologue:
                driver.send(msg_type, payload)
                assert driver.recv()[0] != protocol.MSG_ERROR
            driver.send(*frame)
            self.assert_error(driver, code)
            self.assert_closed(driver)
        finally:
            driver.close()

    @pytest.mark.parametrize("hello", [b"", (2).to_bytes(4, "little"), b"garbage-version"])
    def test_hello_with_another_version_refused_and_closed(self, server, hello):
        driver = WireDriver(server.address)
        try:
            driver.send(protocol.MSG_HELLO, hello)
            self.assert_error(driver, protocol.ERR_MALFORMED)
            self.assert_closed(driver)
        finally:
            driver.close()

    def test_stop_closes_a_connection_whose_session_is_being_made(self, artifact_dir,
                                                                   monkeypatch):
        dep = deploy(artifact_dir, k=3, root_key=ROOT_KEY)
        making, release = threading.Event(), threading.Event()
        real_new_session = dep.new_session

        def slow_new_session():
            making.set()
            release.wait(10)
            return real_new_session()

        monkeypatch.setattr(dep, "new_session", slow_new_session)
        srv = Server(("127.0.0.1", 0), dep).start()
        timer = threading.Timer(0.3, release.set)
        try:
            with socket.create_connection(srv.address, timeout=3) as sock:
                assert making.wait(10)
                timer.start()
                start = time.monotonic()
                srv.stop()
                assert time.monotonic() - start < 2
                assert sock.recv(1) == b""
        finally:
            release.set()
            timer.cancel()
            srv.stop()


class TestLabels:
    def predict_all_classes(self, directory, plain17, seed):
        dep = deploy(directory, k=10, root_key=ROOT_KEY)
        x = seed_image(plain17.input_shape, seed)
        result = handle_predict(dep, provisioned_session(dep), seal(x.encode(), IMG_KEY, "image"))
        entries = decode_result_payload(open_container(SealedContainer.decode(result), IMG_KEY))
        return [(label, score) for _, label, score in entries], top_k(forward(plain17, x), 10)

    def test_labels_holding_other_line_breaks_round_trip(self, tmp_path, plain17):
        labels = list(LABELS10)
        labels[0] = "first\rhalf"
        labels[3] = "vertical\x0btab"
        labels[5] = "next\x85line"
        labels[8] = "para\u2029graph"
        write_artifacts(tmp_path / "m", plain17, 4, labels, MODEL_KEY)
        got, pairs = self.predict_all_classes(tmp_path / "m", plain17, 560)
        assert got == [(labels[i - 1], s) for i, s in pairs]

    def test_label_not_encodable_as_utf8_refused(self, tmp_path, plain17):
        labels = list(LABELS10)
        labels[4] = "bad\udc80"  # a lone surrogate
        with pytest.raises(PartitionError, match="not valid UTF-8"):
            write_artifacts(tmp_path / "m", plain17, 4, labels, MODEL_KEY)

    def test_label_beyond_a_result_entry_refused(self, tmp_path, plain17):
        labels = list(LABELS10)
        labels[2] = "\u00e9" * 32768  # 65,536 UTF-8 bytes
        with pytest.raises(PartitionError, match="65535"):
            write_artifacts(tmp_path / "long", plain17, 4, labels, MODEL_KEY)
        labels[2] = "x" * 65535
        write_artifacts(tmp_path / "m", plain17, 4, labels, MODEL_KEY)
        got, pairs = self.predict_all_classes(tmp_path / "m", plain17, 561)
        assert got == [(labels[i - 1], s) for i, s in pairs]


class TestGoldenTranscript:
    def test_byte_exact_transcript(self, plain17, tmp_path, monkeypatch):
        golden = json.loads((GOLDEN_DIR / "transcript.json").read_text())

        # the one random draw on the serving side is the enclave's 12-byte
        # result-seal nonce; the golden was recorded with this value
        draws = []

        def scripted_urandom(n):
            draws.append(n)
            return hashlib.sha256(b"transcript-entropy-2").digest()[:n]

        import irshield.sealing as sealing_mod

        monkeypatch.setattr(sealing_mod.os, "urandom", scripted_urandom)

        directory = tmp_path / "golden-artifacts"
        write_artifacts(directory, plain17, 4, LABELS10, MODEL_KEY,
                        nonces=(bytes(12), bytes(range(12))))
        dep = deploy(directory, k=3, root_key=ROOT_KEY)
        srv = Server(("127.0.0.1", 0), dep).start()
        record = []
        try:
            driver = WireDriver(srv.address, record=record)
            driver.handshake(attest_nonce=b"\x5a" * 32, key_msg_nonce=b"\x3c" * 12)
            x = seed_image(plain17.input_shape, 600)
            sealed = seal(x.encode(), IMG_KEY, "image", nonce=b"\x77" * 12)
            msg_type, _ = driver.predict(sealed.encode())
            assert msg_type == protocol.MSG_RESULT
            driver.close()
        finally:
            srv.stop()

        transcript = b"".join(
            direction.encode() + b":" + frame for direction, frame in record
        )
        assert transcript.hex() == golden["transcript_hex"]
        assert hashlib.sha256(transcript).hexdigest() == golden["sha256"]
        assert draws == [12]
