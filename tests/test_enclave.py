import os
import struct

import numpy as np
import pytest

from irshield import enclave as enclave_module
from irshield import protocol
from irshield.enclave import (
    MSG_ERROR,
    MSG_IR,
    MSG_MAP,
    MSG_PROVISION,
    MSG_RESULT,
    AttestationEvidence,
    attest,
    build_key_message,
    enclave_create,
    infer_encrypted_image,
    map_classes,
    measurement_from_manifest,
    provision_keys,
    verify_evidence,
)
from irshield.engine import forward, forward_range, top_k
from irshield.errors import AuthError, IrshieldError, ProtocolError, StateError
from irshield.netdef import serialize_network
from irshield.partition import pack_model, parse_manifest, split_network
from irshield.protocol import decode_result_payload
from irshield.sealing import SealedContainer, open_container, seal
from irshield.tensor import Tensor

from conftest import seed_image

MODEL_KEY = bytes(range(32))
IMG_KEY = bytes(range(32, 64))
ROOT_KEY = bytes(range(64, 96))
WRONG_KEY = b"\xee" * 32

# long enough that the 16-byte substring audit can see them
LABELS10 = [f"label-{i:02d}-subject-code-{i * 7:04d}" for i in range(10)]


def build_setup(net, cut, labels=LABELS10, model_key=MODEL_KEY):
    front, back = split_network(net, cut)
    front_blob = pack_model(*serialize_network(front))
    labels_blob = "\n".join(labels).encode()
    fn_sealed = seal(front_blob, model_key, "frontnet")
    lbl_sealed = seal(labels_blob, model_key, "labels")
    return {
        "front": front,
        "back": back,
        "front_blob": front_blob,
        "labels_blob": labels_blob,
        "fn_sealed": fn_sealed,
        "lbl_sealed": lbl_sealed,
    }


def ready_session(setup, img_key=IMG_KEY, model_key=MODEL_KEY, root_key=ROOT_KEY, audit=None):
    session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"], audit=audit)
    nonce = os.urandom(32)
    evidence = attest(session, nonce, root_key)
    assert verify_evidence(root_key, evidence.measurement, nonce, evidence.mac)
    key_msg = build_key_message(
        root_key, evidence.measurement, nonce, evidence.mac, model_key, img_key
    )
    provision_keys(session, key_msg)
    assert session.state == "ready"
    return session


def sealed_image(x: Tensor, img_key=IMG_KEY) -> SealedContainer:
    return seal(x.encode(), img_key, "image")


def attested_session(setup, model_key=MODEL_KEY):
    """An attested session, its key message and every secret of its handshake."""
    session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
    nonce = os.urandom(32)
    evidence = attest(session, nonce, ROOT_KEY)
    key_msg = build_key_message(
        ROOT_KEY, evidence.measurement, nonce, evidence.mac, model_key, IMG_KEY
    )
    wrap = enclave_module._wrap_key(ROOT_KEY, evidence.measurement, nonce, evidence.mac)
    secrets = {"root key": ROOT_KEY, "nonce": nonce, "mac": evidence.mac,
               "model key": model_key, "image key": IMG_KEY, "wrap key": wrap}
    return session, key_msg, secrets


def held_secrets(session, secrets: dict[str, bytes]) -> list[str]:
    """The names of the secrets that some byte attribute of the session holds."""
    held = [v for v in vars(session).values() if isinstance(v, (bytes, bytearray))]
    return [name for name, secret in secrets.items() if any(secret in v for v in held)]


class TestCreate:
    def test_measurement_deterministic(self, plain17):
        setup = build_setup(plain17, 4)
        a = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        b = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        assert a.measurement == b.measurement
        assert a.state == "created"

    def test_measurement_tracks_artifacts(self, plain17):
        s1 = build_setup(plain17, 4)
        s2 = build_setup(plain17, 8)
        a = enclave_create(s1["fn_sealed"], s1["lbl_sealed"])
        b = enclave_create(s2["fn_sealed"], s2["lbl_sealed"])
        assert a.measurement != b.measurement


class TestAttest:
    def test_deterministic_evidence(self, plain17):
        setup = build_setup(plain17, 4)
        nonce = b"\x07" * 32
        e1 = attest(enclave_create(setup["fn_sealed"], setup["lbl_sealed"]), nonce, ROOT_KEY)
        e2 = attest(enclave_create(setup["fn_sealed"], setup["lbl_sealed"]), nonce, ROOT_KEY)
        assert e1 == e2
        assert isinstance(e1, AttestationEvidence)

    def test_wrong_root_key_rejected_client_side(self, plain17):
        setup = build_setup(plain17, 4)
        session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        nonce = os.urandom(32)
        evidence = attest(session, nonce, ROOT_KEY)
        assert not verify_evidence(WRONG_KEY, evidence.measurement, nonce, evidence.mac)

    def test_replayed_evidence_fails_fresh_nonce(self, plain17):
        setup = build_setup(plain17, 4)
        session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        old_nonce = os.urandom(32)
        recorded = attest(session, old_nonce, ROOT_KEY)  # transcript an attacker replays
        fresh_nonce = os.urandom(32)
        assert not verify_evidence(ROOT_KEY, recorded.measurement, fresh_nonce, recorded.mac)

    def test_attest_twice_rejected(self, plain17):
        setup = build_setup(plain17, 4)
        session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        attest(session, os.urandom(32), ROOT_KEY)
        with pytest.raises(StateError):
            attest(session, os.urandom(32), ROOT_KEY)
        assert session.state == "attested"

    @pytest.mark.parametrize("length", [0, 31, 33])
    def test_nonce_of_another_length_refused_by_the_enclave(self, plain17, length):
        setup = build_setup(plain17, 4)
        session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        with pytest.raises(ProtocolError, match="32-byte"):
            attest(session, bytes(length), ROOT_KEY)
        assert session.state == "created"

    @pytest.mark.parametrize("root_key", [ROOT_KEY[:31], ROOT_KEY.hex(), None])
    def test_root_key_of_another_length_refused_before_the_enclave(self, plain17, root_key):
        setup = build_setup(plain17, 4)
        session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"], audit=[])
        with pytest.raises(ValueError, match="^root key must be 32 bytes$"):
            attest(session, bytes(32), root_key)
        assert session.state == "created" and session.boundary_output() == b""


class TestProvision:
    def test_happy_path(self, plain17):
        ready_session(build_setup(plain17, 4))

    @pytest.mark.parametrize("slot, name", [(0, "root key"), (4, "model key"), (5, "image key")])
    def test_key_message_names_the_key_of_another_length(self, slot, name):
        args = [ROOT_KEY, bytes(32), bytes(32), bytes(32), MODEL_KEY, IMG_KEY]
        args[slot] = args[slot][:-1]
        with pytest.raises(ValueError, match=f"^{name} must be 32 bytes$"):
            build_key_message(*args)

    def test_wrong_model_key_fails_session(self, plain17):
        setup = build_setup(plain17, 4)
        session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        nonce = os.urandom(32)
        evidence = attest(session, nonce, ROOT_KEY)
        key_msg = build_key_message(
            ROOT_KEY, evidence.measurement, nonce, evidence.mac, WRONG_KEY, IMG_KEY
        )
        with pytest.raises(AuthError, match="frontnet"):
            provision_keys(session, key_msg)
        assert session.state == "failed"
        with pytest.raises(StateError):
            provision_keys(session, key_msg)

    def test_any_provisioning_failure_fails_closed(self, plain17, monkeypatch):
        # a failure outside IrshieldError, raised while the model is loaded
        def broken_parse(*_):
            raise RuntimeError("parser fault")

        monkeypatch.setattr(enclave_module, "parse_network", broken_parse)
        setup = build_setup(plain17, 4)
        session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        nonce = os.urandom(32)
        evidence = attest(session, nonce, ROOT_KEY)
        key_msg = build_key_message(
            ROOT_KEY, evidence.measurement, nonce, evidence.mac, MODEL_KEY, IMG_KEY
        )
        with pytest.raises(IrshieldError, match="RuntimeError"):
            provision_keys(session, key_msg)
        assert session.state == "failed"
        wrap = enclave_module._wrap_key(ROOT_KEY, evidence.measurement, nonce, evidence.mac)
        secrets = {"root key": ROOT_KEY, "model key": MODEL_KEY, "image key": IMG_KEY,
                   "wrap key": wrap}
        assert held_secrets(session, secrets) == []
        with pytest.raises(StateError):
            provision_keys(session, key_msg)

    @pytest.mark.parametrize("key_msg_fault", ["tampered", "wrong model key"])
    def test_failed_provisioning_holds_no_secret(self, plain17, key_msg_fault):
        setup = build_setup(plain17, 4)
        model_key = WRONG_KEY if key_msg_fault == "wrong model key" else MODEL_KEY
        session, key_msg, secrets = attested_session(setup, model_key)
        if key_msg_fault == "tampered":
            key_msg = key_msg[:-1] + bytes([key_msg[-1] ^ 1])
        with pytest.raises(AuthError):
            provision_keys(session, key_msg)
        assert session.state == "failed"
        assert held_secrets(session, secrets) == []

    def test_ready_session_holds_only_the_image_key(self, plain17):
        session, key_msg, secrets = attested_session(build_setup(plain17, 4))
        assert held_secrets(session, secrets) == ["wrap key"]
        provision_keys(session, key_msg)
        assert session.state == "ready"
        assert held_secrets(session, secrets) == ["image key"]

    @pytest.mark.parametrize("fault", ["config not UTF-8", "unknown config key",
                                       "weights length wrong", "bundle truncated"])
    def test_sealed_front_model_that_is_no_model_is_an_auth_failure(self, plain17, fault):
        # each bundle authenticates under the model key, but does not load
        setup = build_setup(plain17, 4)
        cfg, weights = serialize_network(setup["front"])
        bundle = {
            "config not UTF-8": struct.pack("<Q", 2) + b"\xff\xfe" + weights,
            "unknown config key": pack_model(cfg.replace("[net]\n", "[net]\nbogus=1\n", 1),
                                             weights),
            "weights length wrong": pack_model(cfg, weights[:-4]),
            "bundle truncated": pack_model(cfg, weights)[: 8 + len(cfg) // 2],
        }[fault]
        setup["fn_sealed"] = seal(bundle, MODEL_KEY, "frontnet")
        session, key_msg, _ = attested_session(setup)
        msg_type, reply = session.call(MSG_PROVISION, key_msg)
        assert msg_type == MSG_ERROR
        assert protocol.decode_error(reply)[0] == protocol.ERR_AUTH_FAILURE
        assert session.state == "failed"

    def test_non_utf8_front_config_is_an_auth_failure(self, plain17):
        # the same fault in the labels artifact answers ERR_AUTH_FAILURE too
        setup = build_setup(plain17, 4)
        weights = serialize_network(setup["front"])[1]
        fn_sealed = seal(struct.pack("<Q", 2) + b"\xff\xfe" + weights, MODEL_KEY, "frontnet")
        session = enclave_create(fn_sealed, setup["lbl_sealed"])
        nonce = os.urandom(32)
        evidence = attest(session, nonce, ROOT_KEY)
        key_msg = build_key_message(
            ROOT_KEY, evidence.measurement, nonce, evidence.mac, MODEL_KEY, IMG_KEY
        )
        msg_type, reply = session.call(MSG_PROVISION, key_msg)
        assert msg_type == MSG_ERROR
        assert protocol.decode_error(reply) == (
            protocol.ERR_AUTH_FAILURE, "front model config is not UTF-8 text"
        )
        assert session.state == "failed"

    def test_non_utf8_labels_are_an_auth_failure(self, plain17):
        setup = build_setup(plain17, 4)
        setup["lbl_sealed"] = seal(b"label-0\n\xff\xfe", MODEL_KEY, "labels")
        session, key_msg, secrets = attested_session(setup)
        msg_type, reply = session.call(MSG_PROVISION, key_msg)
        assert msg_type == MSG_ERROR
        assert protocol.decode_error(reply) == (
            protocol.ERR_AUTH_FAILURE, "labels artifact is not UTF-8 text"
        )
        assert session.state == "failed"
        assert held_secrets(session, secrets) == []

    def test_swapped_labels_container_fails(self, plain17):
        setup = build_setup(plain17, 4)
        other = build_setup(plain17, 4, model_key=WRONG_KEY)
        session = enclave_create(setup["fn_sealed"], other["lbl_sealed"])
        nonce = os.urandom(32)
        evidence = attest(session, nonce, ROOT_KEY)
        key_msg = build_key_message(
            ROOT_KEY, evidence.measurement, nonce, evidence.mac, MODEL_KEY, IMG_KEY
        )
        with pytest.raises(AuthError, match="labels"):
            provision_keys(session, key_msg)
        assert session.state == "failed"

    def test_frontnet_posing_as_labels_fails_type_binding(self, plain17):
        setup = build_setup(plain17, 4)
        session = enclave_create(setup["fn_sealed"], setup["fn_sealed"])
        nonce = os.urandom(32)
        evidence = attest(session, nonce, ROOT_KEY)
        key_msg = build_key_message(
            ROOT_KEY, evidence.measurement, nonce, evidence.mac, MODEL_KEY, IMG_KEY
        )
        with pytest.raises(AuthError, match="labels"):
            provision_keys(session, key_msg)

    def test_swapped_artifacts_fail_provisioning(self, plain17):
        # both open under the model key; each is refused for the role it fills
        setup = build_setup(plain17, 4)
        session, key_msg, _ = attested_session(
            dict(setup, fn_sealed=setup["lbl_sealed"], lbl_sealed=setup["fn_sealed"])
        )
        with pytest.raises(AuthError, match="container holds labels, expected frontnet"):
            provision_keys(session, key_msg)
        assert session.state == "failed"

    def test_key_message_bound_to_session(self, plain17):
        setup = build_setup(plain17, 4)
        session_a = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        session_b = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        nonce_a, nonce_b = os.urandom(32), os.urandom(32)
        evidence_a = attest(session_a, nonce_a, ROOT_KEY)
        attest(session_b, nonce_b, ROOT_KEY)
        # message built for session A's transcript cannot provision session B
        key_msg = build_key_message(
            ROOT_KEY, evidence_a.measurement, nonce_a, evidence_a.mac, MODEL_KEY, IMG_KEY
        )
        with pytest.raises(AuthError, match="not bound"):
            provision_keys(session_b, key_msg)
        assert session_b.state == "failed"


class TestInfer:
    def test_ir_matches_direct_front_pass(self, plain17):
        setup = build_setup(plain17, 4)
        session = ready_session(setup)
        x = seed_image(plain17.input_shape, 90)
        ir = infer_encrypted_image(session, sealed_image(x))
        want = forward_range(setup["front"], 1, 4, x)
        np.testing.assert_array_equal(ir.array, want.array)

    def test_tampered_image_denied_with_no_ir_bytes(self, plain17):
        setup = build_setup(plain17, 4)
        session = ready_session(setup, audit=[])
        x = seed_image(plain17.input_shape, 91)
        box = sealed_image(x)
        tampered = SealedContainer(
            box.content_type, box.nonce, bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:], box.tag
        )
        log_before = len(session.boundary_output())
        with pytest.raises(AuthError):
            infer_encrypted_image(session, tampered)
        emitted = session.boundary_output()[log_before:]
        assert len(emitted) < 120  # one error reply, nothing tensor-sized
        assert x.encode()[:16] not in emitted

    def test_foreign_image_key_denied(self, plain17):
        setup = build_setup(plain17, 4)
        session = ready_session(setup)
        x = seed_image(plain17.input_shape, 92)
        with pytest.raises(AuthError):
            infer_encrypted_image(session, sealed_image(x, img_key=WRONG_KEY))

    def test_wrong_shape_denied(self, plain17):
        setup = build_setup(plain17, 4)
        session = ready_session(setup)
        small = Tensor.from_array(np.zeros((3, 4, 4)))
        with pytest.raises(ProtocolError, match="does not match layer 1's expected input"):
            infer_encrypted_image(session, sealed_image(small))

    def test_raw_plaintext_image_rejected_at_boundary(self, plain17):
        # Principle check: the inference entry point only accepts sealed
        # containers; a bare tensor blob fails container framing.
        setup = build_setup(plain17, 4)
        session = ready_session(setup)
        x = seed_image(plain17.input_shape, 93)
        with pytest.raises(ProtocolError):
            infer_encrypted_image(session, x.encode())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_activations_never_leave(self, plain17):
        # finite pixels that overflow in the front model
        setup = build_setup(plain17, 4)
        audit: list[bytes] = []
        session = ready_session(setup, audit=audit)
        w, h, c = plain17.input_shape
        huge = Tensor.from_array(np.full((c, h, w), 3e38))
        assert not forward_range(setup["front"], 1, 4, huge).is_finite()
        before = len(audit)
        with pytest.raises(IrshieldError, match="non-finite activations"):
            infer_encrypted_image(session, sealed_image(huge))
        assert [reply[0] for reply in audit[before:]] == [MSG_ERROR]
        assert session.state == "ready"

    def test_infer_before_ready_rejected(self, plain17):
        setup = build_setup(plain17, 4)
        session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
        x = seed_image(plain17.input_shape, 94)
        with pytest.raises(StateError):
            infer_encrypted_image(session, sealed_image(x))
        assert session.state == "created"


class TestMapClasses:
    def test_top1_maps_to_label(self, plain17):
        setup = build_setup(plain17, 4)
        session = ready_session(setup)
        result = SealedContainer.decode(map_classes(session, [(2, 0.7)]))
        assert result.content_name == "result"
        entries = decode_result_payload(open_container(result, IMG_KEY))
        assert entries == [(2, LABELS10[1], pytest.approx(0.7))]

    def test_full_list_in_order(self, plain17):
        setup = build_setup(plain17, 4)
        session = ready_session(setup)
        x = seed_image(plain17.input_shape, 95)
        probs = forward(plain17, x)
        pairs = top_k(probs, 10)
        entries = decode_result_payload(
            open_container(SealedContainer.decode(map_classes(session, pairs)), IMG_KEY)
        )
        assert [(i, lbl) for i, lbl, _ in entries] == [(i, LABELS10[i - 1]) for i, _ in pairs]
        got_scores = [s for _, _, s in entries]
        assert got_scores == [np.float32(s) for _, s in pairs]

    def test_index_zero_rejected(self, plain17):
        session = ready_session(build_setup(plain17, 4))
        with pytest.raises(ProtocolError, match="class index 0"):
            map_classes(session, [(0, 0.5)])

    def test_index_above_range_rejected(self, plain17):
        session = ready_session(build_setup(plain17, 4))
        with pytest.raises(ProtocolError, match="class index 11"):
            map_classes(session, [(11, 0.5)])

    def test_each_result_gets_a_fresh_nonce(self, plain17):
        session = ready_session(build_setup(plain17, 4))
        a, b = (SealedContainer.decode(map_classes(session, [(1, 0.25)])) for _ in range(2))
        assert a.nonce != b.nonce
        assert open_container(a, IMG_KEY) == open_container(b, IMG_KEY)

    ENTRY = struct.pack("<If", 1, 0.25)

    @pytest.mark.parametrize("payload", [
        # the removed layout: a flag byte and a host-chosen 12-byte nonce
        b"\x01" + bytes(range(12)) + struct.pack("<I", 1) + ENTRY,
        b"",
        b"\x01\x00\x00",
        struct.pack("<I", 1) + ENTRY + b"\x00",
    ], ids=["old-layout-with-nonce", "empty", "three-bytes", "trailing-byte"])
    def test_malformed_map_request_refused(self, plain17, payload):
        session = ready_session(build_setup(plain17, 4))
        msg_type, reply = session.call(MSG_MAP, payload)
        assert msg_type == MSG_ERROR
        assert protocol.decode_error(reply)[0] == protocol.ERR_MALFORMED
        assert session.state == "ready"
        # the request layout is u32 count, then (u32 index, f32 score) entries
        msg_type, reply = session.call(MSG_MAP, struct.pack("<I", 1) + self.ENTRY)
        assert msg_type == MSG_RESULT
        opened = open_container(SealedContainer.decode(reply), IMG_KEY)
        assert decode_result_payload(opened) == [(1, LABELS10[0], 0.25)]


class TestDecoders:
    def test_result_label_not_utf8_is_a_protocol_error(self):
        blob = struct.pack("<I", 1) + struct.pack("<IfH", 1, 0.25, 2) + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="not UTF-8"):
            decode_result_payload(blob)

    @pytest.mark.parametrize("missing", ["frontnet.sealed", "labels.sealed"])
    def test_manifest_without_a_sealed_entry_is_a_protocol_error(self, missing):
        manifest = {"frontnet.sealed": "ab" * 32, "labels.sealed": "cd" * 32}
        del manifest[missing]
        with pytest.raises(ProtocolError, match=f"lacks an entry for {missing}"):
            measurement_from_manifest(manifest)

    @pytest.mark.parametrize("digest", ["zz" * 32, "AB" * 32, "ab" * 31 + " a"])
    def test_manifest_digest_not_lowercase_hex_is_a_protocol_error(self, digest):
        text = f"frontnet.sealed\t{digest}\nlabels.sealed\t{'cd' * 32}\n"
        with pytest.raises(ProtocolError, match="manifest line 1 "):
            measurement_from_manifest(parse_manifest(text))


def assert_no_shared_window(secret: bytes, haystack: bytes, window: int = 16):
    for start in range(0, max(len(secret) - window + 1, 0)):
        assert secret[start : start + window] not in haystack


class TestBoundaryLeaks:
    def test_scripted_session_leaks_nothing(self, plain17):
        setup = build_setup(plain17, 4)
        session = ready_session(setup, audit=[])
        images = [seed_image(plain17.input_shape, s) for s in (96, 97)]
        for x in images:
            ir = infer_encrypted_image(session, sealed_image(x))
            probs = forward(setup["back"], ir)
            map_classes(session, top_k(probs, 3))
        with pytest.raises(AuthError):
            infer_encrypted_image(session, sealed_image(images[0], img_key=WRONG_KEY))

        out = session.boundary_output()
        assert len(out) > 0
        secrets = [
            setup["front_blob"],
            setup["labels_blob"],
            MODEL_KEY,
            IMG_KEY,
            ROOT_KEY,
        ] + [x.encode() for x in images]
        for secret in secrets:
            assert_no_shared_window(secret, out)

    def test_label_text_never_leaves_in_clear(self, plain17):
        setup = build_setup(plain17, 4)
        session = ready_session(setup, audit=[])
        map_classes(session, [(3, 0.9)])
        out = session.boundary_output()
        for label in LABELS10:
            assert label.encode() not in out


class TestAudit:
    def test_audit_list_receives_every_response(self, plain17):
        setup = build_setup(plain17, 4)
        audit: list[bytes] = []
        session = ready_session(setup, audit=audit)
        infer_encrypted_image(session, sealed_image(seed_image(plain17.input_shape, 99)))
        # attest evidence, provision ok, then the intermediate tensor
        assert len(audit) == 3 and audit[-1][0] == MSG_IR
        assert session.boundary_output() == b"".join(audit)

    def test_default_session_holds_no_per_request_state(self, plain17):
        setup = build_setup(plain17, 4)
        session = ready_session(setup)
        sealed = sealed_image(seed_image(plain17.input_shape, 100))

        def footprint():
            return {name: len(value) for name, value in vars(session).items()
                    if isinstance(value, (bytes, list, dict, set, tuple))}

        before = footprint()
        for _ in range(1000):
            ir = infer_encrypted_image(session, sealed)
            map_classes(session, top_k(forward(setup["back"], ir), 3))
        assert footprint() == before
        assert session.boundary_output() == b""


class TestStateMachine:
    OPS = ("attest", "provision", "infer", "map")

    def run_op(self, op, session, setup):
        if op == "attest":
            nonce = os.urandom(32)
            evidence = attest(session, nonce, ROOT_KEY)
            return ("attested", (nonce, evidence))
        if op == "provision":
            if session._test_transcript is None:
                # never attested; any payload must bounce off the state check
                nonce, evidence = bytes(32), AttestationEvidence(bytes(32), bytes(32))
            else:
                nonce, evidence = session._test_transcript
            key_msg = build_key_message(
                ROOT_KEY, evidence.measurement, nonce, evidence.mac, MODEL_KEY, IMG_KEY
            )
            provision_keys(session, key_msg)
            return ("ready", None)
        if op == "infer":
            x = seed_image((32, 32, 3), 98)
            infer_encrypted_image(session, sealed_image(x))
            return (None, None)
        if op == "map":
            map_classes(session, [(1, 0.5)])
            return (None, None)
        raise AssertionError(op)

    def test_random_sequences_fail_cleanly(self, plain17):
        rng = np.random.default_rng(11)
        setup = build_setup(plain17, 4)
        legal_before = {"attest": {"created"}, "provision": {"attested"},
                        "infer": {"ready"}, "map": {"ready"}}
        for _ in range(60):
            session = enclave_create(setup["fn_sealed"], setup["lbl_sealed"])
            session._test_transcript = None
            for op in rng.choice(self.OPS, size=8):
                state_before = session.state
                try:
                    outcome = self.run_op(op, session, setup)
                    assert state_before in legal_before[op]
                    if op == "attest":
                        session._test_transcript = outcome[1]
                except StateError:
                    assert state_before not in legal_before[op]
                    assert session.state == state_before  # no side effects
