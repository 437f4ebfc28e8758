from dataclasses import replace

import numpy as np
import pytest

from irshield.engine import forward, forward_range
from irshield.errors import AuthError, PartitionError, ProtocolError
from irshield.fixtures import gen_fixture_model
from irshield.netdef import parse_network, serialize_network, valid_partition_points
from irshield.partition import (
    load_artifacts,
    pack_model,
    render_manifest,
    split_network,
    unpack_model,
    write_artifacts,
)
from irshield.sealing import SealedContainer, open_container, seal

from conftest import seed_image

KEY = bytes(range(32))
OTHER_KEY = bytes(range(1, 33))


class TestSealOpen:
    def test_round_trip(self):
        box = seal(b"hello enclave", KEY, "image")
        assert open_container(box, KEY) == b"hello enclave"

    def test_empty_plaintext(self):
        box = seal(b"", KEY, "labels")
        assert box.ciphertext == b""
        assert len(box.tag) == 16
        assert open_container(box, KEY) == b""

    def test_container_codec_round_trip(self):
        box = seal(b"payload bytes", KEY, "result")
        again = SealedContainer.decode(box.encode())
        assert again == box
        assert open_container(again, KEY) == b"payload bytes"

    def test_container_byte_layout(self):
        box = seal(b"\x01\x02\x03", KEY, "image", nonce=bytes(range(12)))
        blob = box.encode()
        assert blob[0:4] == b"IRSC"
        assert int.from_bytes(blob[4:8], "little") == 1  # version
        assert blob[8] == 3  # image content type
        assert blob[9:21] == bytes(range(12))  # nonce
        assert int.from_bytes(blob[21:29], "little") == 3  # ciphertext length
        assert len(blob) == 29 + 3 + 16
        assert blob[-16:] == box.tag

    @pytest.mark.parametrize("length", [11, 13])
    def test_injected_nonce_of_another_length_refused(self, length):
        with pytest.raises(ValueError, match="nonce must be 12 bytes"):
            seal(b"payload", KEY, "image", nonce=bytes(length))

    def test_nonces_fresh_per_seal(self):
        seen_nonces = set()
        seen_cts = set()
        for _ in range(100):
            box = seal(b"same plaintext", KEY, "image")
            seen_nonces.add(box.nonce)
            seen_cts.add(box.ciphertext)
        assert len(seen_nonces) == 100
        assert len(seen_cts) == 100

    def test_wrong_key_rejected(self):
        box = seal(b"secret", KEY, "image")
        with pytest.raises(AuthError):
            open_container(box, OTHER_KEY)

    def test_key_length_enforced(self):
        with pytest.raises(ValueError, match="^key must be 32 bytes$"):
            seal(b"x", b"short", "image")
        with pytest.raises(ValueError, match="^key must be 32 bytes$"):
            open_container(seal(b"x", KEY, "image"), KEY[:-1])
        with pytest.raises(ValueError, match="unknown content type"):
            seal(b"x", KEY, "telemetry")

    def test_flipped_ciphertext_bit_rejected(self):
        box = seal(b"a few words of payload", KEY, "image")
        flipped = bytearray(box.ciphertext)
        flipped[3] ^= 0x01
        tampered = SealedContainer(box.content_type, box.nonce, bytes(flipped), box.tag)
        with pytest.raises(AuthError):
            open_container(tampered, KEY)

    def test_content_type_bound_as_associated_data(self):
        box = seal(b"model bytes", KEY, "frontnet")
        relabeled = SealedContainer(2, box.nonce, box.ciphertext, box.tag)
        with pytest.raises(AuthError):
            open_container(relabeled, KEY)

    def test_opener_names_the_content_type_it_expects(self):
        # an image and a result both open under the image key; the role tells them apart
        box = seal(b"result bytes", KEY, "result")
        assert box.expect_type("result") is box
        for other in ("frontnet", "labels", "image"):
            with pytest.raises(AuthError, match=f"container holds result, expected {other}"):
                box.expect_type(other)

    def test_every_field_tamper_fails(self):
        payload = np.random.default_rng(0).bytes(256)
        box = seal(payload, KEY, "image")
        blob = bytearray(box.encode())
        # sample positions across the encoded container: header, nonce,
        # length, ciphertext, tag
        for pos in [0, 4, 8, 9, 15, 20, 22, 29, 40, 80, len(blob) - 16, len(blob) - 1]:
            for bit in (0x01, 0x80):
                tampered = bytearray(blob)
                tampered[pos] ^= bit
                with pytest.raises((AuthError, ProtocolError)):
                    open_container(SealedContainer.decode(bytes(tampered)), KEY)

    def test_large_payload_round_trip(self):
        payload = np.random.default_rng(1).bytes(16 * 1024 * 1024)
        box = seal(payload, KEY, "image")
        assert open_container(box, KEY) == payload

    def test_decode_rejects_truncation_and_bad_magic(self):
        blob = seal(b"xyz", KEY, "image").encode()
        with pytest.raises(ProtocolError, match="truncated"):
            SealedContainer.decode(blob[:10])
        with pytest.raises(ProtocolError, match="magic"):
            SealedContainer.decode(b"QRSC" + blob[4:])
        with pytest.raises(ProtocolError, match="length"):
            SealedContainer.decode(blob + b"extra")
        with pytest.raises(ProtocolError, match="unsupported container version 2"):
            SealedContainer.decode(blob[:4] + (2).to_bytes(4, "little") + blob[8:])
        with pytest.raises(ProtocolError, match="unknown container content type 9"):
            SealedContainer.decode(blob[:8] + b"\x09" + blob[9:])


class TestSplitNetwork:
    def test_structure_only_network_not_split(self, plain17):
        with pytest.raises(PartitionError) as info:
            split_network(replace(plain17, weights=None), 4)
        assert str(info.value) == "cannot split a structure-only NetworkDef"

    def test_plain17_cut4_composition_bit_exact(self, plain17):
        front, back = split_network(plain17, 4)
        assert front.n_layers == 4
        assert back.n_layers == 13
        x = seed_image(plain17.input_shape, 80)
        full = forward(plain17, x)
        ir = forward_range(front, 1, 4, x)
        out = forward_range(back, 1, 13, ir)
        assert out.array.tobytes() == full.tobytes()

    def test_every_valid_cut_composes(self, denseblock):
        x = seed_image(denseblock.input_shape, 81)
        full = forward(denseblock, x)
        for cut in (5, 11, 12, 13):
            front, back = split_network(denseblock, cut)
            ir = forward_range(front, 1, front.n_layers, x)
            out = forward_range(back, 1, back.n_layers, ir)
            assert out.array.tobytes() == full.tobytes()

    @pytest.mark.parametrize("arch", ["plain17", "plain28", "denseblock"])
    def test_halves_carry_the_parent_shapes_at_every_valid_cut(self, arch, request):
        net = request.getfixturevalue(arch)
        for cut in sorted(valid_partition_points(net)):
            front, back = split_network(net, cut)
            assert front.input_shape == net.input_shape
            assert front.layer_input_shapes == net.layer_input_shapes[:cut]
            assert front.layer_output_shapes == net.layer_output_shapes[:cut]
            assert back.input_shape == net.layer_output_shapes[cut - 1]
            assert back.layer_input_shapes == net.layer_input_shapes[cut:]
            assert back.layer_output_shapes == net.layer_output_shapes[cut:]

    def test_interior_cut_rejected(self, denseblock):
        with pytest.raises(PartitionError, match="routes from layer"):
            split_network(denseblock, 7)

    def test_cut_bounds_checked(self, plain17):
        with pytest.raises(PartitionError):
            split_network(plain17, 0)
        with pytest.raises(PartitionError):
            split_network(plain17, 17)

    def test_last_cut_leaves_softmax_only(self, plain17):
        _, back = split_network(plain17, 16)
        assert back.n_layers == 1
        assert back.layers[0].kind == "softmax"

    def test_back_routes_rebased(self, denseblock):
        _, back = split_network(denseblock, 5)
        route = next(layer for layer in back.layers if layer.kind == "route")
        assert route.index == 6
        assert route.sources == (1, 2, 3, 4, 5)

    def test_split_halves_serialize_and_reload(self, denseblock):
        front, back = split_network(denseblock, 11)
        for half in (front, back):
            cfg, weights = serialize_network(half)
            again = parse_network(cfg, weights)
            assert again.layers == half.layers
        x = seed_image(denseblock.input_shape, 82)
        ir = forward_range(front, 1, front.n_layers, x)
        reloaded = parse_network(*serialize_network(back))
        out = forward_range(reloaded, 1, reloaded.n_layers, ir)
        assert out.array.tobytes() == forward(denseblock, x).tobytes()


def test_pack_model_round_trip(plain17):
    cfg, weights = serialize_network(plain17)
    text, blob = unpack_model(pack_model(cfg, weights))
    assert text == cfg and blob == weights


class TestArtifacts:
    def test_write_and_load(self, tmp_path, plain17):
        labels = [f"class-{i}" for i in range(10)]
        arts = write_artifacts(tmp_path / "m", plain17, 4, labels, KEY)
        loaded = load_artifacts(tmp_path / "m")
        assert loaded.meta["cut"] == 4
        assert loaded.meta["ir_shape"] == [8, 8, 8]
        assert loaded.backnet.n_layers == 13
        assert loaded.frontnet_sealed == arts.frontnet_sealed
        assert open_container(loaded.labels_sealed, KEY).decode().splitlines() == labels

    def test_label_count_enforced(self, tmp_path, plain17):
        with pytest.raises(PartitionError, match="label count"):
            write_artifacts(tmp_path / "m", plain17, 4, ["just-one"], KEY)

    def test_manifest_detects_any_byte_change(self, tmp_path, plain17):
        labels = [f"class-{i}" for i in range(10)]
        write_artifacts(tmp_path / "m", plain17, 4, labels, KEY)
        target = tmp_path / "m" / "backnet.weights"
        blob = bytearray(target.read_bytes())
        blob[100] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(ProtocolError, match="hash mismatch for backnet.weights"):
            load_artifacts(tmp_path / "m")

    def test_edited_manifest_detected(self, tmp_path, plain17):
        labels = [f"class-{i}" for i in range(10)]
        arts = write_artifacts(tmp_path / "m", plain17, 4, labels, KEY)
        hashes = dict(arts.manifest)
        hashes["labels.sealed"] = "0" * 64
        (tmp_path / "m" / "manifest.txt").write_text(render_manifest(hashes))
        with pytest.raises(ProtocolError, match="hash mismatch for labels.sealed"):
            load_artifacts(tmp_path / "m")

    @pytest.mark.parametrize("label", ["", "two\nlines"])
    def test_empty_or_multi_line_label_refused(self, tmp_path, plain17, label):
        labels = [f"class-{i}" for i in range(9)] + [label]
        with pytest.raises(PartitionError) as info:
            write_artifacts(tmp_path / "m", plain17, 4, labels, KEY)
        assert str(info.value) == f"labels must be non-empty single lines, got {label!r}"

    def test_blank_manifest_lines_are_skipped(self, tmp_path, plain17):
        labels = [f"class-{i}" for i in range(10)]
        arts = write_artifacts(tmp_path / "m", plain17, 4, labels, KEY)
        manifest = tmp_path / "m" / "manifest.txt"
        manifest.write_text("\n" + manifest.read_text().replace("\n", "\n \t\n", 1) + "\n")
        assert load_artifacts(tmp_path / "m").manifest == arts.manifest

    def test_missing_manifest_refused(self, tmp_path, plain17):
        write_artifacts(tmp_path / "m", plain17, 4, [f"class-{i}" for i in range(10)], KEY)
        (tmp_path / "m" / "manifest.txt").unlink()
        with pytest.raises(ProtocolError) as info:
            load_artifacts(tmp_path / "m")
        assert str(info.value) == f"missing manifest.txt in {tmp_path / 'm'}"

    def test_manifest_lacking_an_entry_refused(self, tmp_path, plain17):
        arts = write_artifacts(tmp_path / "m", plain17, 4, [f"class-{i}" for i in range(10)], KEY)
        hashes = {name: digest for name, digest in arts.manifest.items() if name != "labels.sealed"}
        (tmp_path / "m" / "manifest.txt").write_text(render_manifest(hashes))
        with pytest.raises(ProtocolError) as info:
            load_artifacts(tmp_path / "m")
        assert str(info.value) == "manifest lacks an entry for labels.sealed"

    def test_missing_artifact_detected(self, tmp_path, plain17):
        labels = [f"class-{i}" for i in range(10)]
        write_artifacts(tmp_path / "m", plain17, 4, labels, KEY)
        (tmp_path / "m" / "frontnet.sealed").unlink()
        with pytest.raises(ProtocolError, match="missing artifact frontnet.sealed"):
            load_artifacts(tmp_path / "m")

    def test_hashes_stable_iff_bytes_stable(self, tmp_path, plain17):
        labels = [f"class-{i}" for i in range(10)]
        nonces = (bytes(12), bytes(range(12)))
        a = write_artifacts(tmp_path / "a", plain17, 4, labels, KEY, nonces=nonces)
        b = write_artifacts(tmp_path / "b", plain17, 4, labels, KEY, nonces=nonces)
        assert a.manifest == b.manifest
        c = write_artifacts(tmp_path / "c", plain17, 4, labels, KEY)
        assert c.manifest["backnet.cfg"] == a.manifest["backnet.cfg"]
        assert c.manifest["frontnet.sealed"] != a.manifest["frontnet.sealed"]

    def test_split_compose_random_triples(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            arch = ("plain17", "plain28", "denseblock")[trial % 3]
            cfg, weights = gen_fixture_model(arch, int(rng.integers(0, 1000)), 10)
            net = parse_network(cfg, weights)
            from irshield.assessment import valid_partition_points

            valid = sorted(valid_partition_points(net))
            cut = int(rng.choice(valid))
            x = seed_image(net.input_shape, int(rng.integers(0, 10_000)))
            front, back = split_network(net, cut)
            ir = forward_range(front, 1, front.n_layers, x)
            out = forward_range(back, 1, back.n_layers, ir)
            assert out.array.tobytes() == forward(net, x).tobytes()
