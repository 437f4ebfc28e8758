"""Split a network at a cut layer and package the deployable artifacts.

The front half ships sealed (config and weights packed into one encrypted
container); the back half ships as plaintext files. Labels are sealed
separately under the same model key. A manifest of SHA-256 hashes covers
every artifact so a deployment can detect any modified byte, and a small
JSON sidecar records the cut index (global, 1-based) plus the shapes needed
to wire the halves back together.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import PartitionError, ProtocolError
from .netdef import NetworkDef, parse_network, route_crossings, serialize_network
from .sealing import SealedContainer, seal

__all__ = [
    "split_network",
    "pack_model",
    "unpack_model",
    "PartitionArtifacts",
    "write_artifacts",
    "load_artifacts",
    "render_manifest",
    "parse_manifest",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.txt"
_HEX_DIGITS = frozenset("0123456789abcdef")
ARTIFACT_NAMES = (
    "backnet.cfg",
    "backnet.weights",
    "frontnet.sealed",
    "labels.sealed",
    "partition.json",
)


def split_network(net: NetworkDef, cut: int) -> tuple[NetworkDef, NetworkDef]:
    """Split into (layers 1..cut, layers cut+1..n) with routes rebased.

    The composition of the two halves reproduces the original forward pass
    bit for bit. The cut must be a valid partition point: no route after the
    cut may read a layer at or before it.
    """
    if net.weights is None:
        raise PartitionError("cannot split a structure-only NetworkDef")
    n = net.n_layers
    if not (1 <= cut < n):
        raise PartitionError(f"cut must be in [1, {n - 1}], got {cut}")
    if offenders := route_crossings(net, cut):
        detail = ", ".join(f"layer {t} routes from layer {s}" for t, s in offenders)
        raise PartitionError(f"cut {cut} crosses a route span: {detail}")

    front = NetworkDef(
        input_shape=net.input_shape,
        layers=net.layers[:cut],
        weights=net.weights[:cut],
        layer_input_shapes=net.layer_input_shapes[:cut],
        layer_output_shapes=net.layer_output_shapes[:cut],
    )
    back_layers = []
    for layer in net.layers[cut:]:
        rebased = replace(layer, index=layer.index - cut)
        if layer.kind == "route":
            rebased = replace(rebased, sources=tuple(s - cut for s in layer.sources))
        back_layers.append(rebased)
    back = NetworkDef(
        input_shape=net.layer_output_shapes[cut - 1],
        layers=tuple(back_layers),
        weights=net.weights[cut:],
        layer_input_shapes=net.layer_input_shapes[cut:],
        layer_output_shapes=net.layer_output_shapes[cut:],
    )
    return front, back


def pack_model(config_text: str, weights: bytes) -> bytes:
    """Bundle a serialized model into one blob: u64 LE config length,
    config UTF-8, weights."""
    cfg = config_text.encode()
    return struct.pack("<Q", len(cfg)) + cfg + weights


def unpack_model(blob: bytes) -> tuple[str, bytes]:
    if len(blob) < 8:
        raise ProtocolError("model bundle shorter than its length header")
    (cfg_len,) = struct.unpack_from("<Q", blob, 0)
    if len(blob) < 8 + cfg_len:
        raise ProtocolError("model bundle truncated")
    try:
        config_text = blob[8 : 8 + cfg_len].decode()
    except UnicodeDecodeError:
        raise ProtocolError("front model config is not UTF-8 text") from None
    return config_text, blob[8 + cfg_len :]


def render_manifest(hashes: dict[str, str]) -> str:
    return "".join(f"{name}\t{digest}\n" for name, digest in sorted(hashes.items()))


def parse_manifest(text: str) -> dict[str, str]:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or len(parts[1]) != 64 or not set(parts[1]) <= _HEX_DIGITS:
            raise ProtocolError(f"manifest line {lineno} is not 'name<TAB>sha256-hex'")
        entries[parts[0]] = parts[1]
    return entries


@dataclass(frozen=True)
class PartitionArtifacts:
    directory: Path
    cut: int
    frontnet_sealed: SealedContainer
    labels_sealed: SealedContainer
    backnet: NetworkDef
    meta: dict
    manifest: dict[str, str]


def write_artifacts(
    directory: str | Path,
    net: NetworkDef,
    cut: int,
    labels: list[str],
    model_key: bytes,
    nonces: tuple[bytes, bytes] | None = None,
) -> PartitionArtifacts:
    """Partition ``net`` at ``cut`` and write the deployable artifact set."""
    n_classes = net.class_count()
    if len(labels) != n_classes:
        raise PartitionError(
            f"label count {len(labels)} does not match the model's {n_classes} classes"
        )
    for label in labels:
        if "\n" in label or not label:
            raise PartitionError(f"labels must be non-empty single lines, got {label!r}")
        try:
            size = len(label.encode())
        except UnicodeEncodeError:
            raise PartitionError(f"label {label[:20]!r} is not valid UTF-8 text") from None
        if size > 0xFFFF:
            # a result entry carries its label's length as a u16
            raise PartitionError(f"label {label[:20]!r}... exceeds 65535 UTF-8 bytes")

    front, back = split_network(net, cut)
    front_cfg, front_weights = serialize_network(front)
    back_cfg, back_weights = serialize_network(back)

    fn_nonce, lbl_nonce = nonces if nonces is not None else (None, None)
    fn_sealed = seal(pack_model(front_cfg, front_weights), model_key, "frontnet", fn_nonce)
    lbl_sealed = seal("\n".join(labels).encode(), model_key, "labels", lbl_nonce)

    w, h, c = net.input_shape
    iw, ih, ic = front.output_shape
    meta = {
        "cut": cut,
        "front_layers": front.n_layers,
        "back_layers": back.n_layers,
        "input_shape": [w, h, c],
        "ir_shape": [iw, ih, ic],
        "classes": n_classes,
    }

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blobs = {
        "backnet.cfg": back_cfg.encode(),
        "backnet.weights": back_weights,
        "frontnet.sealed": fn_sealed.encode(),
        "labels.sealed": lbl_sealed.encode(),
        "partition.json": (json.dumps(meta, indent=1, sort_keys=True) + "\n").encode(),
    }
    hashes = {}
    for name, blob in blobs.items():
        (directory / name).write_bytes(blob)
        hashes[name] = hashlib.sha256(blob).hexdigest()
    (directory / MANIFEST_NAME).write_text(render_manifest(hashes))

    return PartitionArtifacts(
        directory=directory,
        cut=cut,
        frontnet_sealed=fn_sealed,
        labels_sealed=lbl_sealed,
        backnet=back,
        meta=meta,
        manifest=hashes,
    )


def load_artifacts(directory: str | Path) -> PartitionArtifacts:
    """Read an artifact directory back, verifying every manifest hash."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ProtocolError(f"missing {MANIFEST_NAME} in {directory}")
    manifest = parse_manifest(manifest_path.read_text())

    blobs = {}
    for name in ARTIFACT_NAMES:
        if name not in manifest:
            raise ProtocolError(f"manifest lacks an entry for {name}")
        path = directory / name
        if not path.is_file():
            raise ProtocolError(f"missing artifact {name} in {directory}")
        blob = path.read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != manifest[name]:
            raise ProtocolError(
                f"manifest hash mismatch for {name}: expected {manifest[name]}, "
                f"found {digest}"
            )
        blobs[name] = blob

    meta = json.loads(blobs["partition.json"])
    backnet = parse_network(blobs["backnet.cfg"].decode(), blobs["backnet.weights"])
    return PartitionArtifacts(
        directory=directory,
        cut=int(meta["cut"]),
        frontnet_sealed=SealedContainer.decode(blobs["frontnet.sealed"]),
        labels_sealed=SealedContainer.decode(blobs["labels.sealed"]),
        backnet=backnet,
        meta=meta,
        manifest=manifest,
    )
