"""Split a network at a cut layer and package the deployable artifacts.

The front half ships sealed (config and weights packed into one encrypted
container); the back half ships as plaintext files. Labels are sealed
separately under the same model key. A manifest of SHA-256 hashes covers
every artifact so a deployment can detect any modified byte, and a small
JSON sidecar records the cut index (global, 1-based), the layer and class
counts, and the two shapes the host cannot derive from the back model: the
model's input and the boundary tensor.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import PartitionError, ProtocolError, ShapeError
from .netdef import NetworkDef, parse_network, route_crossings, serialize_network
from .protocol import MAX_LABEL_BYTES, check_input_shape
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
_BUNDLE_HEADER = struct.Struct("<Q")  # config length
_RECORD_KEYS = {"back_layers", "classes", "cut", "front_layers", "input_shape", "ir_shape"}


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

    back_layers = tuple(
        replace(layer, index=layer.index - cut, sources=tuple(s - cut for s in layer.sources))
        for layer in net.layers[cut:]
    )
    return (NetworkDef(net.input_shape, net.layers[:cut], net.weights[:cut]),
            NetworkDef(net.layer_output_shapes[cut - 1], back_layers, net.weights[cut:]))


def pack_model(config_text: str, weights: bytes) -> bytes:
    """Bundle a serialized model into one blob: u64 LE config length,
    config UTF-8, weights."""
    cfg = config_text.encode()
    return _BUNDLE_HEADER.pack(len(cfg)) + cfg + weights


def unpack_model(blob: bytes) -> tuple[str, bytes]:
    if len(blob) < _BUNDLE_HEADER.size:
        raise ProtocolError("model bundle shorter than its length header")
    (cfg_len,) = _BUNDLE_HEADER.unpack_from(blob)
    cfg_end = _BUNDLE_HEADER.size + cfg_len
    if len(blob) < cfg_end:
        raise ProtocolError("model bundle truncated")
    return _config_text(blob[_BUNDLE_HEADER.size : cfg_end], "front"), blob[cfg_end:]


def _config_text(raw: bytes, half: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError:
        raise ProtocolError(f"{half} model config is not UTF-8 text") from None


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
    frontnet_sealed: SealedContainer
    labels_sealed: SealedContainer
    backnet: NetworkDef
    meta: dict
    manifest: dict[str, str]


def write_artifacts(directory: str | Path, net: NetworkDef, cut: int, labels: list[str],
                    model_key: bytes, nonces: tuple[bytes, bytes] | None = None
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
        if size > MAX_LABEL_BYTES:
            raise PartitionError(f"label {label[:20]!r}... exceeds {MAX_LABEL_BYTES} UTF-8 bytes")

    front, back = split_network(net, cut)
    front_cfg, front_weights = serialize_network(front)
    back_cfg, back_weights = serialize_network(back)

    fn_nonce, lbl_nonce = nonces if nonces is not None else (None, None)
    fn_sealed = seal(pack_model(front_cfg, front_weights), model_key, "frontnet", fn_nonce)
    lbl_sealed = seal("\n".join(labels).encode(), model_key, "labels", lbl_nonce)

    meta = {
        "cut": cut,
        "front_layers": front.n_layers,
        "back_layers": back.n_layers,
        "input_shape": list(net.input_shape),
        "ir_shape": list(front.output_shape),
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

    return PartitionArtifacts(directory, fn_sealed, lbl_sealed, back, meta, hashes)


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

    backnet = parse_network(_config_text(blobs["backnet.cfg"], "back"), blobs["backnet.weights"])
    if backnet.layers[-1].kind != "softmax":
        raise ProtocolError("the back model must end in a [softmax] layer")
    return PartitionArtifacts(
        directory=directory,
        frontnet_sealed=SealedContainer.decode(blobs["frontnet.sealed"]).expect_type("frontnet"),
        labels_sealed=SealedContainer.decode(blobs["labels.sealed"]).expect_type("labels"),
        backnet=backnet,
        meta=_read_record(blobs["partition.json"], backnet),
        manifest=manifest,
    )


def _read_record(blob: bytes, backnet: NetworkDef) -> dict:
    """The partition record, refused unless it holds the keys ``write_artifacts``
    writes and its two shapes are three u32 sizes each, the input's one a
    client can send and the boundary tensor's the back model's input."""
    try:
        meta = json.loads(blob)
    except ValueError:  # not UTF-8, not JSON, or a number too long to convert
        raise ProtocolError("partition.json is not JSON text") from None
    if not isinstance(meta, dict) or meta.keys() != _RECORD_KEYS:
        raise ProtocolError(
            f"partition.json must be an object with the keys {', '.join(sorted(_RECORD_KEYS))}"
        )
    for key in ("input_shape", "ir_shape"):
        shape = meta[key]
        if not (isinstance(shape, list) and len(shape) == 3
                and all(type(d) is int and 0 < d < 2**32 for d in shape)):
            raise ProtocolError(f"partition.json {key} must be three integers in [1, 2**32)")
    check_input_shape(tuple(meta["input_shape"]), "partition.json")
    if backnet.input_shape != tuple(meta["ir_shape"]):
        raise ShapeError(
            f"back model expects input {backnet.input_shape}, "
            f"but the front model emits {tuple(meta['ir_shape'])}"
        )
    return meta
