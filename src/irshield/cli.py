"""Command-line interface.

Subcommands cover the whole workflow: generate fixture models, profile
workloads, assess leakage and choose a cut, partition and seal a model,
run the serving daemon, and query it. ``seal``/``open`` are debugging
utilities for the container format.

Exit codes: 0 success, 1 operational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import hmac
import logging
import os
import sys
from pathlib import Path

from .assessment import assess_model, report_table, report_tsv
from .client import client_predict
from .enclave import measurement_from_manifest
from .errors import IrshieldError
from .fixtures import FIXTURE_ARCHS, gen_fixture_model
from .imageio import load_image, resize_to_shape
from .netdef import parse_config, parse_network
from .partition import parse_manifest, write_artifacts
from .sealing import CONTENT_TYPES, NONCE_LEN, SealedContainer, open_container, seal
from .server import Server, deploy
from .workload import flop_profile, profile_tsv

log = logging.getLogger("irshield.cli")


def _seeded_nonce(key: bytes, seed: int, purpose: str, *content: bytes) -> bytes:
    """A container nonce for ``--seed``: HMAC-SHA256 under the sealing key over the
    purpose, the seed and the inputs the plaintext comes from. The same inputs give
    the same bytes; other content under the same key and seed gets another nonce."""
    mac = hmac.new(key, f"irshield:{purpose}:{seed}".encode(), hashlib.sha256)
    for part in content:
        mac.update(len(part).to_bytes(8, "little") + part)
    return mac.digest()[:NONCE_LEN]


def _key_arg(value: str) -> bytes:
    try:
        key = bytes.fromhex(value)
    except ValueError:
        raise argparse.ArgumentTypeError("keys are hex strings") from None
    if len(key) != 32:
        raise argparse.ArgumentTypeError("keys are 32 bytes (64 hex chars)")
    return key


def _add_root_key(p: argparse.ArgumentParser) -> None:
    # argparse runs a string default through ``type`` as well, so the
    # environment value is checked like the flag; with neither, it is required
    env = os.environ.get("IRSHIELD_ROOT_KEY")
    p.add_argument("--root-key", type=_key_arg, default=env, required=env is None,
                   help="attestation root, 64 hex chars (default: IRSHIELD_ROOT_KEY env)")


def _addr_arg(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError("addresses look like host:port, with a port up to 65535")
    return host or "127.0.0.1", int(port)


def _load_net(model_path: str, weights_path: str | None):
    config_text = Path(model_path).read_text()
    if weights_path is None:
        return parse_config(config_text)
    return parse_network(config_text, Path(weights_path).read_bytes())


def _cmd_gen_fixture(args) -> int:
    config_text, weights = gen_fixture_model(args.arch, args.seed, args.classes)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    cfg_path = prefix.with_suffix(".cfg")
    weights_path = prefix.with_suffix(".weights")
    cfg_path.write_text(config_text)
    weights_path.write_bytes(weights)
    print(cfg_path)
    print(weights_path)
    return 0


def _cmd_flops(args) -> int:
    net = _load_net(args.model, args.weights)
    rendered = profile_tsv(flop_profile(net))
    if args.out:
        Path(args.out).write_text(rendered)
        print(args.out)
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_assess(args) -> int:
    irgen = _load_net(args.model, args.weights)
    irval = _load_net(args.oracle, args.oracle_weights)
    image_dir = Path(args.images)
    paths = sorted(
        p for p in image_dir.iterdir() if p.suffix.lower() in (".pgm", ".ppm")
    )
    if not paths:
        raise IrshieldError(f"no .pgm/.ppm images in {image_dir}")
    images = [resize_to_shape(load_image(p), irgen.input_shape) for p in paths]
    report = assess_model(images, irgen, irval, input_ids=[p.name for p in paths])

    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    table_path = prefix.with_suffix(".txt")
    tsv_path = prefix.with_suffix(".tsv")
    table_path.write_text(report_table(report))
    tsv_path.write_text(report_tsv(report))
    print(table_path)
    print(tsv_path)
    if report.chosen is None:
        print("chosen cut: none (no suffix of layers stays above the baseline)")
    else:
        print(f"chosen cut: {report.chosen}")
    return 0


def _cmd_partition(args) -> int:
    net = _load_net(args.model, args.weights)
    labels = Path(args.labels).read_text().splitlines()
    nonces = None
    if args.seed is not None:
        inputs = [Path(p).read_bytes() for p in (args.model, args.weights, args.labels)]
        inputs.append(str(args.cut).encode())
        nonces = tuple(_seeded_nonce(args.model_key, args.seed, purpose, *inputs)
                       for purpose in ("frontnet-nonce", "labels-nonce"))
    artifacts = write_artifacts(
        args.out, net, args.cut, labels, args.model_key, nonces=nonces
    )
    print(artifacts.directory)
    iw, ih, ic = artifacts.meta["ir_shape"]
    print(f"cut {args.cut}: boundary tensor {iw}x{ih}x{ic}, "
          f"{artifacts.meta['front_layers']} sealed + {artifacts.meta['back_layers']} plaintext layers")
    return 0


def _cmd_serve(args) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    dep = deploy(args.dir, k=args.k, root_key=args.root_key)
    Server(args.listen, dep).run_forever()
    return 0


def _cmd_predict(args) -> int:
    expected = None
    if args.manifest:
        expected = measurement_from_manifest(parse_manifest(Path(args.manifest).read_text()))
    results = client_predict(
        args.server,
        args.image,
        model_key=args.model_key,
        img_key=args.img_key,
        root_key=args.root_key,
        expected_measurement=expected,
    )
    for label, score in results:
        print(f"{label}\t{score!r}")
    return 0


def _cmd_seal(args) -> int:
    data = Path(args.infile).read_bytes()
    nonce = None if args.seed is None else _seeded_nonce(args.key, args.seed, "seal-nonce", data)
    box = seal(data, args.key, args.type, nonce=nonce)
    Path(args.out).write_bytes(box.encode())
    print(args.out)
    return 0


def _cmd_open(args) -> int:
    box = SealedContainer.decode(Path(args.infile).read_bytes())
    if args.expect_type:
        box.expect_type(args.expect_type)
    plaintext = open_container(box, args.key)
    Path(args.out).write_bytes(plaintext)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irshield",
        description="Partition ConvNets and serve them across a sealed trust boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixture", help="generate a deterministic toy model")
    p.add_argument("--arch", choices=FIXTURE_ARCHS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_gen_fixture)

    p = sub.add_parser("flops", help="per-layer workload profile")
    p.add_argument("--model", required=True)
    p.add_argument("--weights")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("assess", help="score per-layer leakage and choose a cut")
    p.add_argument("--model", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--oracle-weights", required=True)
    p.add_argument("--images", required=True, help="directory of .pgm/.ppm inputs")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("partition", help="split a model and seal the front half")
    p.add_argument("--model", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--cut", type=int, required=True)
    p.add_argument("--labels", required=True, help="text file, one label per line")
    p.add_argument("--model-key", type=_key_arg, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="reproducible nonces from the key, this seed and the inputs")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("serve", help="run the model-serving daemon")
    p.add_argument("--dir", required=True, help="partition artifact directory")
    p.add_argument("--listen", type=_addr_arg, default=("127.0.0.1", 4690))
    p.add_argument("--k", type=int, default=5)
    _add_root_key(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("predict", help="query a daemon with a sealed image")
    p.add_argument("--server", type=_addr_arg, required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--model-key", type=_key_arg, required=True)
    p.add_argument("--img-key", type=_key_arg, required=True)
    _add_root_key(p)
    p.add_argument("--manifest", help="verify the server measurement against this manifest")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("seal", help="seal a file into an authenticated container")
    p.add_argument("--key", type=_key_arg, required=True)
    p.add_argument("--type", choices=sorted(CONTENT_TYPES), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="reproducible nonce from the key, this seed and the input")
    p.set_defaults(func=_cmd_seal)

    p = sub.add_parser("open", help="verify and open a sealed container")
    p.add_argument("--key", type=_key_arg, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--expect-type", choices=sorted(CONTENT_TYPES))
    p.set_defaults(func=_cmd_open)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IrshieldError, ValueError, OSError) as exc:
        print(f"irshield: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
