"""The program's side of a perfbench run: the assessing worker or the daemon.

``run.py`` starts it as its own process so that its memory can be read
from outside and its start-up counts in ``setup_s``:

    python3 perfbench/side.py {assess,serve} --root DIR --seed N --trace {0,1} --out DIR

It sets itself up, prints one JSON line ``{"ready": ...}``, then answers
JSON commands read from stdin, one per line, and exits at end of input.
With ``--trace 1`` it wraps the program's module attributes in spans before
any call; with ``--trace 0`` it runs the program untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _say(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _timed_us(fn, *args, **kwargs):
    start = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter_ns() - start) / 1e3


def trace_assessment(tracer, ir) -> None:
    from irshield import assessment

    tracer.wrap(assessment, "forward", "engine.forward")
    tracer.wrap(
        assessment,
        "forward_range",
        "engine.forward_range",
        count=lambda net, lo, hi, x: hi - lo + 1,
    )
    tracer.wrap(assessment, "project_feature_maps", "assessment.project_feature_maps")
    tracer.wrap(assessment, "kl_divergence", "assessment.kl_divergence")


def trace_serving(tracer, ir) -> None:
    from irshield import enclave, server

    tracer.wrap(server, "infer_encrypted_image", "enclave.infer_encrypted_image", new_request=True)
    tracer.wrap(server, "forward", "engine.forward.back")
    tracer.wrap(server, "top_k", "engine.top_k")
    tracer.wrap(server, "map_classes", "enclave.map_classes")
    tracer.wrap(server, "enclave_create", "enclave.enclave_create", new_request=True)
    tracer.wrap(server, "attest", "enclave.attest")
    tracer.wrap(server, "provision_keys", "enclave.provision_keys")
    tracer.wrap(enclave, "forward_range", "engine.forward_range.front")
    tracer.wrap(enclave, "parse_network", "netdef.parse_network")
    tracer.wrap(
        enclave, "open_container", lambda c, key: f"sealing.open_container.{c.content_name}"
    )
    tracer.wrap(enclave, "seal", lambda data, key, kind, nonce=None: f"sealing.seal.{kind}")


def assess_side(ir, inputs, args, tracer) -> None:
    from checks import report_dict

    nets = {
        name: ir.parse_network(*ir.gen_fixture_model(inputs.ARCH, seed, inputs.CLASSES))
        for name, seed in (("model", inputs.MODEL_SEED), ("oracle", inputs.ORACLE_SEED))
    }
    pool = [ir.Tensor.from_array(img) for img in inputs.images(args.seed)]
    _say({"ready": {}})

    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "run":
            latencies, reports = [], []
            deadline = time.perf_counter() + cmd["seconds"]
            j = 0
            while time.perf_counter() < deadline:
                x = pool[j % len(pool)]
                start = time.perf_counter()
                if tracer is None:
                    report = ir.assess_model([x], nets["model"], nets["oracle"])
                else:
                    with tracer.span("assess_model", new_request=True):
                        report = ir.assess_model([x], nets["model"], nets["oracle"])
                latencies.append(time.perf_counter() - start)
                reports.append(report_dict(report))
                j += 1
            _say({"latencies": latencies, "reports": reports})
        elif cmd["cmd"] == "layers":
            # one call per layer on inputs captured from the full pass
            net = nets["model"]
            for x in pool[:2]:
                for i, layer in enumerate(net.layers, start=1):
                    x_i = x if i == 1 else ir.forward_range(net, 1, i - 1, x)
                    name = f"engine.layer.{i:02d}.{layer.kind}"
                    for _ in range(cmd["reps"]):
                        with tracer.span(name):
                            ir.forward_range(net, i, i, x_i)
            _say({"done": True})
        elif cmd["cmd"] == "spans":
            tracer.dump(Path(cmd["path"]))
            _say({"done": True})


def serve_side(ir, inputs, args, tracer) -> None:
    keys = inputs.keys(args.seed)
    setup = {}
    (cfg, weights), setup["gen_fixture_model"] = _timed_us(
        ir.gen_fixture_model, inputs.ARCH, inputs.MODEL_SEED, inputs.CLASSES
    )
    net = ir.parse_network(cfg, weights)
    artifact_dir = Path(args.out) / "artifacts"
    _, setup["write_artifacts"] = _timed_us(
        ir.write_artifacts, artifact_dir, net, inputs.CUT, inputs.LABELS, keys["model"]
    )
    dep, setup["deploy"] = _timed_us(ir.deploy, artifact_dir, k=inputs.K, root_key=keys["root"])
    server = ir.Server(("127.0.0.1", 0), dep).start()
    try:
        _say({"ready": {"port": server.address[1], "artifacts": str(artifact_dir), "setup_us": setup}})
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "spans":
                tracer.dump(Path(cmd["path"]))
                _say({"done": True})
    finally:
        server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("assess", "serve"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    import irshield as ir

    import inputs
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        (trace_assessment if args.role == "assess" else trace_serving)(tracer, ir)
    (assess_side if args.role == "assess" else serve_side)(ir, inputs, args, tracer)


if __name__ == "__main__":
    main()
