"""perfbench: end-to-end and per-layer benchmark of irshield.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see BENCHMARK.json and perfbench/README.md):

* ``assess-plain17``   -- ``assess_model`` on one seeded image per operation.
* ``serve-persistent`` -- sealed predicts back to back on one open connection.
* ``serve-connect``    -- one ``client_predict`` session per operation.

The program's side (the assessing worker or the daemon) runs in its own
process, started by ``side.py``; this process generates the load and checks
every output. With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` the program's module functions
are wrapped in spans, all three loads run (the named one for half of the
time) and the line carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("assess-plain17", "serve-persistent", "serve-connect")
SETUP_REPEATS = 3
LAYER_REPS = 50
BOUNDARY_PROBE_REQUESTS = 200
MEMORY_WARMUP_S = 1.0
MEMORY_PROBE_S = 3.0
WATCHDOG_S = 170

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import CheckError, require  # noqa: E402


def _import_program():
    """Import irshield from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import irshield

    if Path(irshield.__file__).resolve().parent != src / "irshield":
        raise ImportError(f"irshield came from {irshield.__file__}, not {src}")
    return irshield


class _NoTracer:
    def span(self, name, count=1, new_request=False):
        return nullcontext()


# -- the program's side process -------------------------------------------------


class Side:
    """A running ``side.py`` process, timed from spawn to its ready line."""

    def __init__(self, role: str, seed: int, trace: int, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(HERE / "side.py"), role, "--root", str(ROOT),
                "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        try:
            self.ready = self._read()["ready"]
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"side process exited with {self.proc.wait()}")
        return json.loads(line)

    def ask(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def status_kb(self, field: str) -> int:
        """A ``VmHWM``/``VmRSS`` figure of the process, read from outside."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
        raise KeyError(field)

    def close(self) -> None:
        """End of input tells the side to stop; kill it if it does not."""
        try:
            self.proc.stdin.close()
        except OSError:  # the side already exited
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_side(role: str, seed: int, trace: int, out: Path, repeats: int) -> tuple[Side, float]:
    """Set the side up ``repeats`` times; keep the last, return the median set-up time."""
    times = []
    for r in range(repeats):
        side = Side(role, seed, trace, out / f"setup-{r}")
        times.append(side.setup_s)
        if r < repeats - 1:
            side.close()
    return side, statistics.median(times)


# -- loads --------------------------------------------------------------------


class Phase:
    """Outcome of one timed load."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds, succeeded operations only
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0


class AssessContext:
    def __init__(self, ir, reference, seed: int):
        self.gen = ir.parse_network(*ir.gen_fixture_model(inputs.ARCH, inputs.MODEL_SEED, inputs.CLASSES))
        oracle = ir.parse_network(*ir.gen_fixture_model(inputs.ARCH, inputs.ORACLE_SEED, inputs.CLASSES))
        pool = inputs.images(seed)
        self.baselines = [checks.baseline64(ir.forward(oracle, ir.Tensor.from_array(x))) for x in pool]
        got = ir.forward(oracle, ir.Tensor.from_array(pool[0]))
        want = checks.reference_probs(reference, oracle, pool[0])
        require(np.allclose(got, want, rtol=checks.REF_RTOL, atol=checks.REF_ATOL),
                "oracle forward disagrees with the scalar reference")
        self.first: dict[int, dict] = {}

    def check(self, op: int, report: dict) -> None:
        image = op % inputs.POOL
        if image in self.first:
            require(report == self.first[image], f"image {image}: report differs between runs of it")
        else:
            checks.check_report(report, self.gen, self.baselines[image])
            self.first[image] = report


def run_assess(side: Side, seconds: float, ctx: AssessContext) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    reply = side.ask(cmd="run", seconds=seconds)
    phase.elapsed = time.perf_counter() - start
    for op, report in enumerate(reply["reports"]):
        ctx.check(op, report)
    phase.latencies = reply["latencies"]
    phase.attempted = len(phase.latencies)
    return phase


class ServeContext:
    def __init__(self, ir, reference, seed: int, run_dir: Path):
        self.ir = ir
        self.keys = inputs.keys(seed)
        net = ir.parse_network(*ir.gen_fixture_model(inputs.ARCH, inputs.MODEL_SEED, inputs.CLASSES))
        pool = inputs.images(seed)
        self.expect = checks.ServingExpectations(ir, reference, net, pool, inputs.LABELS, inputs.K)
        self.plain = [inputs.tensor_bytes(img) for img in pool]
        self.nan_plain = inputs.tensor_bytes(inputs.nan_image())
        # one round: every pool image in turn, then the NaN probe
        self.round = [j % inputs.POOL for j in range(inputs.ROUND - 1)] + [None]
        self.paths = []
        for j, img in enumerate(pool):
            path = run_dir / f"image-{j}.ppm"
            inputs.write_ppm(img, path)
            self.paths.append(path)
        self.measurement = None

    def attach(self, side: Side) -> None:
        """Expected measurement, computed from the deployment's manifest."""
        from irshield.enclave import CODE_IDENTITY

        manifest = dict(
            line.split("\t")
            for line in (Path(side.ready["artifacts"]) / "manifest.txt").read_text().splitlines()
        )
        self.artifacts = Path(side.ready["artifacts"])
        self.addr = ("127.0.0.1", side.ready["port"])
        self.measurement = hashlib.sha256(
            CODE_IDENTITY + bytes.fromhex(manifest["frontnet.sealed"])
            + bytes.fromhex(manifest["labels.sealed"])
        ).digest()


def run_persistent(ctx: ServeContext, seconds: float, tracer) -> Phase:
    """Sealed predicts back to back on one connection, in whole rounds.

    One connection, because the daemon runs Python under one interpreter
    lock: a second connection only makes requests queue behind each other.
    """
    import wire
    from irshield import protocol

    ir = ctx.ir
    img_key = ctx.keys["image"]
    phase = Phase()
    conn = wire.Connection(ctx.addr, ctx.keys, ctx.measurement)
    try:
        start = time.perf_counter()
        while time.perf_counter() < start + seconds:
            for image in ctx.round:
                plain = ctx.nan_plain if image is None else ctx.plain[image]
                t0 = time.perf_counter()
                with tracer.span("client.seal", new_request=True):
                    sealed = ir.seal(plain, img_key, "image").encode()
                with tracer.span("client.roundtrip"):
                    msg_type, payload = conn.request(protocol.MSG_PREDICT, sealed)
                phase.attempted += 1
                if image is None:
                    # a NaN pixel must be refused with a malformed-input
                    # error on a connection that stays open
                    if msg_type == protocol.MSG_ERROR and protocol.decode_error(payload)[0] == protocol.ERR_MALFORMED:
                        phase.latencies.append(time.perf_counter() - t0)
                    else:
                        phase.failed += 1
                    continue
                require(msg_type == protocol.MSG_RESULT, f"predict answered with type {msg_type}: {payload[:80]!r}")
                with tracer.span("client.open"):
                    plaintext = ir.open_container(ir.SealedContainer.decode(payload), img_key)
                phase.latencies.append(time.perf_counter() - t0)
                ctx.expect.check_entries(image, checks.decode_result(plaintext))
        phase.elapsed = time.perf_counter() - start
    finally:
        conn.close()
    return phase


def run_connect(ctx: ServeContext, seconds: float, tracer) -> Phase:
    ir = ctx.ir
    keys = ctx.keys
    phase = Phase()
    start = time.perf_counter()
    deadline = start + seconds
    op = 0
    while time.perf_counter() < deadline:
        image = op % inputs.POOL
        t0 = time.perf_counter()
        with tracer.span("client.session", new_request=True):
            pairs = ir.client_predict(ctx.addr, ctx.paths[image], keys["model"], keys["image"],
                                      keys["root"], expected_measurement=ctx.measurement)
        phase.latencies.append(time.perf_counter() - t0)
        ctx.expect.check_labels(image, pairs)
        op += 1
    phase.elapsed = time.perf_counter() - start
    phase.attempted = op
    return phase


# -- metrics --------------------------------------------------------------------


def host_reference_ms(repeats: int = 5) -> float:
    """A fixed loop of pure Python and small numpy calls, to show host speed."""
    a = np.linspace(0.0, 1.0, 64, dtype=np.float32).reshape(8, 8)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0.0
        for i in range(300):
            b = (a @ a.T) * np.float32(0.5) + np.float32(i)
            acc += float(b.max()) + sum(j * j for j in range(50))
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def end_to_end(phase: Phase, setup_s: float, peak_kb: int) -> dict:
    lat_ms = [v * 1e3 for v in phase.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "ops_per_s": (len(lat_ms) / phase.elapsed, "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def assess_layer_metrics(spans: list[dict], images: int) -> dict:
    def total_ms(name):
        return sum(tracing.durations_us(spans, name)) / 1e3 / images

    out = {
        "engine.forward.calls_per_image": (tracing.total_count(spans, "engine.forward") / images, "count"),
        "engine.forward.us": (tracing.median_us(spans, "engine.forward"), "us"),
        "engine.forward_range.layer_evals_per_image": (tracing.total_count(spans, "engine.forward_range") / images, "count"),
        "engine.forward_range.us": (tracing.median_us(spans, "engine.forward_range"), "us"),
        "assessment.oracle_ms_per_image": (total_ms("engine.forward"), "ms"),
        "assessment.generator_ms_per_image": (total_ms("engine.forward_range"), "ms"),
        "assessment.project_feature_maps_ms_per_image": (total_ms("assessment.project_feature_maps"), "ms"),
        "assessment.kl_divergence_ms_per_image": (total_ms("assessment.kl_divergence"), "ms"),
    }
    for name in sorted({s["name"] for s in spans if s["name"].startswith("engine.layer.")}):
        out[name + ".us"] = (tracing.median_us(spans, name), "us")
    return out


PREDICT_STAGES = {"enclave.infer_encrypted_image", "engine.forward.back", "engine.top_k", "enclave.map_classes"}


def persistent_layer_metrics(daemon: list[dict], client: list[dict]) -> dict:
    out = {
        name + ".us": (tracing.median_us(daemon, name), "us")
        for name in ("enclave.infer_encrypted_image", "sealing.open_container.image",
                     "engine.forward_range.front", "engine.forward.back", "engine.top_k",
                     "enclave.map_classes", "sealing.seal.result")
    }
    predict = statistics.median(tracing.per_request_sum_us(daemon, PREDICT_STAGES))
    roundtrip = tracing.median_us(client, "client.roundtrip")
    out["server.predict.us"] = (predict, "us")
    out["client.roundtrip.us"] = (roundtrip, "us")
    out["client.wait.us"] = (roundtrip - predict, "us")
    out["client.seal.us"] = (tracing.median_us(client, "client.seal"), "us")
    out["client.open.us"] = (tracing.median_us(client, "client.open"), "us")
    return out


def connect_layer_metrics(daemon: list[dict], client: list[dict]) -> dict:
    out = {
        name + ".us": (tracing.median_us(daemon, name), "us")
        for name in ("enclave.enclave_create", "enclave.attest", "enclave.provision_keys",
                     "netdef.parse_network")
    }
    # A session splits where the image is sealed: everything after loading
    # the image and before sealing it is the handshake.
    by_request: dict[int, dict[str, dict]] = {}
    for s in client:
        by_request.setdefault(s["request"], {})[s["name"]] = s
    handshake, predict = [], []
    for parts in by_request.values():
        session, load, seal = parts["client.session"], parts["client.load_image"], parts["client.seal"]
        handshake.append((seal["start_ns"] - load["end_ns"]) / 1e3)
        predict.append((session["end_ns"] - seal["start_ns"]) / 1e3)
    out["client.handshake.us"] = (statistics.median(handshake), "us")
    out["client.predict.us"] = (statistics.median(predict), "us")
    return out


def boundary_bytes_per_request(ir, ctx: ServeContext) -> float:
    """Growth of an enclave session's boundary output per predict, on a
    session taken from an in-process deployment of the same artifacts."""
    from irshield.enclave import build_key_message

    keys = ctx.keys
    dep = ir.deploy(ctx.artifacts, k=inputs.K, root_key=keys["root"])
    session = dep.new_session()
    nonce = os.urandom(32)
    evidence = ir.attest(session, nonce, keys["root"])
    ir.provision_keys(session, build_key_message(keys["root"], evidence.measurement, nonce,
                                                 evidence.mac, keys["model"], keys["image"]))
    sealed = [ir.seal(p, keys["image"], "image") for p in ctx.plain]
    before = len(session.boundary_output())
    for j in range(BOUNDARY_PROBE_REQUESTS):
        ir_tensor = ir.infer_encrypted_image(session, sealed[j % len(sealed)])
        ir.map_classes(session, ir.top_k(ir.forward(dep.backnet, ir_tensor), inputs.K))
    return (len(session.boundary_output()) - before) / BOUNDARY_PROBE_REQUESTS


def daemon_growth(ctx: ServeContext, seed: int, out: Path) -> dict:
    """Daemon RSS growth per 1000 requests and per 1000 connections.

    Read on an untraced daemon, because a traced one also holds its spans.
    Each load first runs untimed for a while, so start-up allocations do not
    count.
    """
    out_metrics = {}
    side, _ = start_side("serve", seed, 0, out, 1)
    try:
        ctx.attach(side)
        for run, unit in ((run_persistent, "requests"), (run_connect, "connections")):
            run(ctx, MEMORY_WARMUP_S, _NoTracer())
            before = side.status_kb("VmRSS")
            phase = run(ctx, MEMORY_PROBE_S, _NoTracer())
            growth = (side.status_kb("VmRSS") - before) / (phase.attempted / 1000)
            out_metrics[f"server.rss_growth.kb_per_1k_{unit}"] = (growth, "kB")
    finally:
        side.close()
    return out_metrics


# -- runs -----------------------------------------------------------------------


def untraced_run(ir, reference, workload: str, seed: int, seconds: float, run_dir: Path, info: dict):
    assess = workload == "assess-plain17"
    ctx = AssessContext(ir, reference, seed) if assess else ServeContext(ir, reference, seed, run_dir)
    side, setup_s = start_side("assess" if assess else "serve", seed, 0, run_dir, SETUP_REPEATS)
    try:
        info["host_ref_ms"] = [host_reference_ms()]
        if assess:
            phase = run_assess(side, seconds, ctx)
        else:
            ctx.attach(side)
            run = run_persistent if workload == "serve-persistent" else run_connect
            phase = run(ctx, seconds, _NoTracer())
        peak_kb = side.status_kb("VmHWM")
    finally:
        side.close()
    info["host_ref_ms"].append(host_reference_ms())
    info["samples"] = len(phase.latencies)
    return phase, end_to_end(phase, setup_s, peak_kb)


def traced_run(ir, reference, workload: str, seed: int, seconds: float, run_dir: Path, info: dict):
    share = {w: seconds * (0.5 if w == workload else 0.25) for w in WORKLOADS}
    trace_dir = OUT / f"trace-{workload}-seed{seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    metrics = {}
    phases = {}
    info["host_ref_ms"] = [host_reference_ms()]

    ctx = AssessContext(ir, reference, seed)
    side, _ = start_side("assess", seed, 1, run_dir / "assess", 1)
    try:
        side.ask(cmd="layers", reps=LAYER_REPS)
        phases["assess-plain17"] = run_assess(side, share["assess-plain17"], ctx)
        side.ask(cmd="spans", path=str(trace_dir / "assess.json"))
    finally:
        side.close()
    metrics.update(assess_layer_metrics(tracing.load(trace_dir / "assess.json"),
                                        phases["assess-plain17"].attempted))

    tracer = tracing.Tracer()
    from irshield import client

    tracer.wrap(client, "load_image", "client.load_image")
    tracer.wrap(client, "seal", "client.seal")
    ctx = ServeContext(ir, reference, seed, run_dir)
    side, _ = start_side("serve", seed, 1, run_dir / "serve", 1)
    try:
        ctx.attach(side)
        setup = side.ready["setup_us"]
        for name in ("gen_fixture_model", "write_artifacts", "deploy"):
            metrics[f"setup.{name}.us"] = (setup[name], "us")
        for name, run in (("serve-persistent", run_persistent), ("serve-connect", run_connect)):
            phases[name] = run(ctx, share[name], tracer)
            side.ask(cmd="spans", path=str(trace_dir / f"{name}-daemon.json"))
            tracer.dump(trace_dir / f"{name}-client.json")
    finally:
        side.close()
    metrics.update(daemon_growth(ctx, seed, run_dir / "memory"))
    metrics.update(persistent_layer_metrics(tracing.load(trace_dir / "serve-persistent-daemon.json"),
                                            tracing.load(trace_dir / "serve-persistent-client.json")))
    metrics.update(connect_layer_metrics(tracing.load(trace_dir / "serve-connect-daemon.json"),
                                         tracing.load(trace_dir / "serve-connect-client.json")))
    metrics["enclave.boundary_log.bytes_per_request"] = (boundary_bytes_per_request(ir, ctx), "B")
    info["host_ref_ms"].append(host_reference_ms())
    primary = phases[workload]
    info["samples"] = len(primary.latencies)
    info["traced_latency_p50_ms"] = statistics.median(primary.latencies) * 1e3
    return primary, metrics


def _declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description="irshield benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ir = _import_program()
    reference = checks.load_reference(ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)

    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    run = traced_run if args.trace else untraced_run
    try:
        phase, metrics = run(ir, reference, args.workload, args.seed, args.seconds, run_dir, info)
    except CheckError as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        signal.alarm(0)

    declared = _declared_metrics(args.trace)
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"declared metrics not measured: {sorted(missing)}")
    print("perfbench " + json.dumps(info))
    print(json.dumps({
        "correct": True,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
