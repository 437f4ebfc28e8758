import json
import socket
import subprocess
import sys
import time

import pytest

from irshield.cli import build_parser, main
from irshield.engine import forward, top_k
from irshield.imageio import load_image
from irshield.netdef import parse_network
from irshield.sealing import SealedContainer

from conftest import GOLDEN_DIR, rewrite_artifact, seed_image, write_netpbm

MODEL_KEY_HEX = bytes(range(32)).hex()
IMG_KEY_HEX = bytes(range(32, 64)).hex()
ROOT_KEY_HEX = bytes(range(64, 96)).hex()


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("cli-models") / "plain17"
    assert main(["gen-fixture", "--arch", "plain17", "--seed", "42",
                 "--classes", "10", "--out-prefix", str(prefix)]) == 0
    return prefix.with_suffix(".cfg"), prefix.with_suffix(".weights")


@pytest.fixture(scope="module")
def image_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-images")
    for i in range(5):
        write_netpbm(seed_image((32, 32, 3), 700 + i), directory / f"img-{i}.ppm")
    return directory


def test_no_arguments_usage_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["decompile"])
    assert excinfo.value.code == 2


def test_gen_fixture_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-fixture", "--arch", "denseblock", "--seed", "7",
                 "--classes", "4", "--out-prefix", str(a)]) == 0
    assert main(["gen-fixture", "--arch", "denseblock", "--seed", "7",
                 "--classes", "4", "--out-prefix", str(b)]) == 0
    assert a.with_suffix(".cfg").read_bytes() == b.with_suffix(".cfg").read_bytes()
    assert a.with_suffix(".weights").read_bytes() == b.with_suffix(".weights").read_bytes()


def test_flops_to_stdout(model_files, capsys):
    cfg, _ = model_files
    assert main(["flops", "--model", str(cfg)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 17
    assert lines[-1].split("\t")[3] == "1.0"


def test_flops_to_file(model_files, tmp_path):
    cfg, _ = model_files
    out = tmp_path / "profile.tsv"
    assert main(["flops", "--model", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 17


def test_assess_writes_reports(model_files, image_dir, tmp_path, capsys):
    cfg, weights = model_files
    prefix = tmp_path / "report"
    code = main([
        "assess",
        "--model", str(cfg), "--weights", str(weights),
        "--oracle", str(cfg), "--oracle-weights", str(weights),
        "--images", str(image_dir),
        "--out-prefix", str(prefix),
    ])
    assert code == 0
    table = prefix.with_suffix(".txt").read_text()
    tsv = prefix.with_suffix(".tsv").read_text()
    assert "uniform baseline" in table
    assert len(tsv.strip().splitlines()) == 16
    assert "chosen cut" in capsys.readouterr().out


def test_assess_byte_stable(model_files, image_dir, tmp_path):
    cfg, weights = model_files
    outputs = []
    for name in ("r1", "r2"):
        prefix = tmp_path / name
        main([
            "assess",
            "--model", str(cfg), "--weights", str(weights),
            "--oracle", str(cfg), "--oracle-weights", str(weights),
            "--images", str(image_dir),
            "--out-prefix", str(prefix),
        ])
        outputs.append(prefix.with_suffix(".tsv").read_bytes())
    assert outputs[0] == outputs[1]


def test_assess_without_images_fails(model_files, tmp_path, capsys):
    cfg, weights = model_files
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main([
        "assess",
        "--model", str(cfg), "--weights", str(weights),
        "--oracle", str(cfg), "--oracle-weights", str(weights),
        "--images", str(empty),
        "--out-prefix", str(tmp_path / "r"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def labels_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-labels") / "labels.txt"
    path.write_text("\n".join(f"label-{i:02d}-subject-code-{i * 7:04d}" for i in range(10)) + "\n")
    return path


def test_partition_writes_artifacts(model_files, labels_file, tmp_path, capsys):
    cfg, weights = model_files
    out = tmp_path / "artifacts"
    code = main([
        "partition",
        "--model", str(cfg), "--weights", str(weights),
        "--cut", "4", "--labels", str(labels_file),
        "--model-key", MODEL_KEY_HEX,
        "--out", str(out), "--seed", "5",
    ])
    assert code == 0
    for name in ("manifest.txt", "frontnet.sealed", "labels.sealed",
                 "backnet.cfg", "backnet.weights", "partition.json"):
        assert (out / name).is_file()
    assert "cut 4" in capsys.readouterr().out


def test_partition_interior_denseblock_cut_fails(tmp_path, labels_file, capsys):
    prefix = tmp_path / "dense"
    main(["gen-fixture", "--arch", "denseblock", "--seed", "1",
          "--classes", "10", "--out-prefix", str(prefix)])
    code = main([
        "partition",
        "--model", str(prefix.with_suffix(".cfg")),
        "--weights", str(prefix.with_suffix(".weights")),
        "--cut", "4", "--labels", str(labels_file),
        "--model-key", MODEL_KEY_HEX,
        "--out", str(tmp_path / "artifacts"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "cut 4 crosses a route span" in err


def test_partition_deterministic_with_seed(model_files, labels_file, tmp_path):
    cfg, weights = model_files
    blobs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        main([
            "partition",
            "--model", str(cfg), "--weights", str(weights),
            "--cut", "8", "--labels", str(labels_file),
            "--model-key", MODEL_KEY_HEX,
            "--out", str(out), "--seed", "11",
        ])
        blobs.append((out / "frontnet.sealed").read_bytes())
    assert blobs[0] == blobs[1]


WALKTHROUGH_GOLDEN = GOLDEN_DIR / "walkthrough.json"


def run_walkthrough(demo):
    """The README walkthrough's offline steps, with the inputs CI gives them,
    in ``demo``; returns the text of each pinned output by its path there."""
    for name, seed in (("model", "42"), ("oracle", "2")):
        assert main(["gen-fixture", "--arch", "plain17", "--seed", seed, "--classes", "10",
                     "--out-prefix", str(demo / name)]) == 0
    images = demo / "images"
    images.mkdir()
    for k in (0, 1):
        raster = bytes((i * 7 + 91 * k) % 256 for i in range(3072))
        (images / f"img-{k}.ppm").write_bytes(b"P6 32 32 255\n" + raster)
    assert main(["assess", "--model", str(demo / "model.cfg"),
                 "--weights", str(demo / "model.weights"),
                 "--oracle", str(demo / "oracle.cfg"),
                 "--oracle-weights", str(demo / "oracle.weights"),
                 "--images", str(images), "--out-prefix", str(demo / "report")]) == 0
    (demo / "labels.txt").write_text("".join(f"class-{i}\n" for i in range(10)))
    assert main(["partition", "--model", str(demo / "model.cfg"),
                 "--weights", str(demo / "model.weights"), "--cut", "12",
                 "--labels", str(demo / "labels.txt"), "--model-key", MODEL_KEY_HEX,
                 "--seed", "5", "--out", str(demo / "artifacts")]) == 0
    return {name: (demo / name).read_text()
            for name in ("report.tsv", "report.txt", "artifacts/manifest.txt")}


def test_walkthrough_outputs_match_golden(tmp_path):
    # CLI assess and partition --seed output, pinned byte for byte across commits
    assert run_walkthrough(tmp_path) == json.loads(WALKTHROUGH_GOLDEN.read_text())


def test_partition_seed_nonce_depends_on_cut(model_files, labels_file, tmp_path):
    # one model key and seed at two cuts seal two front halves: they must not share a nonce
    cfg, weights = model_files
    nonces = []
    for cut in ("4", "8"):
        out = tmp_path / f"cut{cut}"
        assert main([
            "partition",
            "--model", str(cfg), "--weights", str(weights),
            "--cut", cut, "--labels", str(labels_file),
            "--model-key", MODEL_KEY_HEX,
            "--out", str(out), "--seed", "5",
        ]) == 0
        nonces.append(SealedContainer.decode((out / "frontnet.sealed").read_bytes()).nonce)
    assert nonces[0] != nonces[1]


def test_bad_key_usage_error(model_files, labels_file, tmp_path):
    cfg, weights = model_files
    with pytest.raises(SystemExit) as excinfo:
        main([
            "partition",
            "--model", str(cfg), "--weights", str(weights),
            "--cut", "4", "--labels", str(labels_file),
            "--model-key", "zz",
            "--out", str(tmp_path / "x"),
        ])
    assert excinfo.value.code == 2


ROOT_KEY_ARGS = {
    "serve": ["serve", "--dir", "no-such-artifacts"],
    "predict": ["predict", "--server", "127.0.0.1:1", "--image", "no-such.ppm",
                "--model-key", MODEL_KEY_HEX, "--img-key", IMG_KEY_HEX],
}


def test_root_key_from_environment(model_files, labels_file, tmp_path, monkeypatch):
    # serve and predict take IRSHIELD_ROOT_KEY when --root-key is absent
    import irshield.cli as cli_mod

    cfg, weights = model_files
    artifacts = tmp_path / "artifacts"
    assert main(["partition", "--model", str(cfg), "--weights", str(weights), "--cut", "4",
                 "--labels", str(labels_file), "--model-key", MODEL_KEY_HEX,
                 "--out", str(artifacts)]) == 0
    seen = []

    def fake_predict(*args, root_key, **kwargs):
        seen.append(root_key)
        return []

    class FakeServer:
        def __init__(self, addr, dep):
            seen.append(dep.root_key)

        def run_forever(self):
            pass

    monkeypatch.setattr(cli_mod, "Server", FakeServer)
    monkeypatch.setattr(cli_mod, "client_predict", fake_predict)
    serve_args = ["serve", "--dir", str(artifacts)]
    monkeypatch.setenv("IRSHIELD_ROOT_KEY", ROOT_KEY_HEX)
    assert main(serve_args) == 0
    assert main(ROOT_KEY_ARGS["predict"]) == 0
    assert seen == [bytes.fromhex(ROOT_KEY_HEX)] * 2
    # the flag wins over the environment
    monkeypatch.setenv("IRSHIELD_ROOT_KEY", MODEL_KEY_HEX)
    assert main(serve_args + ["--root-key", ROOT_KEY_HEX]) == 0
    assert main(ROOT_KEY_ARGS["predict"] + ["--root-key", ROOT_KEY_HEX]) == 0
    assert seen == [bytes.fromhex(ROOT_KEY_HEX)] * 4


def test_serve_refuses_a_record_without_cut(model_files, labels_file, tmp_path, monkeypatch,
                                           capsys):
    import irshield.cli as cli_mod

    cfg, weights = model_files
    artifacts = tmp_path / "artifacts"
    assert main(["partition", "--model", str(cfg), "--weights", str(weights), "--cut", "4",
                 "--labels", str(labels_file), "--model-key", MODEL_KEY_HEX,
                 "--out", str(artifacts)]) == 0
    meta = json.loads((artifacts / "partition.json").read_text())
    del meta["cut"]
    rewrite_artifact(artifacts, "partition.json", json.dumps(meta).encode())
    capsys.readouterr()
    monkeypatch.setattr(cli_mod, "Server", None)  # deploying must fail before any server
    assert main(["serve", "--dir", str(artifacts), "--root-key", ROOT_KEY_HEX]) == 1
    err = capsys.readouterr().err
    assert err.startswith("irshield: error: partition.json") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["serve", "predict"])
@pytest.mark.parametrize("env, flag", [
    (None, None), ("zz" * 32, None), (ROOT_KEY_HEX[:-2], None), ("", None),
    (None, "zz"), (ROOT_KEY_HEX, ROOT_KEY_HEX + "00"),
])
def test_root_key_missing_or_bad_is_a_usage_error(command, env, flag, monkeypatch, capsys):
    # exit 2 comes before anything loads: neither the directory nor the image exists
    if env is None:
        monkeypatch.delenv("IRSHIELD_ROOT_KEY", raising=False)
    else:
        monkeypatch.setenv("IRSHIELD_ROOT_KEY", env)
    argv = ROOT_KEY_ARGS[command] + ([] if flag is None else ["--root-key", flag])
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--root-key" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("serve", "--listen"), ("predict", "--server")])
def test_port_above_65535_is_a_usage_error(command, flag, capsys):
    # exit 2 comes before anything loads: neither the directory nor the image exists
    argv = ROOT_KEY_ARGS[command] + ["--root-key", ROOT_KEY_HEX, flag]
    for port in ("65536", "70000", "99999"):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [f"127.0.0.1:{port}"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
    args = build_parser().parse_args(argv + ["127.0.0.1:65535"])
    assert getattr(args, flag[2:]) == ("127.0.0.1", 65535)


class TestSealOpenCli:
    def test_round_trip(self, tmp_path):
        src = tmp_path / "payload.bin"
        src.write_bytes(b"some tensor bytes")
        sealed = tmp_path / "payload.sealed"
        out = tmp_path / "payload.out"
        assert main(["seal", "--key", IMG_KEY_HEX, "--type", "image",
                     "--in", str(src), "--out", str(sealed)]) == 0
        assert main(["open", "--key", IMG_KEY_HEX, "--in", str(sealed),
                     "--out", str(out), "--expect-type", "image"]) == 0
        assert out.read_bytes() == b"some tensor bytes"

    def test_seed_pins_nonce(self, tmp_path):
        src = tmp_path / "p.bin"
        src.write_bytes(b"payload")
        a, b = tmp_path / "a.sealed", tmp_path / "b.sealed"
        for out in (a, b):
            main(["seal", "--key", IMG_KEY_HEX, "--type", "labels",
                  "--in", str(src), "--out", str(out), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_nonce_depends_on_content(self, tmp_path):
        nonces = []
        for name, data in (("x", b"first payload"), ("y", b"other payload")):
            src, out = tmp_path / f"{name}.bin", tmp_path / f"{name}.sealed"
            src.write_bytes(data)
            assert main(["seal", "--key", IMG_KEY_HEX, "--type", "labels",
                         "--in", str(src), "--out", str(out), "--seed", "5"]) == 0
            nonces.append(SealedContainer.decode(out.read_bytes()).nonce)
        assert nonces[0] != nonces[1]

    def test_wrong_key_exit_1(self, tmp_path, capsys):
        src = tmp_path / "p.bin"
        src.write_bytes(b"payload")
        sealed = tmp_path / "p.sealed"
        main(["seal", "--key", IMG_KEY_HEX, "--type", "image",
              "--in", str(src), "--out", str(sealed)])
        code = main(["open", "--key", MODEL_KEY_HEX, "--in", str(sealed),
                     "--out", str(tmp_path / "p.out")])
        assert code == 1
        assert "authentication failed" in capsys.readouterr().err

    def test_type_expectation_enforced(self, tmp_path, capsys):
        src = tmp_path / "p.bin"
        src.write_bytes(b"payload")
        sealed = tmp_path / "p.sealed"
        main(["seal", "--key", IMG_KEY_HEX, "--type", "image",
              "--in", str(src), "--out", str(sealed)])
        code = main(["open", "--key", IMG_KEY_HEX, "--in", str(sealed),
                     "--out", str(tmp_path / "p.out"), "--expect-type", "result"])
        assert code == 1
        assert capsys.readouterr().err == "irshield: error: container holds image, expected result\n"
        assert not (tmp_path / "p.out").exists()


def free_port():
    with socket.create_server(("127.0.0.1", 0)) as sock:
        return sock.getsockname()[1]


def wait_for_port(port, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"daemon never listened on port {port}")


def test_predict_with_a_manifest_lacking_labels_fails_cleanly(image_dir, tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"frontnet.sealed\t{'ab' * 32}\n")
    code = main([
        "predict",
        "--server", "127.0.0.1:1",
        "--image", str(sorted(image_dir.iterdir())[0]),
        "--model-key", MODEL_KEY_HEX,
        "--img-key", IMG_KEY_HEX,
        "--root-key", ROOT_KEY_HEX,
        "--manifest", str(manifest),
    ])
    assert code == 1
    assert "manifest lacks an entry for labels.sealed" in capsys.readouterr().err


def test_serve_and_predict_end_to_end(model_files, labels_file, image_dir, tmp_path, capsys):
    cfg, weights = model_files
    artifacts = tmp_path / "artifacts"
    assert main([
        "partition",
        "--model", str(cfg), "--weights", str(weights),
        "--cut", "4", "--labels", str(labels_file),
        "--model-key", MODEL_KEY_HEX,
        "--out", str(artifacts),
    ]) == 0
    capsys.readouterr()

    port = free_port()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "irshield.cli", "serve",
         "--dir", str(artifacts), "--listen", f"127.0.0.1:{port}",
         "--k", "3", "--root-key", ROOT_KEY_HEX],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        wait_for_port(port)
        image_path = sorted(image_dir.iterdir())[0]
        code = main([
            "predict",
            "--server", f"127.0.0.1:{port}",
            "--image", str(image_path),
            "--model-key", MODEL_KEY_HEX,
            "--img-key", IMG_KEY_HEX,
            "--root-key", ROOT_KEY_HEX,
            "--manifest", str(artifacts / "manifest.txt"),
        ])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
    finally:
        daemon.terminate()
        daemon.communicate(timeout=10)

    net = parse_network(cfg.read_text(), weights.read_bytes())
    labels = labels_file.read_text().splitlines()
    want = [(labels[i - 1], s) for i, s in top_k(forward(net, load_image(image_path)), 3)]
    got = [(line.split("\t")[0], float(line.split("\t")[1])) for line in out_lines]
    assert got == want
