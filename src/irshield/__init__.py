"""irshield: confidentiality-aware ConvNet partitioning and serving.

The package splits a ConvNet into a sealed front model that runs inside a
simulated trusted enclave and a plaintext back model that runs on the host,
scores candidate cut layers with a divergence-based assessment, accounts
per-layer FLOP workloads, and serves predictions over a small binary
protocol in which images, labels, and results only ever cross the trust
boundary inside authenticated-encryption containers.
"""

import importlib

# Every public name, by the module that defines it. Each loads on first use,
# so a process that only assesses never imports sockets or key handling.
_EXPORTS = {
    "tensor": ("Tensor",),
    "netdef": ("LayerSpec", "NetworkDef", "parse_config", "parse_network", "serialize_network",
               "valid_partition_points"),
    "engine": ("forward", "forward_range", "top_k"),
    "fixtures": ("gen_fixture_model",),
    "assessment": ("AssessmentReport", "LayerKLStats", "assess_layer", "assess_model",
                   "choose_partition", "kl_divergence", "project_feature_maps", "report_table",
                   "report_tsv", "uniform_baseline"),
    "workload": ("FlopProfile", "flop_profile", "frontnet_fraction", "profile_tsv"),
    "sealing": ("SealedContainer", "open_container", "seal"),
    "partition": ("PartitionArtifacts", "load_artifacts", "split_network", "write_artifacts"),
    "enclave": ("AttestationEvidence", "EnclaveSession", "attest", "enclave_create",
                "infer_encrypted_image", "map_classes", "provision_keys"),
    "server": ("Deployment", "Server", "deploy", "handle_predict"),
    "client": ("client_predict",),
    "errors": ("IrshieldError", "ConfigError", "ShapeError", "WeightsError", "PartitionError",
               "AuthError", "StateError", "ProtocolError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]
