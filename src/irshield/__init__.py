"""irshield: confidentiality-aware ConvNet partitioning and serving.

The package splits a ConvNet into a sealed front model that runs inside a
simulated trusted enclave and a plaintext back model that runs on the host,
scores candidate cut layers with a divergence-based assessment, accounts
per-layer FLOP workloads, and serves predictions over a small binary
protocol in which images, labels, and results only ever cross the trust
boundary inside authenticated-encryption containers.
"""

from .tensor import Tensor
from .netdef import (
    LayerSpec,
    NetworkDef,
    parse_config,
    parse_network,
    serialize_network,
)
from .engine import forward, forward_batch, forward_range, top_k
from .fixtures import gen_fixture_model
from .assessment import (
    AssessmentReport,
    LayerKLStats,
    assess_layer,
    assess_model,
    choose_partition,
    epsilon_ratio,
    kl_divergence,
    project_feature_maps,
    report_table,
    report_tsv,
    uniform_baseline,
    valid_partition_points,
)
from .workload import FlopProfile, flop_profile, frontnet_fraction, layer_flops, profile_tsv
from .sealing import SealedContainer, open_container, seal
from .partition import (
    PartitionArtifacts,
    load_artifacts,
    split_network,
    write_artifacts,
)
from .enclave import (
    AttestationEvidence,
    EnclaveSession,
    attest,
    enclave_create,
    infer_encrypted_image,
    map_classes,
    provision_keys,
)
from .server import Deployment, Server, deploy, handle_predict, serve
from .client import client_predict
from .errors import (
    AuthError,
    ConfigError,
    IrshieldError,
    PartitionError,
    ProtocolError,
    ShapeError,
    StateError,
    WeightsError,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "LayerSpec",
    "NetworkDef",
    "parse_config",
    "parse_network",
    "serialize_network",
    "forward",
    "forward_batch",
    "forward_range",
    "top_k",
    "gen_fixture_model",
    "AssessmentReport",
    "LayerKLStats",
    "assess_layer",
    "assess_model",
    "choose_partition",
    "epsilon_ratio",
    "kl_divergence",
    "project_feature_maps",
    "report_table",
    "report_tsv",
    "uniform_baseline",
    "valid_partition_points",
    "FlopProfile",
    "flop_profile",
    "frontnet_fraction",
    "layer_flops",
    "profile_tsv",
    "SealedContainer",
    "open_container",
    "seal",
    "PartitionArtifacts",
    "load_artifacts",
    "split_network",
    "write_artifacts",
    "AttestationEvidence",
    "EnclaveSession",
    "attest",
    "enclave_create",
    "infer_encrypted_image",
    "map_classes",
    "provision_keys",
    "Deployment",
    "Server",
    "deploy",
    "handle_predict",
    "serve",
    "client_predict",
    "IrshieldError",
    "ConfigError",
    "ShapeError",
    "WeightsError",
    "PartitionError",
    "AuthError",
    "StateError",
    "ProtocolError",
    "__version__",
]
