"""Per-layer floating-point operation counts and cumulative workload curves.

One multiply-accumulate counts as two FLOPs. A convolution additionally
pays one add per output element for its bias and two ops per output element
when batch normalization is enabled; activations are not counted. Route and
softmax layers are costed as element moves (one per output element) and
five ops per class respectively, so cumulative curves stay strictly
increasing across every real topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .netdef import LayerSpec, NetworkDef

__all__ = ["FlopProfile", "flop_profile", "frontnet_fraction", "profile_tsv"]

SOFTMAX_OPS_PER_CLASS = 5
ROUTE_OPS_PER_ELEMENT = 1


@dataclass(frozen=True)
class FlopProfile:
    kinds: tuple[str, ...]
    per_layer: tuple[int, ...]
    cumulative: tuple[float, ...]  # prefix sums / total, non-decreasing, ends at 1.0
    total: int


def _cost(layer: LayerSpec, in_shape: tuple[int, int, int], out_shape: tuple[int, int, int]) -> int:
    n_in = in_shape[0] * in_shape[1] * in_shape[2]
    n_out = out_shape[0] * out_shape[1] * out_shape[2]
    if layer.kind == "convolutional":
        flops = 2 * layer.size * layer.size * in_shape[2] * n_out
        if layer.bias:
            flops += n_out
        if layer.batch_normalize:
            flops += 2 * n_out
        return flops
    if layer.kind == "connected":
        return 2 * n_in * n_out
    if layer.kind == "maxpool" or (layer.kind == "avgpool" and layer.size):
        return n_out * layer.size * layer.size
    if layer.kind == "avgpool":  # global: one window covering the input
        return n_in
    if layer.kind == "route":
        # output volume equals the concatenated source volumes; cost is the move
        return ROUTE_OPS_PER_ELEMENT * n_out
    return SOFTMAX_OPS_PER_CLASS * n_in  # softmax; NetworkDef refuses other kinds


def flop_profile(net: NetworkDef) -> FlopProfile:
    """Cost every layer and build the normalized cumulative curve."""
    counts = [
        _cost(layer, in_shape, out_shape)
        for layer, in_shape, out_shape in zip(
            net.layers, net.layer_input_shapes, net.layer_output_shapes
        )
    ]
    total = sum(counts)
    return FlopProfile(
        kinds=tuple(layer.kind for layer in net.layers),
        per_layer=tuple(counts),
        # int / int is correctly rounded: the nearest float to the exact ratio
        cumulative=tuple(running / total for running in accumulate(counts)),
        total=total,
    )


def frontnet_fraction(profile: FlopProfile, cut: int) -> float:
    """Share of the whole workload spent in layers 1..cut."""
    n = len(profile.per_layer)
    if not (1 <= cut < n):
        raise ValueError(f"cut must be in [1, {n - 1}], got {cut}")
    return profile.cumulative[cut - 1]


def profile_tsv(profile: FlopProfile) -> str:
    """Tab-separated rendering: layer, kind, flops, cumulative_fraction."""
    lines = [
        f"{i}\t{kind}\t{flops}\t{repr(cum)}"
        for i, (kind, flops, cum) in enumerate(
            zip(profile.kinds, profile.per_layer, profile.cumulative), start=1
        )
    ]
    return "\n".join(lines) + "\n"
