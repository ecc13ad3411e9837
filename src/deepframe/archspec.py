"""Architecture descriptions for layered synthesis models.

A spec names an input dimension, an ordered list of layers (fully connected
or convolutional) and a connectivity pattern. The pattern decides which
blocks of the induced global operator carry parameters, which are fixed
identities, and how their shapes are derived. Block indices are 0-based
throughout: block (j, k) couples row group j with layer k's coefficients,
and only j >= k blocks exist (block lower triangular).

Patterns:

* ``chain``      -- learnable diagonal blocks, identity couplings on the
                    sub-diagonal. Row group j lives in layer j-1's output
                    space.
* ``residual``   -- a stem layer followed by alternating pairs; diagonal
                    blocks beyond the stem are identities, adjacent blocks
                    (j, j-1) are learnable, and identity skips sit at
                    (j, j-2) for even j >= 2. Requires an odd layer count
                    and matching widths two layers apart.
* ``dense``      -- identity diagonal beyond the stem, every strictly
                    lower block learnable.
* ``custom``     -- identity diagonal beyond the stem, learnable blocks at
                    an explicit list of strictly lower (j, k) pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

LAYER_KINDS = ("fully_connected", "convolutional")
NAMED_PATTERNS = ("chain", "residual", "dense")


class SpecError(ValueError):
    """A spec document failed validation.

    Carries the full list of diagnostics, one per violation, each prefixed
    with the JSON location it refers to.
    """

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("invalid spec:\n" + "\n".join("  - " + d for d in self.diagnostics))


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the architecture.

    ``width`` is the number of coefficient maps (filters) for convolutional
    layers and the plain coefficient count for fully connected ones. The
    conv fields follow the usual reading: ``channels`` input channels,
    ``spatial`` input grid side p, ``filter`` filter side f, ``stride`` s,
    ``ndim`` 1 or 2 (grid rank). Output grid side is q = ceil(p / s).
    """

    kind: str
    width: int
    channels: int | None = None
    spatial: int | None = None
    filter_size: int | None = None
    stride: int | None = None
    ndim: int | None = None

    @property
    def is_conv(self) -> bool:
        return self.kind == "convolutional"

    @property
    def grid_out(self) -> int:
        """Output grid side q = ceil(p / s) (conv layers only)."""
        if not self.is_conv:
            raise ValueError("grid_out is only defined for convolutional layers")
        return -(-self.spatial // self.stride)

    @property
    def code_dim(self) -> int:
        """Total coefficient count: width, times q^ndim for conv layers."""
        if self.is_conv:
            return self.width * self.grid_out ** self.ndim
        return self.width

    @property
    def input_dim(self) -> int:
        """Dimension of the space this layer's operator reconstructs."""
        if self.is_conv:
            return self.channels * self.spatial ** self.ndim
        raise ValueError("input_dim is only defined for convolutional layers")


@dataclass(frozen=True)
class ConnectivitySpec:
    """Connectivity pattern: a named pattern or an explicit block list."""

    kind: str
    pairs: tuple[tuple[int, int], ...] = ()

    @property
    def is_custom(self) -> bool:
        return self.kind == "custom"


@dataclass(frozen=True)
class ArchitectureSpec:
    """A validated architecture: input dimension, layers, connectivity."""

    input_dim: int
    layers: tuple[LayerSpec, ...]
    connectivity: ConnectivitySpec
    name: str | None = None

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def is_chain(self) -> bool:
        return self.connectivity.kind == "chain"

    def col_dim(self, j: int) -> int:
        """Coefficient count of layer j (a column group of the global frame)."""
        return self.layers[j].code_dim

    def row_dim(self, j: int) -> int:
        """Dimension of row group j of the global frame.

        Row 0 is paired with the input. For the chain pattern, row j
        reconstructs layer j-1's coefficients; for the skip family the
        diagonal is an identity on layer j's own coefficient space.
        """
        if j == 0:
            return self.input_dim
        if self.is_chain:
            return self.col_dim(j - 1)
        return self.col_dim(j)

    @property
    def col_dims(self) -> tuple[int, ...]:
        return tuple(self.col_dim(j) for j in range(self.depth))

    @property
    def row_dims(self) -> tuple[int, ...]:
        return tuple(self.row_dim(j) for j in range(self.depth))

    @property
    def total_rows(self) -> int:
        return sum(self.row_dims)

    @property
    def total_cols(self) -> int:
        return sum(self.col_dims)


@dataclass(frozen=True)
class BlockDef:
    """One block of the induced global operator.

    ``row``/``col`` are 0-based group indices, ``role`` is ``"learnable"``
    or ``"identity"``, ``form`` is ``"dense"`` or ``"conv"``. ``shape`` is
    the stored parameter shape for learnable blocks: the placed matrix for
    diagonal blocks, its transpose (without the sign) for off-diagonal
    blocks, or a filter bank ``(filters, channels, f[, f])`` for conv
    blocks. Off-diagonal blocks enter the global operator negated and
    transposed.
    """

    row: int
    col: int
    role: str
    form: str
    shape: tuple[int, ...]
    placed_shape: tuple[int, int]
    conv: dict[str, int] | None = None

    @property
    def is_diagonal(self) -> bool:
        return self.row == self.col


# ---------------------------------------------------------------------------
# validation


def _structural_pairs(spec_kind: str, pairs: Iterable[tuple[int, int]], depth: int):
    """Yield (j, k, role) for every block of the pattern, 0-based, j >= k."""
    out: list[tuple[int, int, str]] = []
    if spec_kind == "chain":
        for j in range(depth):
            out.append((j, j, "learnable"))
            if j >= 1:
                out.append((j, j - 1, "identity"))
        return out
    # skip family: stem diagonal learnable, later diagonals identity
    out.append((0, 0, "learnable"))
    for j in range(1, depth):
        out.append((j, j, "identity"))
    if spec_kind == "residual":
        for j in range(1, depth):
            out.append((j, j - 1, "learnable"))
        for j in range(2, depth, 2):
            out.append((j, j - 2, "identity"))
    elif spec_kind == "dense":
        for j in range(1, depth):
            for k in range(j):
                out.append((j, k, "learnable"))
    else:  # custom
        for j, k in pairs:
            out.append((j, k, "learnable"))
    return out


def _validate_layer(i: int, raw: Mapping[str, Any], errors: list[str]) -> LayerSpec | None:
    loc = f"layers[{i}]"
    if not isinstance(raw, Mapping):
        errors.append(f"{loc}: expected an object, got {type(raw).__name__}")
        return None
    kind = raw.get("kind")
    if kind not in LAYER_KINDS:
        errors.append(f"{loc}.kind: expected one of {LAYER_KINDS}, got {kind!r}")
        return None
    width = raw.get("width")
    ok = True
    if not isinstance(width, int) or isinstance(width, bool) or width <= 0:
        errors.append(f"{loc}.width: expected a positive integer, got {width!r}")
        ok = False

    conv_fields = ("channels", "spatial", "filter", "stride")
    if kind == "fully_connected":
        stray = [f for f in conv_fields + ("ndim",) if f in raw]
        if stray:
            errors.append(f"{loc}: fields {stray} are only valid for convolutional layers")
            ok = False
        extra = set(raw) - {"kind", "width"}
        extra -= set(conv_fields) | {"ndim"}
        if extra:
            errors.append(f"{loc}: unknown fields {sorted(extra)}")
            ok = False
        return LayerSpec(kind=kind, width=width) if ok else None

    vals: dict[str, int] = {}
    for f in conv_fields:
        v = raw.get(f)
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            errors.append(f"{loc}.{f}: expected a positive integer, got {v!r}")
            ok = False
        else:
            vals[f] = v
    ndim = raw.get("ndim", 2)
    if ndim not in (1, 2):
        errors.append(f"{loc}.ndim: expected 1 or 2, got {ndim!r}")
        ok = False
    extra = set(raw) - {"kind", "width"} - set(conv_fields) - {"ndim"}
    if extra:
        errors.append(f"{loc}: unknown fields {sorted(extra)}")
        ok = False
    if not ok:
        return None
    if vals["stride"] > vals["filter"]:
        errors.append(
            f"{loc}.stride: stride ({vals['stride']}) must not exceed "
            f"filter size ({vals['filter']})"
        )
        ok = False
    if vals["filter"] > vals["spatial"]:
        errors.append(
            f"{loc}.filter: filter size ({vals['filter']}) must not exceed "
            f"spatial size ({vals['spatial']})"
        )
        ok = False
    if not ok:
        return None
    return LayerSpec(
        kind=kind,
        width=width,
        channels=vals["channels"],
        spatial=vals["spatial"],
        filter_size=vals["filter"],
        stride=vals["stride"],
        ndim=ndim,
    )


def _validate_connectivity(raw: Any, depth: int, errors: list[str]) -> ConnectivitySpec | None:
    loc = "connectivity"
    if isinstance(raw, str):
        if raw not in NAMED_PATTERNS:
            errors.append(f"{loc}: unknown pattern {raw!r}; expected one of {NAMED_PATTERNS} or a custom mask")
            return None
        return ConnectivitySpec(kind=raw)
    if isinstance(raw, Mapping):
        if set(raw) != {"custom"}:
            errors.append(f"{loc}: a mask object must have exactly the key 'custom'")
            return None
        pairs_raw = raw["custom"]
        if not isinstance(pairs_raw, list):
            errors.append(f"{loc}.custom: expected a list of [j, k] pairs")
            return None
        pairs: list[tuple[int, int]] = []
        ok = True
        for n, item in enumerate(pairs_raw):
            ploc = f"{loc}.custom[{n}]"
            if (not isinstance(item, (list, tuple)) or len(item) != 2
                    or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)):
                errors.append(f"{ploc}: expected a pair of integers, got {item!r}")
                ok = False
                continue
            j, k = item
            if not (0 <= k < j < depth):
                errors.append(
                    f"{ploc}: block ({j}, {k}) must satisfy 0 <= k < j < {depth} "
                    f"(strictly lower triangular)"
                )
                ok = False
                continue
            if (j, k) in pairs:
                errors.append(f"{ploc}: duplicate block ({j}, {k})")
                ok = False
                continue
            pairs.append((j, k))
        if not ok:
            return None
        return ConnectivitySpec(kind="custom", pairs=tuple(sorted(pairs)))
    errors.append(f"{loc}: expected a pattern name or a custom mask object, got {type(raw).__name__}")
    return None


def _validate_structure(spec: ArchitectureSpec, errors: list[str]) -> None:
    """Cross-layer checks: geometry chaining and pattern constraints."""
    layers = spec.layers
    depth = spec.depth
    conv_layers = [i for i, ly in enumerate(layers) if ly.is_conv]

    spatials = {layers[i].spatial for i in conv_layers}
    ndims = {layers[i].ndim for i in conv_layers}
    if len(spatials) > 1:
        errors.append(
            f"layers: convolutional layers must share one spatial size, got {sorted(spatials)}"
        )
    if len(ndims) > 1:
        errors.append(f"layers: convolutional layers must share one grid rank, got {sorted(ndims)}")

    if depth > 1:
        for i in conv_layers:
            if layers[i].stride != 1:
                errors.append(
                    f"layers[{i}].stride: strided convolution changes the output grid; "
                    f"downsampling is out of scope, so multi-layer specs require stride 1"
                )

    # channel chaining: layer 0 must reconstruct the input, later conv layers
    # consume the preceding layer's maps
    for i in conv_layers:
        ly = layers[i]
        if i == 0:
            expect = ly.channels * ly.spatial ** ly.ndim
            if expect != spec.input_dim:
                errors.append(
                    f"layers[0]: channels * spatial^ndim = {expect} must equal "
                    f"input_dim = {spec.input_dim}"
                )
        else:
            prev = layers[i - 1]
            if prev.is_conv:
                if ly.channels != prev.width:
                    errors.append(
                        f"layers[{i}].channels: expected the preceding layer's width "
                        f"({prev.width}), got {ly.channels}"
                    )
            else:
                if ly.channels * ly.spatial ** ly.ndim != prev.width:
                    errors.append(
                        f"layers[{i}]: channels * spatial^ndim must equal the preceding "
                        f"fully connected width ({prev.width})"
                    )

    kind = spec.connectivity.kind
    if kind == "residual":
        if depth % 2 == 0:
            errors.append(
                f"connectivity: the residual pattern is a stem layer plus alternating "
                f"pairs, which needs an odd layer count; got {depth}"
            )
        else:
            for j in range(2, depth, 2):
                if spec.col_dim(j) != spec.col_dim(j - 2):
                    errors.append(
                        f"connectivity: residual identity skip ({j}, {j - 2}) needs "
                        f"matching coefficient counts, got {spec.col_dim(j)} vs "
                        f"{spec.col_dim(j - 2)}"
                    )


def parse_spec(doc: Mapping[str, Any] | str, name: str | None = None) -> ArchitectureSpec:
    """Parse and validate a spec document.

    Accepts a mapping or a JSON string. Raises :class:`SpecError` carrying
    one diagnostic per violation; the spec is returned only if fully valid.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise SpecError([f"document: not valid JSON ({e})"]) from e
    if not isinstance(doc, Mapping):
        raise SpecError([f"document: expected an object, got {type(doc).__name__}"])

    errors: list[str] = []
    known = {"input_dim", "layers", "connectivity", "name"}
    extra = set(doc) - known
    if extra:
        errors.append(f"document: unknown fields {sorted(extra)}")

    input_dim = doc.get("input_dim")
    if not isinstance(input_dim, int) or isinstance(input_dim, bool) or input_dim <= 0:
        errors.append(f"input_dim: expected a positive integer, got {input_dim!r}")
        input_dim = 1

    raw_layers = doc.get("layers")
    layers: list[LayerSpec] = []
    if not isinstance(raw_layers, list) or not raw_layers:
        errors.append("layers: expected a non-empty list")
    else:
        for i, raw in enumerate(raw_layers):
            ly = _validate_layer(i, raw, errors)
            if ly is not None:
                layers.append(ly)

    connectivity = None
    if "connectivity" not in doc:
        errors.append("connectivity: missing")
    elif len(layers) == (len(raw_layers) if isinstance(raw_layers, list) else 0):
        connectivity = _validate_connectivity(doc["connectivity"], len(layers), errors)

    spec_name = doc.get("name", name)
    if spec_name is not None and not isinstance(spec_name, str):
        errors.append(f"name: expected a string, got {spec_name!r}")
        spec_name = None

    if connectivity is not None and not errors:
        spec = ArchitectureSpec(
            input_dim=input_dim,
            layers=tuple(layers),
            connectivity=connectivity,
            name=spec_name,
        )
        _validate_structure(spec, errors)
        if not errors:
            return spec
    raise SpecError(errors)


def serialize_spec(spec: ArchitectureSpec) -> dict[str, Any]:
    """Inverse of :func:`parse_spec`: a JSON-ready document."""
    layers = []
    for ly in spec.layers:
        if ly.is_conv:
            layers.append({
                "kind": ly.kind,
                "width": ly.width,
                "channels": ly.channels,
                "spatial": ly.spatial,
                "filter": ly.filter_size,
                "stride": ly.stride,
                "ndim": ly.ndim,
            })
        else:
            layers.append({"kind": ly.kind, "width": ly.width})
    conn: Any
    if spec.connectivity.is_custom:
        conn = {"custom": [list(p) for p in spec.connectivity.pairs]}
    else:
        conn = spec.connectivity.kind
    doc: dict[str, Any] = {
        "input_dim": spec.input_dim,
        "layers": layers,
        "connectivity": conn,
    }
    if spec.name is not None:
        doc["name"] = spec.name
    return doc


def load_spec(path: str) -> ArchitectureSpec:
    """Read and validate a spec JSON file; the file stem names the spec."""
    import os

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_spec(text, name=stem)


# ---------------------------------------------------------------------------
# structure


def block_table(spec: ArchitectureSpec) -> list[BlockDef]:
    """Every block of the induced global operator, with shapes resolved.

    Off-diagonal learnable blocks between two convolutional layers are
    themselves convolution operators (filter size defaulting to the row
    layer's); any block touching a fully connected layer is dense.
    """
    out: list[BlockDef] = []
    for j, k, role in sorted(_structural_pairs(spec.connectivity.kind, spec.connectivity.pairs, spec.depth)):
        placed = (spec.row_dim(j), spec.col_dim(k))
        if role == "identity":
            if placed[0] != placed[1]:
                raise ValueError(f"identity block ({j}, {k}) is not square: {placed}")
            out.append(BlockDef(j, k, role, "dense", placed, placed))
            continue
        row_layer, col_layer = spec.layers[j], spec.layers[k]
        if row_layer.is_conv and col_layer.is_conv:
            # a coupling's channels are the column layer's filters; multi-layer
            # specs are validated to stride 1, so the row layer's stride holds
            channels = row_layer.channels if j == k else col_layer.width
            nd = row_layer.ndim
            shape = (row_layer.width, channels) + (row_layer.filter_size,) * nd
            conv = {
                "channels": channels,
                "filters": row_layer.width,
                "spatial": row_layer.spatial,
                "filter": row_layer.filter_size,
                "stride": row_layer.stride,
                "ndim": nd,
            }
            out.append(BlockDef(j, k, role, "conv", shape, placed, conv))
        else:
            # a diagonal block is stored as placed, an off-diagonal one
            # transposed: (col space of k) x (row space of j)
            out.append(BlockDef(j, k, role, "dense", placed if j == k else placed[::-1], placed))
    return out


def blocks_param_count(blocks) -> int:
    """Learnable scalar count of a block table; identity blocks contribute nothing."""
    return sum(math.prod(b.shape) for b in blocks if b.role == "learnable")


def param_count(spec: ArchitectureSpec) -> int:
    """Learnable scalar count of ``spec``'s block table."""
    return blocks_param_count(block_table(spec))


__all__ = [
    "ArchitectureSpec",
    "BlockDef",
    "ConnectivitySpec",
    "LayerSpec",
    "SpecError",
    "block_table",
    "load_spec",
    "param_count",
    "parse_spec",
    "serialize_spec",
]
