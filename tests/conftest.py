"""Shared spec builders and dense oracles for the test suite."""

import numpy as np
import pytest

from deepframe.archspec import parse_spec
from deepframe.framebuild import conv_operator_entries


def fc_spec(pattern, input_dim, widths, name=None):
    """A fully connected spec with the given connectivity pattern."""
    doc = {
        "input_dim": input_dim,
        "layers": [{"kind": "fully_connected", "width": w} for w in widths],
        "connectivity": pattern,
    }
    if name is not None:
        doc["name"] = name
    return parse_spec(doc)


def conv_spec(pattern, in_channels, spatial, widths, filt=3, stride=1, ndim=2,
              name=None):
    """A convolutional spec; channels chain from layer to layer."""
    layers = []
    prev = in_channels
    for w in widths:
        layers.append({"kind": "convolutional", "width": w, "channels": prev,
                       "spatial": spatial, "filter": filt, "stride": stride,
                       "ndim": ndim})
        prev = w
    doc = {"input_dim": in_channels * spatial ** ndim, "layers": layers,
           "connectivity": pattern}
    if name is not None:
        doc["name"] = name
    return parse_spec(doc)


def mixed_spec(pattern, input_dim, layers, spatial=4):
    """A spec mixing layer kinds: an int is a fully connected width, a
    (width, channels) pair a 3x3 convolutional layer on a spatial x
    spatial grid."""
    doc_layers = [
        {"kind": "fully_connected", "width": ly} if isinstance(ly, int) else
        {"kind": "convolutional", "width": ly[0], "channels": ly[1], "spatial": spatial,
         "filter": 3, "stride": 1, "ndim": 2}
        for ly in layers]
    return parse_spec({"input_dim": input_dim, "layers": doc_layers, "connectivity": pattern})


# frames of fully connected and convolutional layers: identities between
# the kinds, offset terms summed into dense pairs, dense blocks beside conv
MIXED = [
    mixed_spec("chain", 5, [32, (3, 2)]),
    mixed_spec("chain", 32, [(3, 2), 7]),
    mixed_spec("dense", 32, [(3, 2), 7]),
    mixed_spec("dense", 32, [(3, 2), (2, 3), 5]),
    mixed_spec("residual", 6, [32, (2, 2), (2, 2)]),
    mixed_spec({"custom": [[2, 0]]}, 32, [(3, 2), 48, (3, 3)]),
    # a conv coupling (2, 0) beside the dense block (2, 1) on one row group
    mixed_spec("dense", 32, [(3, 2), 48, (3, 3)]),
]
MIXED_IDS = ["fc-conv-chain", "conv-fc-chain", "conv-fc-dense", "conv-conv-fc-dense",
             "fc-conv-conv-residual", "conv-fc-conv-custom", "conv-fc-conv-dense"]


def random_specs(count, rng=None, max_depth=4, max_width=16):
    """A reproducible stream of varied small specs, cycling the patterns.

    Residual specs force the odd depth and the matching widths the
    pattern requires; everything else draws freely.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    out = []
    patterns = ["chain", "dense", "residual"]
    while len(out) < count:
        pattern = patterns[len(out) % len(patterns)]
        d = int(rng.integers(2, 9))
        if pattern == "residual":
            depth = int(rng.choice([1, 3])) if max_depth >= 3 else 1
            widths = [int(rng.integers(2, max_width + 1)) for _ in range(depth)]
            for j in range(2, depth):
                widths[j] = widths[j - 2]
        else:
            depth = int(rng.integers(1, max_depth + 1))
            widths = [int(rng.integers(2, max_width + 1)) for _ in range(depth)]
        out.append(fc_spec(pattern, d, widths))
    return out


def loop_conv_entries(channels, filters, spatial, filter_size, stride, ndim):
    """Reference index triplets of the conv matrix, one window at a time."""
    p, f, s = spatial, filter_size, stride
    q = -(-p // s)
    pad = (f - 1) // 2
    rows, cols, taps = [], [], []
    if ndim == 1:
        for c in range(filters):
            for t in range(q):
                col = c * q + t
                base = t * s - pad
                for ch in range(channels):
                    for fx in range(f):
                        x = base + fx
                        if 0 <= x < p:
                            rows.append(ch * p + x)
                            cols.append(col)
                            taps.append((c * channels + ch) * f + fx)
    else:
        for c in range(filters):
            for ty in range(q):
                for tx in range(q):
                    col = (c * q + ty) * q + tx
                    by = ty * s - pad
                    bx = tx * s - pad
                    for ch in range(channels):
                        for fy in range(f):
                            y = by + fy
                            if not 0 <= y < p:
                                continue
                            for fx in range(f):
                                x = bx + fx
                                if 0 <= x < p:
                                    rows.append((ch * p + y) * p + x)
                                    cols.append(col)
                                    taps.append(((c * channels + ch) * f + fy) * f + fx)
    shape = (channels * p ** ndim, filters * q ** ndim)
    return (np.asarray(rows, dtype=np.intp),
            np.asarray(cols, dtype=np.intp),
            np.asarray(taps, dtype=np.intp),
            shape)


def materialize_conv_operator(layer, filter_bank):
    """Dense synthesis matrix of a convolutional layer, from its index map.

    ``filter_bank`` has shape (width, channels, f) for 1-D layers or
    (width, channels, f, f) for 2-D ones. The result maps coefficient maps
    to the layer's input space; its transpose maps a signal to per-filter
    correlation maps.
    """
    expected = (layer.width, layer.channels) + (layer.filter_size,) * layer.ndim
    assert filter_bank.shape == expected
    rows, cols, taps, shape = conv_operator_entries(
        layer.channels, layer.width, layer.spatial, layer.filter_size,
        layer.stride, layer.ndim)
    mat = np.zeros(shape)
    mat[rows, cols] = filter_bank.reshape(-1)[taps]
    return mat


def column_block(frame, j):
    """The stacked placed blocks of column group j, as one dense matrix."""
    return np.vstack([np.asarray(frame.placed[(i, j)]) for i in frame.structure.rows_of[j]])


def gram_full(g):
    """The dense symmetric Gram matrix of a GramStructure's upper block triangle,
    each block read through ``np.asarray`` (a ConvGram gives its dense form).

    Column group sizes are read off the diagonal blocks, which every frame has.
    """
    dims = [g.blocks[(j, j)].shape[0] for j in range(1 + max(k for _, k in g.blocks))]
    offs = np.concatenate(([0], np.cumsum(dims))).astype(int)
    out = np.zeros((offs[-1], offs[-1]))
    for (j, k), blk in g.blocks.items():
        blk = np.asarray(blk)
        out[offs[j]:offs[j + 1], offs[k]:offs[k + 1]] = blk
        if j != k:
            out[offs[k]:offs[k + 1], offs[j]:offs[j + 1]] = blk.T
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
