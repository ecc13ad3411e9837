"""Spec parsing, validation, serialization, block layout."""

import json

import pytest
from hypothesis import given, strategies as st

from deepframe.archspec import (
    SpecError,
    block_table,
    load_spec,
    param_count,
    parse_spec,
    serialize_spec,
)

from conftest import conv_spec, fc_spec


def test_parse_minimal_chain():
    spec = fc_spec("chain", 4, [6, 5])
    assert spec.depth == 2
    assert spec.input_dim == 4
    assert spec.col_dims == (6, 5)
    assert spec.row_dims == (4, 6)
    assert spec.is_chain


def test_row_dims_skip_family():
    spec = fc_spec("dense", 4, [6, 5, 3])
    # skip-family diagonals are identities on each layer's own codes
    assert spec.row_dims == (4, 5, 3)


def test_parse_rejects_junk_and_accumulates():
    with pytest.raises(SpecError) as exc:
        parse_spec({"input_dim": 0,
                    "layers": [{"kind": "fully_connected", "width": -3},
                               {"kind": "pooling", "width": 2}],
                    "connectivity": "chain"})
    msg = str(exc.value)
    assert "input_dim" in msg
    assert "layers[0].width" in msg
    assert "layers[1].kind" in msg


def test_parse_rejects_unknown_pattern():
    with pytest.raises(SpecError, match="ladder"):
        parse_spec({"input_dim": 2,
                    "layers": [{"kind": "fully_connected", "width": 3}],
                    "connectivity": "ladder"})


def test_parse_rejects_unknown_keys():
    with pytest.raises(SpecError, match="unknown"):
        parse_spec({"input_dim": 2,
                    "layers": [{"kind": "fully_connected", "width": 3}],
                    "connectivity": "chain", "epochs": 10})


def test_residual_needs_odd_depth():
    with pytest.raises(SpecError, match="odd layer count"):
        fc_spec("residual", 4, [6, 6])


def test_residual_needs_matching_skip_widths():
    with pytest.raises(SpecError, match=r"\(2, 0\)"):
        fc_spec("residual", 4, [6, 5, 7])


def test_conv_layer_zero_must_cover_input():
    with pytest.raises(SpecError, match="input_dim"):
        parse_spec({"input_dim": 99,
                    "layers": [{"kind": "convolutional", "width": 3, "channels": 2,
                                "spatial": 4, "filter": 3, "stride": 1, "ndim": 2}],
                    "connectivity": "chain"})


def test_conv_channel_chaining_enforced():
    with pytest.raises(SpecError, match="preceding layer's width"):
        parse_spec({"input_dim": 18,
                    "layers": [{"kind": "convolutional", "width": 4, "channels": 2,
                                "spatial": 3, "filter": 3, "stride": 1, "ndim": 2},
                               {"kind": "convolutional", "width": 3, "channels": 5,
                                "spatial": 3, "filter": 3, "stride": 1, "ndim": 2}],
                    "connectivity": "chain"})


def test_multilayer_conv_requires_stride_one():
    with pytest.raises(SpecError, match="stride"):
        conv_spec("chain", 2, 4, [3, 3], stride=2)


def test_single_layer_conv_may_stride():
    spec = conv_spec("chain", 1, 4, [10], filt=3, stride=2, ndim=2)
    # 4x4 grid, stride 2 -> 2x2 output grid per filter
    assert spec.row_dims == (16,)
    assert spec.col_dims == (40,)


def test_custom_mask_round_trip():
    doc = {"input_dim": 3,
           "layers": [{"kind": "fully_connected", "width": 4} for _ in range(3)],
           "connectivity": {"custom": [[1, 0], [2, 0]]}}
    spec = parse_spec(doc)
    assert spec.connectivity.is_custom
    assert spec.connectivity.pairs == ((1, 0), (2, 0))
    again = parse_spec(serialize_spec(spec))
    assert again == spec


def test_custom_mask_rejects_upper_triangle_and_duplicates():
    base = {"input_dim": 3,
            "layers": [{"kind": "fully_connected", "width": 4} for _ in range(3)]}
    with pytest.raises(SpecError, match="strictly lower"):
        parse_spec({**base, "connectivity": {"custom": [[0, 1]]}})
    with pytest.raises(SpecError, match="duplicate"):
        parse_spec({**base, "connectivity": {"custom": [[1, 0], [1, 0]]}})


@pytest.mark.parametrize("pattern", ["chain", "dense"])
def test_serialize_round_trip(pattern):
    spec = fc_spec(pattern, 5, [7, 6, 4], name="probe")
    assert parse_spec(serialize_spec(spec)) == spec


def test_serialize_round_trip_conv():
    spec = conv_spec("chain", 2, 5, [4, 3], name="conv")
    assert parse_spec(serialize_spec(spec)) == spec


@given(st.integers(1, 8), st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.sampled_from(["chain", "dense"]))
def test_round_trip_property(d, widths, pattern):
    spec = fc_spec(pattern, d, widths)
    assert parse_spec(serialize_spec(spec)) == spec


def test_load_spec_names_by_stem(tmp_path):
    path = tmp_path / "my_arch.json"
    path.write_text(json.dumps({
        "input_dim": 2,
        "layers": [{"kind": "fully_connected", "width": 3}],
        "connectivity": "chain"}))
    assert load_spec(path).name == "my_arch"


def test_load_spec_explicit_name_wins(tmp_path):
    path = tmp_path / "file.json"
    path.write_text(json.dumps({
        "input_dim": 2, "name": "real_name",
        "layers": [{"kind": "fully_connected", "width": 3}],
        "connectivity": "chain"}))
    assert load_spec(path).name == "real_name"


def test_load_spec_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(SpecError):
        load_spec(path)


# --- parameter counting -----------------------------------------------------


def test_param_count_chain_by_hand():
    spec = fc_spec("chain", 4, [8, 6])
    assert param_count(spec) == 8 * 4 + 6 * 8


def test_param_count_dense_by_hand():
    # learnable: (0,0) 4x8, plus every coupling (j,k) with w_k * w_j entries
    spec = fc_spec("dense", 4, [8, 6, 5])
    assert param_count(spec) == 32 + 8 * 6 + 8 * 5 + 6 * 5


def test_param_count_residual_by_hand():
    spec = fc_spec("residual", 4, [8, 6, 8])
    # stem 4x8, couplings (1,0): 8*6, (2,1): 6*8; identities are free
    assert param_count(spec) == 32 + 48 + 48


def test_param_count_conv_is_spatial_independent():
    a = conv_spec("chain", 2, 3, [4, 4])
    b = conv_spec("chain", 2, 6, [4, 4])
    assert param_count(a) == param_count(b) == 4 * 2 * 9 + 4 * 4 * 9


# --- block layout -----------------------------------------------------------


def test_block_table_chain_layout():
    spec = fc_spec("chain", 4, [8, 6, 5])
    blocks = {(b.row, b.col): b for b in block_table(spec)}
    assert blocks[(0, 0)].role == "learnable"
    assert blocks[(1, 0)].role == "identity"
    assert blocks[(2, 1)].role == "identity"
    assert blocks[(1, 1)].placed_shape == (8, 6)
    assert (2, 0) not in blocks


def test_block_table_residual_layout():
    spec = fc_spec("residual", 4, [8, 6, 8])
    blocks = {(b.row, b.col): b for b in block_table(spec)}
    roles = {k: v.role for k, v in blocks.items()}
    assert roles == {(0, 0): "learnable", (1, 1): "identity", (2, 2): "identity",
                     (1, 0): "learnable", (2, 1): "learnable", (2, 0): "identity"}


def test_block_table_offdiag_stores_transposed():
    spec = fc_spec("dense", 4, [8, 6])
    blk = {(b.row, b.col): b for b in block_table(spec)}[(1, 0)]
    assert blk.placed_shape == (6, 8)
    assert blk.shape == (8, 6)


def test_block_table_conv_metadata():
    spec = conv_spec("chain", 2, 5, [4, 3])
    blk = {(b.row, b.col): b for b in block_table(spec)}[(1, 1)]
    assert blk.form == "conv"
    assert blk.conv == {"channels": 4, "filters": 3, "spatial": 5,
                        "filter": 3, "stride": 1, "ndim": 2}
    assert blk.shape == (3, 4, 3, 3)


# --- refusals -----------------------------------------------------------------


def fc(width=4, **extra):
    return {"kind": "fully_connected", "width": width, **extra}


def conv(width=3, channels=2, spatial=4, filt=3, stride=1, ndim=2, **extra):
    return {"kind": "convolutional", "width": width, "channels": channels, "spatial": spatial,
            "filter": filt, "stride": stride, "ndim": ndim, **extra}


def doc(layers, connectivity="chain", input_dim=32, **extra):
    return {"input_dim": input_dim, "layers": layers, "connectivity": connectivity, **extra}


def fc3(connectivity):
    return doc([fc(), fc(), fc()], connectivity, input_dim=3)


# malformed documents with every diagnostic parse_spec gives them, in order
REFUSALS = [
    ("invalid-json", '{"input_dim": 2,',
     ["document: not valid JSON (Expecting property name enclosed in double quotes: "
      "line 1 column 17 (char 16))"]),
    ("document-not-object", "[1, 2, 3]",
     ["document: expected an object, got list"]),
    ("unknown-top-field", doc([fc()], epochs=10),
     ["document: unknown fields ['epochs']"]),
    ("input-dim-bool", doc([fc()], input_dim=True),
     ["input_dim: expected a positive integer, got True"]),
    ("input-dim-zero-and-bad-width", doc([fc(-3)], input_dim=0),
     ["input_dim: expected a positive integer, got 0",
      "layers[0].width: expected a positive integer, got -3"]),
    ("layers-missing", {"input_dim": 3, "connectivity": "chain"},
     ["layers: expected a non-empty list"]),
    ("layers-empty", doc([]),
     ["layers: expected a non-empty list"]),
    ("layers-not-list", doc({"0": fc()}),
     ["layers: expected a non-empty list"]),
    ("connectivity-missing", {"input_dim": 3, "layers": [fc()]},
     ["connectivity: missing"]),
    ("name-not-string", doc([fc()], name=3),
     ["name: expected a string, got 3"]),
    ("layer-not-object", doc([fc(), 3]),
     ["layers[1]: expected an object, got int"]),
    ("layer-bad-kind", doc([{"kind": "pooling", "width": 2}]),
     ["layers[0].kind: expected one of ('fully_connected', 'convolutional'), got 'pooling'"]),
    ("layer-no-kind", doc([{"width": 2}]),
     ["layers[0].kind: expected one of ('fully_connected', 'convolutional'), got None"]),
    ("fc-width-float", doc([fc(2.0)]),
     ["layers[0].width: expected a positive integer, got 2.0"]),
    ("fc-width-true", doc([fc(True)]),
     ["layers[0].width: expected a positive integer, got True"]),
    ("fc-width-missing", doc([{"kind": "fully_connected"}]),
     ["layers[0].width: expected a positive integer, got None"]),
    ("fc-conv-fields", doc([fc(ndim=2, channels=1, filter=3)]),
     ["layers[0]: fields ['channels', 'filter', 'ndim'] are only valid for convolutional "
      "layers"]),
    ("fc-unknown-fields", doc([fc(bias=True, act="relu")]),
     ["layers[0]: unknown fields ['act', 'bias']"]),
    ("fc-conv-and-unknown-fields", doc([fc(0, stride=1, bias=True)]),
     ["layers[0].width: expected a positive integer, got 0",
      "layers[0]: fields ['stride'] are only valid for convolutional layers",
      "layers[0]: unknown fields ['bias']"]),
    ("conv-unknown-field", doc([conv(padding=1)]),
     ["layers[0]: unknown fields ['padding']"]),
    ("conv-channels-true", doc([conv(channels=True)]),
     ["layers[0].channels: expected a positive integer, got True"]),
    ("conv-filter-fraction", doc([conv(filt=1.5)]),
     ["layers[0].filter: expected a positive integer, got 1.5"]),
    ("conv-stride-missing", doc([{k: v for k, v in conv().items() if k != "stride"}]),
     ["layers[0].stride: expected a positive integer, got None"]),
    ("conv-spatial-zero", doc([conv(spatial=0)]),
     ["layers[0].spatial: expected a positive integer, got 0"]),
    ("conv-channels-string", doc([conv(channels="2")]),
     ["layers[0].channels: expected a positive integer, got '2'"]),
    ("conv-every-field-bad",
     doc([conv(width=0, channels=None, spatial=-1, filt=0, stride=2.0, ndim=3, bias=0)]),
     ["layers[0].width: expected a positive integer, got 0",
      "layers[0].channels: expected a positive integer, got None",
      "layers[0].spatial: expected a positive integer, got -1",
      "layers[0].filter: expected a positive integer, got 0",
      "layers[0].stride: expected a positive integer, got 2.0",
      "layers[0].ndim: expected 1 or 2, got 3",
      "layers[0]: unknown fields ['bias']"]),
    ("conv-ndim-3", doc([conv(ndim=3)]),
     ["layers[0].ndim: expected 1 or 2, got 3"]),
    ("conv-ndim-0", doc([conv(ndim=0)]),
     ["layers[0].ndim: expected 1 or 2, got 0"]),
    ("conv-ndim-string", doc([conv(ndim="2")]),
     ["layers[0].ndim: expected 1 or 2, got '2'"]),
    ("conv-ndim-true", doc([conv(ndim=True)]),
     ["layers[0].ndim: expected 1 or 2, got True"]),
    ("conv-ndim-float", doc([conv(ndim=2.0)]),
     ["layers[0].ndim: expected 1 or 2, got 2.0"]),
    ("conv-stride-over-filter", doc([conv(filt=2, stride=3)]),
     ["layers[0].stride: stride (3) must not exceed filter size (2)"]),
    ("conv-filter-over-spatial", doc([conv(spatial=4, filt=5)]),
     ["layers[0].filter: filter size (5) must not exceed spatial size (4)"]),
    ("conv-stride-over-filter-over-spatial", doc([conv(spatial=3, filt=4, stride=5)], input_dim=18),
     ["layers[0].stride: stride (5) must not exceed filter size (4)",
      "layers[0].filter: filter size (4) must not exceed spatial size (3)"]),
    ("conv-geometry-after-field-error", doc([conv(width=0, filt=2, stride=3)]),
     ["layers[0].width: expected a positive integer, got 0"]),
    ("mask-other-keys", doc([fc(), fc()], {"custom": [[1, 0]], "extra": 1}),
     ["connectivity: a mask object must have exactly the key 'custom'"]),
    ("mask-wrong-key", doc([fc(), fc()], {"pairs": [[1, 0]]}),
     ["connectivity: a mask object must have exactly the key 'custom'"]),
    ("mask-custom-not-list", doc([fc(), fc()], {"custom": "1,0"}),
     ["connectivity.custom: expected a list of [j, k] pairs"]),
    ("mask-pair-bad-items", fc3({"custom": [[1], [1, 0.5], [True, 0], "10", [2, 0, 1], [2, 1]]}),
     ["connectivity.custom[0]: expected a pair of integers, got [1]",
      "connectivity.custom[1]: expected a pair of integers, got [1, 0.5]",
      "connectivity.custom[2]: expected a pair of integers, got [True, 0]",
      "connectivity.custom[3]: expected a pair of integers, got '10'",
      "connectivity.custom[4]: expected a pair of integers, got [2, 0, 1]"]),
    ("mask-pair-out-of-range", fc3({"custom": [[0, 1], [3, 0], [-1, -2], [2, 2]]}),
     [f"connectivity.custom[{n}]: block {jk} must satisfy 0 <= k < j < 3 "
      "(strictly lower triangular)"
      for n, jk in enumerate(["(0, 1)", "(3, 0)", "(-1, -2)", "(2, 2)"])]),
    ("mask-pair-duplicate", fc3({"custom": [[1, 0], [2, 0], [1, 0]]}),
     ["connectivity.custom[2]: duplicate block (1, 0)"]),
    ("connectivity-number", doc([fc()], 3),
     ["connectivity: expected a pattern name or a custom mask object, got int"]),
    ("connectivity-null", doc([fc()], None),
     ["connectivity: expected a pattern name or a custom mask object, got NoneType"]),
    ("connectivity-list", doc([fc()], [[1, 0]]),
     ["connectivity: expected a pattern name or a custom mask object, got list"]),
    ("connectivity-unknown-name", doc([fc()], "ladder"),
     ["connectivity: unknown pattern 'ladder'; expected one of ('chain', 'residual', "
      "'dense') or a custom mask"]),
    ("connectivity-skipped-after-layer-error", doc([fc(), 3], "ladder"),
     ["layers[1]: expected an object, got int"]),
    ("conv-spatial-sizes-differ",
     doc([conv(channels=1, spatial=4), conv(channels=3, spatial=5)], input_dim=16),
     ["layers: convolutional layers must share one spatial size, got [4, 5]"]),
    ("conv-grid-ranks-differ",
     doc([conv(channels=1, spatial=4, ndim=1), conv(channels=3, spatial=4)], input_dim=4),
     ["layers: convolutional layers must share one grid rank, got [1, 2]"]),
    ("conv-after-fc-width", doc([fc(10), conv(channels=2, spatial=3)], input_dim=5),
     ["layers[1]: channels * spatial^ndim must equal the preceding fully connected width "
      "(10)"]),
    ("conv-chain-channels",
     doc([conv(width=4, spatial=3), conv(width=3, channels=5, spatial=3)], input_dim=18),
     ["layers[1].channels: expected the preceding layer's width (4), got 5"]),
    ("conv-first-layer-input-dim", doc([conv()], input_dim=99),
     ["layers[0]: channels * spatial^ndim = 32 must equal input_dim = 99"]),
    ("conv-multilayer-stride", doc([conv(stride=2), conv(channels=3, stride=2)]),
     [f"layers[{i}].stride: strided convolution changes the output grid; downsampling is "
      "out of scope, so multi-layer specs require stride 1" for i in range(2)]),
    ("residual-even-depth", doc([fc(), fc()], "residual", input_dim=3),
     ["connectivity: the residual pattern is a stem layer plus alternating pairs, which "
      "needs an odd layer count; got 2"]),
    ("residual-skip-widths", doc([fc(), fc(), fc(5)], "residual", input_dim=3),
     ["connectivity: residual identity skip (2, 0) needs matching coefficient counts, "
      "got 5 vs 4"]),
    ("structure-accumulates",
     doc([conv(channels=1, stride=2, ndim=1), fc(7), conv(spatial=5)], "residual", input_dim=9),
     ["layers: convolutional layers must share one spatial size, got [4, 5]",
      "layers: convolutional layers must share one grid rank, got [1, 2]",
      "layers[0].stride: strided convolution changes the output grid; downsampling is "
      "out of scope, so multi-layer specs require stride 1",
      "layers[0]: channels * spatial^ndim = 4 must equal input_dim = 9",
      "layers[2]: channels * spatial^ndim must equal the preceding fully connected width (7)",
      "connectivity: residual identity skip (2, 0) needs matching coefficient counts, "
      "got 75 vs 6"]),
]


@pytest.mark.parametrize("document,diagnostics", [c[1:] for c in REFUSALS],
                         ids=[c[0] for c in REFUSALS])
def test_refusal_diagnostics_are_pinned(document, diagnostics):
    with pytest.raises(SpecError) as exc:
        parse_spec(document)
    assert exc.value.diagnostics == diagnostics
