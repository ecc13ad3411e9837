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
