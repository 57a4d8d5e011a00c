import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from microvoc import archdsl
from microvoc.archdsl import PRESETS, LayerSpec, NetworkSpec, parse, parse_layers, render
from microvoc.errors import ArchError
from microvoc.layers import KINDS


def kinds(layers):
    return [(ls.kind, ls.count) for ls in layers]


class TestParse:
    def test_m1_layer_list(self):
        spec = parse(PRESETS["M1"])
        assert kinds(spec.layers) == [
            ("conv", 64), ("relu", None), ("fc", 1024), ("relu", None),
            ("fc", 20), ("softmax", None),
        ]

    def test_m4_group_expansion(self):
        spec = parse(PRESETS["M4"])
        expected = (
            [("conv", 64), ("relu", None), ("lrn", None)] * 2
            + [("maxpool", None)]
            + [("conv", 96), ("relu", None), ("lrn", None)] * 3
            + [("maxpool", None)]
            + [("fc", 1024), ("relu", None), ("dropout", None)] * 2
            + [("fc", 20), ("softmax", None)]
        )
        assert kinds(spec.layers) == expected

    def test_repeated_groups_are_independent_objects(self):
        layers = parse_layers("IMG-(Conv4-ReLU)x2-FC2")
        assert layers[0] is not layers[2]
        layers[0].opts["k"] = 5
        assert "k" not in layers[2].opts

    def test_unknown_token_with_offset(self):
        with pytest.raises(ArchError) as exc:
            parse_layers("IMG-Conv64-Foo")
        assert "Foo" in str(exc.value)
        assert exc.value.pos == len("IMG-Conv64-")

    def test_unbalanced_parens(self):
        with pytest.raises(ArchError, match="unbalanced"):
            parse_layers("IMG-(Conv64-ReLU-FC2")

    def test_misplaced_softmax(self):
        with pytest.raises(ArchError, match="Softmax"):
            parse_layers("IMG-Softmax-FC2")

    def test_missing_count(self):
        with pytest.raises(ArchError):
            parse_layers("IMG-Conv-ReLU")

    def test_zero_repetition_rejected(self):
        with pytest.raises(ArchError):
            parse_layers("IMG-(Conv4-ReLU)x0-FC2")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ArchError):
            parse_layers("IMG-FC2)")

    def test_missing_img_prefix(self):
        with pytest.raises(ArchError):
            parse_layers("Conv64-ReLU")

    def test_bracket_overrides(self):
        layers = parse_layers("IMG-Conv8[k=5,s=2,p=0]-ReLU-MaxPool[k=3,s=3]-"
                              "Dropout[p=0.3]-LRN[n=3,alpha=0.01]-FC2")
        assert layers[0].opts == {"k": 5, "s": 2, "p": 0}
        assert layers[2].opts == {"k": 3, "s": 3}
        assert layers[3].opts == {"p": 0.3}
        assert layers[4].opts == {"n": 3, "alpha": 0.01}

    def test_unknown_option_rejected(self):
        with pytest.raises(ArchError, match="unknown option"):
            parse_layers("IMG-Conv8[dilation=2]-FC2")

    def test_duplicate_option_rejected(self):
        with pytest.raises(ArchError, match="duplicate"):
            parse_layers("IMG-Conv8[k=3,k=5]-FC2")


class TestRender:
    @pytest.mark.parametrize("name", ["M1", "M2", "M3", "M4"])
    def test_preset_round_trip(self, name):
        spec = parse(PRESETS[name])
        canonical = render(spec)
        # flat canonical form: no groups, hence no repetition suffixes
        assert "(" not in canonical and ")" not in canonical
        again = parse(canonical)
        assert again.layers == spec.layers
        assert again.param_count == spec.param_count
        # canonical strings are a fixed point of parse-render
        assert render(again) == canonical

    def test_single_layer(self):
        spec = parse("IMG-Conv64", input_dims=(3, 8, 8))
        assert render(spec) == "IMG-Conv64"

    def test_overrides_survive_round_trip(self):
        text = "IMG-Conv8[k=5,p=2,s=1]-ReLU-Dropout[p=0.25]-FC3"
        spec = parse(text, input_dims=(3, 16, 16))
        again = parse(render(spec), input_dims=(3, 16, 16))
        assert again.layers == spec.layers

    def test_deterministic(self):
        a = render(parse(PRESETS["M2"]))
        b = render(parse(PRESETS["M2"]))
        assert a == b


class TestInferShapes:
    def test_m1_shape_walk(self):
        spec = parse(PRESETS["M1"])
        # default conv geometry preserves 128x128, so FC1024 sees 64*128*128
        assert spec.shapes[0] == (64, 128, 128)
        fc_in = 64 * 128 * 128
        assert fc_in == 1_048_576
        assert spec.param_count == (
            64 * 3 * 9 + 64
            + 1024 * fc_in + 1024
            + 20 * 1024 + 20
        )

    def test_m2_final_spatial_dims(self):
        spec = parse(PRESETS["M2"])
        conv_shapes = [s for ls, s in zip(spec.layers, spec.shapes) if ls.kind == "maxpool"]
        assert conv_shapes[-1] == (256, 32, 32)

    def test_pool_exact_division_rule(self):
        with pytest.raises(ArchError, match="maxpool"):
            parse("IMG-MaxPool-FC2", input_dims=(3, 5, 5))

    def test_conv_exact_division_rule(self):
        with pytest.raises(ArchError):
            parse("IMG-Conv4[k=2,s=2,p=0]-FC2", input_dims=(3, 5, 5))

    def test_fc_flattens(self):
        spec = parse("IMG-Conv4-MaxPool-FC10", input_dims=(3, 8, 8))
        assert spec.shapes == [(4, 8, 8), (4, 4, 4), (10, 1, 1)]
        assert spec.param_count == (4 * 3 * 9 + 4) + (10 * 64 + 10)

    def test_softmax_requires_1x1_input(self):
        with pytest.raises(ArchError, match="Softmax"):
            parse("IMG-Conv4-Softmax", input_dims=(3, 8, 8))

    @pytest.mark.parametrize("text", [
        "IMG-Conv8[p=-1]-FC2",
        "IMG-Dropout[p=1.5]-FC2",
        "IMG-LRN[n=4]-FC2",
        "IMG-MaxPool[k=0]-FC2",
        "IMG-LRN[alpha=1e999]-FC2",
        "IMG-LRN[k=1e999]-FC2",
        "IMG-LRN[beta=1e999]-FC2",
    ])
    def test_invalid_override_values_rejected(self, text):
        with pytest.raises(ArchError, match="layer 0"):
            parse(text, input_dims=(3, 8, 8))

    def test_num_classes(self):
        assert parse(PRESETS["M1"]).num_classes == 20
        assert parse("IMG-FC7", input_dims=(3, 4, 4)).num_classes == 7
        # read from the last output's dims, whatever kind of layer gives them
        assert parse("IMG-Conv4[k=4,p=0]", input_dims=(3, 4, 4)).num_classes == 4
        assert parse("IMG-FC7-Dropout", input_dims=(3, 4, 4)).num_classes == 7
        assert parse("IMG-Conv64").num_classes is None


class TestParamOrdering:
    def test_m2_equals_m3(self):
        # LRN and Dropout carry no parameters and pooling positions agree
        assert parse(PRESETS["M2"]).param_count == parse(PRESETS["M3"]).param_count

    def test_exact_counts(self):
        # anchors computed by hand from the default geometry
        assert parse(PRESETS["M1"]).param_count == 1_073_765_140
        assert parse(PRESETS["M2"]).param_count == 268_827_796
        assert parse(PRESETS["M4"]).param_count == 101_994_612


def test_resolve_arch():
    assert archdsl.resolve_arch("M1") == PRESETS["M1"]
    assert archdsl.resolve_arch("IMG-FC2") == "IMG-FC2"


# ---------------------------------------------------------------------------
# properties drawn from the layer-kind table

_OPTION_VALUES = {
    int: st.integers(-10**6, 10**6),
    float: st.floats(allow_nan=False, allow_infinity=False),
}
_BODY_KINDS = [kind for kind in KINDS if kind != "softmax"]


def _layer(kind: str):
    row = KINDS[kind]
    return st.builds(
        LayerSpec, st.just(kind),
        st.integers(1, 10**6) if row.counted else st.none(),
        st.fixed_dictionaries({}, optional={key: _OPTION_VALUES[value_type]
                                            for key, value_type in row.opts.items()}))


@st.composite
def _layer_lists(draw):
    """Every kind at least once, in any order, plus a few more; Softmax
    (when drawn) last, the only place the grammar allows it."""
    kinds = draw(st.permutations(_BODY_KINDS))
    kinds += draw(st.lists(st.sampled_from(_BODY_KINDS), max_size=4))
    if draw(st.booleans()):
        kinds.append("softmax")
    return [draw(_layer(kind)) for kind in kinds]


@settings(max_examples=200, deadline=None)
@given(layers=_layer_lists())
def test_table_drawn_layer_lists_round_trip(layers):
    text = "-".join(["IMG"] + [ls.token() for ls in layers])
    first = parse_layers(text)
    assert first == layers
    for ls in first:
        assert all(type(value) is KINDS[ls.kind].opts[key] for key, value in ls.opts.items())
    # render reads only the layer list, so no shapes are needed here
    again = parse_layers(render(NetworkSpec((3, 1, 1), first, [])))
    assert again == first


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(list(KINDS)), key=st.from_regex(r"[a-z]{1,8}", fullmatch=True),
       value=st.integers(0, 99))
def test_option_outside_its_row_is_rejected(kind, key, value):
    row = KINDS[kind]
    assume(key not in row.opts)
    token = f"{row.token}{4 if row.counted else ''}[{key}={value}]"
    with pytest.raises(ArchError, match=re.escape(f"unknown option {key!r} for layer kind {kind!r}")):
        parse_layers(f"IMG-{token}")
