"""Parser, printer and shape inference for architecture strings.

Grammar::

    arch  := "IMG" ("-" unit)+
    unit  := token | "(" token ("-" token)* ")" ["x" INT]
    token := ("Conv" INT | "ReLU" | "MaxPool" | "LRN" | "Dropout"
              | "FC" INT | "Softmax") ["[" key "=" value ("," key "=" value)* "]"]

Parenthesized groups with an ``xK`` suffix expand to K consecutive
copies (with independent parameters). The optional bracket suffix
overrides per-layer geometry; without it the defaults from
:mod:`microvoc.layers` apply. Canonical strings (as produced by
:func:`render`) are flat, with no parentheses or repetition.

Each kind's token, count and override keys are its row in
``layers.KINDS``: Conv ``k`` (square kernel), ``s`` (stride), ``p``
(pad); MaxPool ``k``, ``s``; Dropout ``p`` (drop probability); LRN ``n``,
``k``, ``alpha``, ``beta``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ArchError, ShapeError
from .layers import DEFAULT_DROPOUT_P, KINDS, Realized

_KIND_OF_TOKEN = {row.token: kind for kind, row in KINDS.items()}

#: the paper's network input, (channels, height, width): RGB at 128x128
INPUT_DIMS = (3, 128, 128)

#: reference architectures selectable by name on the CLI
PRESETS = {
    "M1": "IMG-(Conv64-ReLU)-(FC1024-ReLU-FC20)-Softmax",
    "M2": "IMG-(Conv64-ReLU-MaxPool)-(Conv128-ReLU)-(Conv256-ReLU-MaxPool)-"
          "(FC1024-ReLU-Dropout-FC20)-Softmax",
    "M3": "IMG-(Conv64-ReLU-LRN-MaxPool)-(Conv128-ReLU-LRN)-(Conv256-ReLU-MaxPool-Dropout)-"
          "(FC1024-ReLU-Dropout-FC20)-Softmax",
    "M4": "IMG-(Conv64-ReLU-LRN)x2-MaxPool-(Conv96-ReLU-LRN)x3-MaxPool-"
          "(FC1024-ReLU-Dropout)x2-FC20-Softmax",
}


@dataclass
class LayerSpec:
    kind: str
    count: int | None = None  # filters for conv, neurons for fc
    opts: dict = field(default_factory=dict)

    def token(self) -> str:
        name = KINDS[self.kind].token
        s = f"{name}{self.count}" if self.count is not None else name
        if self.opts:
            inner = ",".join(f"{k}={v!r}" if not isinstance(v, (int, float)) else f"{k}={v}"
                             for k, v in sorted(self.opts.items()))
            s += f"[{inner}]"
        return s


@dataclass
class NetworkSpec:
    input_dims: tuple[int, int, int]  # (channels, height, width)
    layers: list[LayerSpec]
    realized: list[Realized]  # per layer: config, output dims, parameter shapes

    @property
    def shapes(self) -> list[tuple[int, int, int]]:
        """Per-layer output dims."""
        return [layer.out_dims for layer in self.realized]

    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.realized)

    @property
    def num_classes(self) -> int | None:
        """C when the last output is (C, 1, 1) class scores, else None."""
        c, h, w = self.shapes[-1]
        return c if (h, w) == (1, 1) else None


_NAME_RE = re.compile(r"[A-Za-z]+")
_INT_RE = re.compile(r"\d+")
_KEY_RE = re.compile(r"[a-z]+")
_NUM_RE = re.compile(r"[-+]?\d+(\.\d*)?([eE][-+]?\d+)?|[-+]?\.\d+([eE][-+]?\d+)?")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str, what: str) -> None:
        if not self.take(ch):
            raise ArchError(f"expected {what}", self.pos)

    def match(self, regex: re.Pattern) -> str | None:
        m = regex.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(0)


def _coerce_opt(kind: str, key: str, raw: str, pos: int):
    value_type = KINDS[kind].opts.get(key)
    if value_type is None:
        raise ArchError(f"unknown option {key!r} for layer kind {kind!r}", pos)
    try:
        return value_type(raw)
    except ValueError:  # float() takes every number the scanner matches; int() may not
        raise ArchError(f"option {key!r} of {kind} must be an integer, got {raw!r}", pos)


def _parse_token(sc: _Scanner) -> LayerSpec:
    start = sc.pos
    name = sc.match(_NAME_RE)
    if name is None or name not in _KIND_OF_TOKEN:
        bad = name if name is not None else sc.peek() or "<end>"
        raise ArchError(f"unknown token {bad!r}", start)
    kind = _KIND_OF_TOKEN[name]
    count = None
    if KINDS[kind].counted:
        num = sc.match(_INT_RE)
        if num is None:
            raise ArchError(f"{name} requires a count, e.g. {name}64", sc.pos)
        count = int(num)
        if count < 1:
            raise ArchError(f"{name} count must be >= 1", start)
    opts: dict = {}
    if sc.take("["):
        while True:
            kpos = sc.pos
            key = sc.match(_KEY_RE)
            if key is None:
                raise ArchError("expected option name", sc.pos)
            sc.expect("=", "'='")
            vpos = sc.pos
            raw = sc.match(_NUM_RE)
            if raw is None:
                raise ArchError(f"expected numeric value for option {key!r}", vpos)
            if key in opts:
                raise ArchError(f"duplicate option {key!r}", kpos)
            opts[key] = _coerce_opt(kind, key, raw, vpos)
            if sc.take("]"):
                break
            sc.expect(",", "',' or ']'")
    return LayerSpec(kind, count, opts)


def _parse_unit(sc: _Scanner) -> list[LayerSpec]:
    if sc.take("("):
        open_pos = sc.pos - 1
        group = [_parse_token(sc)]
        while sc.take("-"):
            group.append(_parse_token(sc))
        if not sc.take(")"):
            raise ArchError("unbalanced parentheses", open_pos)
        if sc.take("x"):
            npos = sc.pos
            num = sc.match(_INT_RE)
            if num is None:
                raise ArchError("expected repetition count after 'x'", npos)
            reps = int(num)
            if reps < 1:
                raise ArchError("repetition count must be >= 1", npos)
            # copies get independent parameters later; deep-copy the specs
            return [LayerSpec(ls.kind, ls.count, dict(ls.opts)) for _ in range(reps) for ls in group]
        return group
    return [_parse_token(sc)]


def parse_layers(text: str) -> list[LayerSpec]:
    """Parse an architecture string into a flat layer list (no shape checks)."""
    sc = _Scanner(text)
    if sc.match(re.compile(r"IMG")) is None:
        raise ArchError("architecture must start with 'IMG'", 0)
    layers: list[LayerSpec] = []
    if sc.peek() != "-":
        raise ArchError("expected '-' after IMG", sc.pos)
    while sc.take("-"):
        layers.extend(_parse_unit(sc))
    if sc.pos != len(sc.text):
        raise ArchError(f"unexpected character {sc.peek()!r}", sc.pos)
    for i, ls in enumerate(layers):
        if ls.kind == "softmax" and i != len(layers) - 1:
            raise ArchError("Softmax may only appear as the final layer", None)
    return layers


def infer_shapes(layers: list[LayerSpec], input_dims: tuple[int, int, int]) -> list[Realized]:
    """Realize each layer on its input dims, in order, by its kind's row.

    Raises ArchError identifying the offending layer when a conv/pool
    geometry does not divide exactly, an option value is out of range or
    a Softmax is misplaced.
    """
    c, h, w = input_dims
    if c < 1 or h < 1 or w < 1:
        raise ArchError(f"input dims must be positive, got {input_dims}")
    dims = (c, h, w)
    realized: list[Realized] = []
    for i, ls in enumerate(layers):
        try:
            realized.append(KINDS[ls.kind].realize(ls, dims))
        except (ShapeError, ValueError) as e:
            raise ArchError(f"layer {i} ({ls.token()}): {e}") from e
        dims = realized[-1].out_dims
    return realized


def parse(text: str, input_dims: tuple[int, int, int] = INPUT_DIMS) -> NetworkSpec:
    """Parse and shape-check an architecture string."""
    layers = parse_layers(text)
    return NetworkSpec(tuple(input_dims), layers, infer_shapes(layers, input_dims))


def with_dropout(spec: NetworkSpec, p: float) -> NetworkSpec:
    """``spec`` with drop probability ``p`` in the options of each Dropout
    that sets none, so that ``render`` carries it."""
    # at the default p the spec stays as it is: the canonical string, and
    # with it the checkpoint bytes of every default-p net, do not change
    if p == DEFAULT_DROPOUT_P:
        return spec
    layers = [LayerSpec(ls.kind, ls.count, {"p": p, **ls.opts}) if ls.kind == "dropout" else ls
              for ls in spec.layers]
    return NetworkSpec(spec.input_dims, layers, infer_shapes(layers, spec.input_dims))


def render(spec: NetworkSpec) -> str:
    """Canonical flat string; ``parse(render(s))`` equals ``s`` structurally."""
    return "-".join(["IMG"] + [ls.token() for ls in spec.layers])


def resolve_arch(name_or_text: str) -> str:
    """Map a preset name (M1..M4) to its architecture string, else pass through."""
    return PRESETS.get(name_or_text, name_or_text)
