"""Einstein-summation kernel over float64 ndarrays, with broadcast outputs.

The kernel extends ordinary einsum with *broadcast output letters*: an output
index that appears in no input replicates the contracted value along a new
axis whose extent has to be supplied explicitly.  Repeated letters inside one
input subscript select the diagonal, as usual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TensorError(Exception):
    """Inconsistent subscripts, extents, or shapes."""


@dataclass(frozen=True)
class EinsumSpec:
    """Subscripts of a summation: input index strings and one output string."""

    inputs: tuple[str, ...]
    output: str

    def __post_init__(self):
        for sub in (*self.inputs, self.output):
            if not all("a" <= ch <= "z" for ch in sub):
                raise TensorError(f"subscript letters must be a-z, got {sub!r}")
        if len(set(self.output)) != len(self.output):
            raise TensorError(f"repeated letter in output {self.output!r}")

    @classmethod
    def parse(cls, text: str) -> "EinsumSpec":
        if "->" not in text:
            raise TensorError(f"spec {text!r} lacks '->'")
        lhs, rhs = text.split("->")
        inputs = tuple(s for s in lhs.split(",")) if lhs else ()
        if inputs == ("",):
            inputs = ()
        return cls(inputs, rhs)

    def __str__(self) -> str:
        return ",".join(self.inputs) + "->" + self.output

    def input_letters(self) -> set[str]:
        return {ch for sub in self.inputs for ch in sub}

    def resolve_extents(self, shapes, extents=None) -> dict[str, int]:
        """Letter extents from input shapes, checking consistency.

        ``extents`` supplies (and may pre-pin) extents, which is required for
        broadcast output letters.
        """
        if len(shapes) != len(self.inputs):
            raise TensorError(f"spec has {len(self.inputs)} inputs, got {len(shapes)}")
        out: dict[str, int] = dict(extents or {})
        for sub, shape in zip(self.inputs, shapes):
            if len(sub) != len(shape):
                raise TensorError(f"subscript {sub!r} does not match shape {shape}")
            for ch, d in zip(sub, shape):
                if out.setdefault(ch, int(d)) != int(d):
                    raise TensorError(f"inconsistent extent for index {ch!r}")
        for ch in self.output:
            if ch not in out:
                raise TensorError(f"no declared extent for output index {ch!r}")
        return out


def broadcast_output(core: np.ndarray, core_subscript: str, spec: EinsumSpec,
                     extents: dict[str, int]) -> np.ndarray:
    """Expand a contracted core to the full output, adding broadcast axes.

    ``core_subscript`` must list exactly the non-broadcast output letters in
    output order; broadcast letters are inserted as replicated axes.
    """
    expected = "".join(ch for ch in spec.output if ch in spec.input_letters())
    if core_subscript != expected:
        core = np.einsum(f"{core_subscript}->{expected}", core)
    out = core
    for pos, ch in enumerate(spec.output):
        if ch not in expected:
            out = np.expand_dims(out, pos)
    target = tuple(extents[ch] for ch in spec.output)
    return np.ascontiguousarray(np.broadcast_to(out, target))


def einsum(spec, inputs, extents=None) -> np.ndarray:
    """Single-shot (unplanned) Einstein summation with broadcast output.

    output[o] = sum over bound indices of the product of projected inputs;
    output letters absent from every input replicate the result.
    """
    if isinstance(spec, str):
        spec = EinsumSpec.parse(spec)
    arrays = [np.asarray(t, dtype=np.float64) for t in inputs]
    ext = spec.resolve_extents([a.shape for a in arrays], extents)
    core_sub = "".join(ch for ch in spec.output if ch in spec.input_letters())
    if arrays:
        core = np.einsum(",".join(spec.inputs) + "->" + core_sub, *arrays, optimize=False)
    else:
        core = np.float64(1.0)
    return broadcast_output(np.asarray(core), core_sub, spec, ext)


def softmax_lastaxis(t) -> np.ndarray:
    """Normalize over the label axis, which is short (2 to a few labels).

    numpy's ``max``/``sum`` over a short last axis cost several times a pass
    over the data, so the max and the sum loop over the label slices
    ``arr[..., k]`` instead.  Below eight labels this adds in the same order
    as ``sum(axis=-1)``, so the result is bit-identical to the reduction form.
    """
    arr = np.asarray(t, dtype=np.float64)
    labels = arr.shape[-1]
    top = arr[..., 0].copy()
    for k in range(1, labels):
        np.maximum(top, arr[..., k], out=top)
    e = arr - top[..., None]
    np.exp(e, out=e)
    total = e[..., 0].copy()
    for k in range(1, labels):
        total += e[..., k]
    e /= total[..., None]
    return e
