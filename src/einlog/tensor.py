"""Einstein-summation kernel over float64 ndarrays, with broadcast outputs.

The kernel extends ordinary einsum with *broadcast output letters*: an output
index that appears in no input replicates the contracted value along a new
axis whose extent has to be supplied explicitly.  Repeated letters inside one
input subscript select the diagonal, as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

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


def broadcast_output(core: np.ndarray, spec: EinsumSpec) -> np.ndarray:
    """A contracted core with a size-1 axis at each broadcast output letter.

    The core's axes are the non-broadcast output letters in output order.
    The result is a view that broadcasts against the full output shape.
    """
    letters = spec.input_letters()
    return np.expand_dims(core, tuple(pos for pos, ch in enumerate(spec.output)
                                      if ch not in letters))


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
    return np.broadcast_to(broadcast_output(core, spec),
                           tuple(ext[ch] for ch in spec.output)).copy()


def label_planes(shape: tuple[int, ...], alloc=np.empty) -> np.ndarray:
    """A float64 table of ``shape`` (labels last) stored label-major.

    Each label slice ``t[..., l]`` is then one contiguous plane, so the
    slice loops of normalize, gather and scatter read and write contiguous
    memory.  Indexing is unchanged; only the strides differ from C order.
    """
    return np.moveaxis(alloc(shape[-1:] + shape[:-1]), 0, -1)


# Cells per normalize block: a block's label slices and its max and sum rows
# stay in a core's L2 cache through the passes over the block.
_BLOCK_CELLS = 1 << 14


def softmax_lastaxis(t, out: np.ndarray | None = None) -> np.ndarray:
    """Normalize over the label axis, which is short (2 to a few labels).

    numpy's ``max``/``sum`` over a short last axis cost several times a pass
    over the data, so the max, the shift, the sum and the division loop over
    the label slices ``arr[..., k]`` instead.  Below eight labels this adds
    in the same order as ``sum(axis=-1)``, so the result is bit-identical to
    the reduction form.  The passes run block by block along the first axis,
    so each block is read from memory once.  ``out`` may be the input
    itself; without it the result is a new table in the input's layout.
    """
    arr = np.asarray(t, dtype=np.float64)
    e = np.empty_like(arr) if out is None else out
    src, dst = (arr[None], e[None]) if arr.ndim == 1 else (arr, e)  # arity 0: one row
    rows, cells = src.shape[0], src.shape[1:-1]
    step = max(1, _BLOCK_CELLS // max(1, prod(cells)))
    top = np.empty((min(step, rows),) + cells)
    total = np.empty_like(top)
    for i in range(0, rows, step):
        a, b = src[i:i + step], dst[i:i + step]
        m, s = top[:len(a)], total[:len(a)]
        np.copyto(m, a[..., 0])
        for k in range(1, a.shape[-1]):
            np.maximum(m, a[..., k], out=m)
        for k in range(a.shape[-1]):
            np.subtract(a[..., k], m, out=b[..., k])
        np.exp(b, out=b)
        np.copyto(s, b[..., 0])
        for k in range(1, b.shape[-1]):
            s += b[..., k]
        for k in range(b.shape[-1]):
            np.divide(b[..., k], s, out=b[..., k])
    return e


def sigmoid(d, out: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(-d))`` elementwise: label 1's probability of a binary
    predicate whose logit difference ``x1 - x0`` is ``d``.

    The passes run in blocks of ``_BLOCK_CELLS`` cells, so each block is
    read from memory once.  ``exp`` over- and underflows silently, so a
    saturated ``d`` (``|d| > 745`` certainly) gives exactly 0 or 1.  ``out``
    may be the input itself; without it the result is a new array.
    """
    arr = np.asarray(d, dtype=np.float64)
    e = np.empty_like(arr) if out is None else out
    if arr.flags.c_contiguous and e.flags.c_contiguous:
        src, dst = arr.reshape(-1), e.reshape(-1)
        blocks = [(src[i:i + _BLOCK_CELLS], dst[i:i + _BLOCK_CELLS])
                  for i in range(0, src.size, _BLOCK_CELLS)]
    else:
        blocks = [(arr, e)]
    with np.errstate(over="ignore", under="ignore"):
        for a, b in blocks:
            np.negative(a, out=b)
            np.exp(b, out=b)
            b += 1.0
            np.divide(1.0, b, out=b)
    return e
