"""Einsum subscripts, label-plane tables and the label normalizations.

``EinsumSpec`` is the parsed ``"ab,bc->ac"`` form that the planner and the
oracle share; an output letter that no input holds is a broadcast letter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parallel import rows


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


def label_planes(shape: tuple[int, ...], alloc=np.empty) -> np.ndarray:
    """A float64 table of ``shape`` (labels last) stored label-major.

    Each label slice ``t[..., l]`` is then one contiguous plane, so gather
    and scatter read and write contiguous memory.  Indexing is unchanged;
    only the strides differ from C order.
    """
    return np.moveaxis(alloc(shape[-1:] + shape[:-1]), 0, -1)


def softmax_lastaxis(t, out: np.ndarray | None = None) -> np.ndarray:
    """Normalize over the label axis: shift by the label maximum, ``exp``
    and divide by the label sum, each a whole-array pass, in row blocks of
    a large table (see ``parallel.rows``).

    ``out`` may be the input itself; without it the result is a new table in
    the input's layout.
    """
    arr = np.asarray(t, dtype=np.float64)
    out = np.empty_like(arr) if out is None else out
    rows(_softmax, out, arr)
    return out


def _softmax(out: np.ndarray, arr: np.ndarray):
    np.subtract(arr, arr.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)


def sigmoid(e, out: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(e))`` elementwise: label 1's probability of a binary
    predicate whose logit difference ``x0 - x1`` is ``e``, in row blocks of
    a large array (see ``parallel.rows``).

    ``exp`` over- and underflows silently, so a saturated ``e`` (``|e| > 745``
    certainly) gives exactly 0 or 1.  ``out`` may be the input itself;
    without it the result is a new array.
    """
    arr = np.asarray(e, dtype=np.float64)
    out = np.empty_like(arr) if out is None else out
    rows(_sigmoid, out, arr)
    return out


def _sigmoid(out: np.ndarray, arr: np.ndarray):
    with np.errstate(over="ignore", under="ignore"):
        np.exp(arr, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
