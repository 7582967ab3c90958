"""Seeded inputs of the three benchmark workloads, and the timed set-up.

Everything is generated here from the seed rather than taken from
``einlog.demo``, so a later change to the demo cannot move a workload.
Entity ``i`` is always named ``E<i>``; the ground-truth arrays are indexed in
that order, which need not be the knowledge base's interning order.

* ``transitivity`` drives the library in memory, as the demo does: one
  binary arity-2 predicate, one transitivity clause, unary logits handed over
  as an array.  The run is GEMM-shaped: almost all of it is contraction.
* ``kbc`` (knowledge-base completion) reads every input through the
  ``einlog infer`` text formats.  An arity-3 table and cheap ``M'=3`` plans
  put the weight on the per-cell layers (softmax, scatter, gather).
* ``report`` also reads text files, with ~180k unary lines and a full
  ~182k-row report around a cheap solve, so the file layers dominate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import einlog as E
import einlog.io

MARGIN = 2.0          # unary logit of the (possibly flipped) generator label
NOISE = 0.10          # share of binary unary labels flipped

TRANSITIVITY_RULES = """\
predicate coexist(ent,ent)
!coexist(a,b) | !coexist(b,c) | coexist(a,c)
"""

# Arities 0, 1, 2, 2 and 3; `kind` is multi-class.  The formulas cover a
# two-clause weighted CNF, a free hypothesis variable (`ab->abc` broadcast),
# an arity-0 atom, a constant argument, multi-class literals and a
# 3-premise clause over 4 variables.  Every plan has M' <= 3.
KBC_RULES = """\
predicate active()
predicate kind(ent) labels {K0,K1,K2,K3,K4}
predicate link(ent,ent)
predicate rel(ent,ent)
predicate tri(ent,ent,ent)
2.0: (!link(a,b) | rel(a,b)) & (link(a,b) | !rel(a,b))
!rel(a,b) | tri(a,b,c)
!tri(a,b,c) | !rel(b,c) | rel(a,c)
!active() | !rel(a,b) | rel(b,a)
!rel(E0,b) | kind(b) in {K0,K1}
!kind(a) in {K2} | !rel(a,b) | kind(b) in {K2,K3}
!link(a,b) | !rel(b,c) | !link(c,d) | rel(a,d)
"""

# Five cheap rules over arity-1 and arity-2 predicates, all with M' <= 2.
REPORT_RULES = """\
predicate good(ent)
predicate hub(ent)
predicate tag(ent) labels {T0,T1,T2,T3}
predicate knows(ent,ent)
predicate likes(ent,ent)
!knows(a,b) | likes(a,b)
!likes(a,b) | good(b)
2.0: (!hub(a) | good(a)) & (hub(a) | !good(a))
!good(a) | tag(a) in {T0,T1}
!knows(a,b) | !hub(a) | knows(b,a)
"""


@dataclass
class Instance:
    """Generated inputs of one workload at one seed and size.

    ``texts`` holds the input files by role (``rules``, ``evidence``,
    ``unary``, ``queries``).  Without an evidence text the knowledge base is
    built in memory from the entity names; ``unary_arrays`` then replaces the
    unary file.  ``truth`` holds the generator's labels of the scored
    predicates.
    """

    workload: str
    seed: int
    n: int
    iterations: int
    texts: dict[str, str]
    unary_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    truth: dict[str, np.ndarray] = field(default_factory=dict)

    def save(self, folder: Path) -> None:
        folder.mkdir(parents=True, exist_ok=True)
        for role, text in self.texts.items():
            (folder / f"{role}.txt").write_text(text, encoding="utf-8")
        np.savez(folder / "arrays.npz",
                 **{f"unary.{k}": v for k, v in self.unary_arrays.items()},
                 **{f"truth.{k}": v for k, v in self.truth.items()})
        meta = {"workload": self.workload, "seed": self.seed, "n": self.n,
                "iterations": self.iterations, "roles": sorted(self.texts)}
        (folder / "meta.json").write_text(json.dumps(meta), encoding="utf-8")

    @classmethod
    def load(cls, folder: Path) -> "Instance":
        """Everything but the texts, which the timed set-up reads itself."""
        meta = json.loads((folder / "meta.json").read_text(encoding="utf-8"))
        with np.load(folder / "arrays.npz") as z:
            arrays = {k: z[k] for k in z.files}
        return cls(meta["workload"], meta["seed"], meta["n"], meta["iterations"],
                   texts=dict.fromkeys(meta["roles"], ""),
                   unary_arrays={k[6:]: v for k, v in arrays.items()
                                 if k.startswith("unary.")},
                   truth={k[6:]: v for k, v in arrays.items()
                          if k.startswith("truth.")})


def _names(n: int) -> list[str]:
    return [f"E{i}" for i in range(n)]


def _noisy(truth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Binary labels with a NOISE share flipped."""
    return truth ^ (rng.random(truth.shape) < NOISE)


def _binary_unary_lines(name: str, labels: np.ndarray, names) -> list[str]:
    hi, lo = f"0 {MARGIN:g}", f"0 {-MARGIN:g}"
    return [f"{name}({','.join(names[i] for i in idx)}) {hi if v else lo}"
            for idx, v in np.ndenumerate(labels)]


def _multiclass_unary_lines(name: str, labels: np.ndarray, num_labels: int,
                            names) -> list[str]:
    lines = []
    for i, v in enumerate(labels):
        logits = ["0"] * num_labels
        logits[v] = f"{MARGIN:g}"
        lines.append(f"{name}({names[i]}) {' '.join(logits)}")
    return lines


def _binary_facts(name: str, cells, truth: np.ndarray, names) -> list[str]:
    return [f"{'' if truth[c] else '!'}{name}({','.join(names[i] for i in c)})"
            for c in cells]


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def make_transitivity(seed: int, n: int = 1024, iterations: int = 3) -> Instance:
    """Four contiguous blocks of seeded, near-equal size; 10% of labels flipped;
    a report of 32 seeded cells per token.

    The rule runs at its default weight 1.0, where the marginals collapse to
    all-false.  That known defect is left visible in ``accuracy``.
    """
    rng = np.random.default_rng(seed)
    jitter = n // 32
    sizes = n // 4 + rng.integers(-jitter, jitter + 1, size=3)
    sizes = np.append(sizes, n - sizes.sum())
    block = np.repeat(np.arange(4), sizes)
    truth = (block[:, None] == block[None, :]).astype(np.int64)
    logits = np.zeros((n, n, 2))
    logits[..., 1] = MARGIN * (2.0 * _noisy(truth, rng) - 1.0)
    names = _names(n)
    cells = np.sort(rng.choice(n * n, size=min(32 * n, n * n // 2), replace=False))
    queries = [f"coexist({names[c // n]},{names[c % n]})" for c in cells]
    return Instance("transitivity", seed, n, iterations,
                    texts={"rules": TRANSITIVITY_RULES, "queries": _text(queries)},
                    unary_arrays={"coexist": logits}, truth={"coexist": truth})


def make_kbc(seed: int, n: int = 128, iterations: int = 5) -> Instance:
    """`link` fully observed, 20% of `kind` observed; queries `kind` and `rel`."""
    rng = np.random.default_rng(seed)
    names = _names(n)
    kind = rng.integers(0, 5, size=n)
    link = (rng.random((n, n)) < 0.05).astype(np.int64)
    rel = link
    observed_kind = np.sort(rng.choice(n, size=n // 5, replace=False))
    evidence = _binary_facts("link", np.ndindex(n, n), link, names)
    evidence += [f"kind({names[i]})=K{kind[i]}" for i in observed_kind]
    noisy_kind = np.where(rng.random(n) < 0.2, rng.integers(0, 5, size=n), kind)
    unary = [f"active() 0 {MARGIN:g}"]
    unary += _multiclass_unary_lines("kind", noisy_kind, 5, names)
    unary += _binary_unary_lines("rel", _noisy(rel, rng), names)
    queries = [f"kind({e})" for e in names]
    queries += [f"rel({a},{b})" for a in names for b in names]
    return Instance("kbc", seed, n, iterations,
                    texts={"rules": KBC_RULES, "evidence": _text(evidence),
                           "unary": _text(unary), "queries": _text(queries)},
                    truth={"kind": kind, "rel": rel})


def make_report(seed: int, n: int = 300, iterations: int = 5) -> Instance:
    """A quarter of `knows` observed (diagonal included, so every entity
    appears in the evidence); unary logits for every arity-2 and multi-class
    cell; no queries, so the report covers every cell."""
    rng = np.random.default_rng(seed)
    names = _names(n)
    knows = (rng.random((n, n)) < 0.1).astype(np.int64)
    likes = knows | (rng.random((n, n)) < 0.05)
    tag = rng.integers(0, 4, size=n)
    off = np.flatnonzero(~np.eye(n, dtype=bool))
    picked = np.sort(np.concatenate([
        np.arange(n) * (n + 1),
        rng.choice(off, size=n * n // 4 - n, replace=False)]))
    evidence = _binary_facts("knows", (divmod(c, n) for c in picked), knows, names)
    unary = _binary_unary_lines("knows", _noisy(knows, rng), names)
    unary += _binary_unary_lines("likes", _noisy(likes, rng), names)
    noisy_tag = np.where(rng.random(n) < 0.2, rng.integers(0, 4, size=n), tag)
    unary += _multiclass_unary_lines("tag", noisy_tag, 4, names)
    return Instance("report", seed, n, iterations,
                    texts={"rules": REPORT_RULES, "evidence": _text(evidence),
                           "unary": _text(unary)},
                    truth={"knows": knows, "likes": likes, "tag": tag})


MAKERS = {"transitivity": make_transitivity, "kbc": make_kbc, "report": make_report}

# Sizes at which the sequential oracle of one iteration stays within its
# grounding-message limit; the self-test runs the whole benchmark at these.
REDUCED_N = {"transitivity": 9, "kbc": 5, "report": 6}


def make(workload: str, seed: int, n: int | None = None) -> Instance:
    maker = MAKERS[workload]
    return maker(seed) if n is None else maker(seed, n)


@dataclass
class Setup:
    """What the timed set-up produces: a validated KB and unary table."""

    rules: E.RuleSet
    kb: E.KnowledgeBase
    phi: E.UnaryTable
    queries: list | None


def setup(inst: Instance, read) -> Setup:
    """Raw inputs to a validated KnowledgeBase + UnaryTable, as `einlog infer`
    does it.  ``read(role)`` returns the text of one input file.

    Every einlog entry point is looked up through its module at call time, so
    the tracer's patches apply.
    """
    rules = E.parse_rules(read("rules"))
    if "evidence" in inst.texts:
        kb = E.load_evidence(read("evidence"), rules.predicates)
    else:
        kb = E.KnowledgeBase(_names(inst.n), rules.predicates, {})
    if "unary" in inst.texts:
        phi = einlog.io.load_unary(read("unary"), kb)
    else:
        phi = E.UnaryTable(dict(inst.unary_arrays))
    phi.validate(kb)
    queries = E.load_queries(read("queries"), kb) if "queries" in inst.texts else None
    return Setup(rules, kb, phi, queries)
