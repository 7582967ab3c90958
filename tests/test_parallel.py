"""The row-block splitter: concurrency, failure semantics and bit identity.

Every test name holds ``split`` so that CI's BLAS-unpinned step selects it.
"""

import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from einlog import engine, parallel, planner, tensor
from einlog.engine import EngineConfig, IterationTrace, UnaryTable, compile_rules, iterate
from einlog.kb import KnowledgeBase
from einlog.planner import execute, plan
from einlog.tensor import EinsumSpec, label_planes

from test_oracle import PALETTE, rule_lists

SRC = str(Path(__file__).resolve().parents[1] / "src")
WAIT_S = 30


@pytest.fixture
def split_everything(monkeypatch):
    """Two workers and an element floor of 0, so every pass of two or more
    rows splits; matrix products keep their floor, since a split product may
    differ from the whole one in the last bits."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    monkeypatch.setattr(parallel, "FLOOR", 0)


def _joined(threads):
    for t in threads:
        t.join(timeout=WAIT_S)
    return not any(t.is_alive() for t in threads)


def _named():
    return threading.current_thread().name


# --- concurrency and failure semantics ------------------------------------

def test_split_runs_the_second_block_on_the_helper():
    assert parallel.run(_named, _named) == (threading.current_thread().name, "einlog-split")
    helpers = [t for t in threading.enumerate() if t.name == "einlog-split"]
    assert helpers == [parallel._helper.thread] and helpers[0].daemon


def test_split_caller_runs_both_blocks_when_another_split_holds_the_helper():
    entered, release = threading.Event(), threading.Event()

    def occupy():
        entered.set()
        release.wait(WAIT_S)
        return _named()

    first = threading.Thread(target=parallel.run, args=(_named, occupy))
    first.start()
    try:
        assert entered.wait(WAIT_S)   # the helper is inside the first split
        got = []
        second = threading.Thread(target=lambda: got.append(parallel.run(_named, _named)),
                                  name="second-caller")
        second.start()
        assert _joined([second])      # it did not wait for the helper
        assert got == [("second-caller", "second-caller")]
    finally:
        release.set()
    assert _joined([first])


def test_split_nested_in_a_block_runs_inline():
    outer = threading.current_thread().name
    got = parallel.run(lambda: parallel.run(_named, _named),
                       lambda: parallel.run(_named, _named))
    assert got == ((outer, outer), ("einlog-split", "einlog-split"))


class Boom(Exception):
    pass


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_split_raises_only_after_both_blocks_finish(raiser):
    finished = []

    def slow():
        time.sleep(0.05)
        finished.append(_named())

    def fail():
        raise Boom(raiser)

    blocks = (fail, slow) if raiser == "caller" else (slow, fail)
    with pytest.raises(Boom, match=raiser):
        parallel.run(*blocks)
    assert len(finished) == 1
    assert parallel.run(_named, _named)[1] == "einlog-split"   # the helper still serves


def test_split_raises_the_callers_exception_when_both_blocks_raise():
    def fail(tag):
        def raiser():
            raise Boom(tag)
        return raiser

    with pytest.raises(Boom, match="caller"):
        parallel.run(fail("caller"), fail("helper"))
    assert parallel.run(_named, _named)[1] == "einlog-split"


def test_split_block_on_the_helper_keeps_the_callers_float_error_handling():
    def overflow():
        np.exp(np.array([1000.0]))
        return _named()

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        parallel.run(_named, overflow)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        assert parallel.run(_named, overflow)[1] == "einlog-split"


def test_split_stress_with_more_threads_than_cpus(split_everything):
    threads_n = 4 * (os.cpu_count() or 2)
    a = np.random.default_rng(0).random((40, 40))
    p = plan("ab,bc->ac", {"a": 40, "b": 40, "c": 40})
    wrong, done = [], []

    def caller(k):
        for r in range(25):
            out = np.empty((33, 7))
            # a lost or misplaced block leaves rows that are not k + r
            parallel.rows(lambda o, v: o.fill(v), out, float(k + r))
            if not (out == k + r).all():
                wrong.append((k, r))
            if not np.allclose(execute(p, [a, a]), a @ a, rtol=1e-13):
                wrong.append((k, r, "product"))
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(threads_n)]
        for t in callers:
            t.start()
        assert _joined(callers)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [] and sorted(done) == list(range(threads_n))
    assert sum(t.name == "einlog-split" for t in threading.enumerate()) <= 1


def _python(code: str, **env) -> str:
    environ = dict(os.environ, PYTHONPATH=SRC, **env)
    proc = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# a kbc-like program whose tri plane (64^3 cells) reaches the element floor
PROGRAM = """
import sys, threading
import numpy as np
from einlog import parallel
from einlog.engine import EngineConfig, UnaryTable, compile_rules, iterate
from einlog.fol import parse_rules
from einlog.kb import KnowledgeBase
rules = parse_rules('''
predicate rel(ent,ent)
predicate tri(ent,ent,ent)
!rel(a,b) | tri(a,b,c)
!tri(a,b,c) | !rel(b,c) | rel(a,c)
''')
kb = KnowledgeBase([f"e{i}" for i in range(64)], rules.predicates, {})
rng = np.random.default_rng(0)
phi = UnaryTable({name: rng.normal(size=kb.shape(p) + (p.num_labels,))
                  for name, p in kb.predicates.items()})
iterate(phi, compile_rules(rules, kb), EngineConfig(iterations=2))
"""


def test_split_imports_no_concurrent_futures():
    out = _python(PROGRAM + """
print(parallel.WORKERS, parallel._helper.thread is not None,
      "concurrent.futures" in sys.modules)
""", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cpus = len(os.sched_getaffinity(0))
    assert out == ("2 True False" if cpus >= 2 else "1 False False")


def test_unpinned_blas_splits_nothing_and_starts_no_split_thread():
    env = {name: "" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    out = _python(PROGRAM + """
print(parallel.WORKERS, parallel._helper.thread, threading.active_count())
""", **env)
    assert out == "1 None 1"


# --- bit identity ----------------------------------------------------------

def _split_and_whole(fn, splits=None):
    """``fn()`` with every pass split, then with one worker; the number of
    splits of the first run is appended to ``splits``.  Matrix products are
    not split, since a split product may differ from the whole one in the
    last bits."""
    calls = []
    run = parallel.run

    def counted(first, second):
        calls.append(first)
        return run(first, second)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(planner, "_SPLIT_FLOPS", float("inf"))
        m.setattr(parallel, "WORKERS", 2)
        m.setattr(parallel, "FLOOR", 0)
        m.setattr(parallel, "run", counted)
        split = fn()
        m.setattr(parallel, "WORKERS", 1)
        whole = fn()
    if splits is not None:
        splits.append(len(calls))
    return split, whole


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _layout(a: np.ndarray) -> tuple:
    """The strides a later pass's order depends on: those of the axes
    longer than 1."""
    return tuple(st for st, n in zip(a.strides, a.shape) if n > 1)


# each split pass of the engine and tensor modules that writes its target:
# name -> (block function, the operands after the target)
def _passes(rng, other, row):
    w = float(rng.uniform(-3.0, 3.0))
    return {
        "refill plane": (engine._difference, (other, row)),
        "refill table": (np.copyto, (other,)),
        "expand": (engine._difference, (1.0, other)),
        "scale": (engine._scale, (other, w)),
        "scale into": (engine._scale, (row, w)),
        "add": (engine._accumulate, (row, np.add)),
        "subtract": (engine._accumulate, (other, np.subtract)),
        "damp": (engine._damp, (other, 0.3)),
        "flush": (engine._flush_block, ()),
        "sigmoid": (tensor._sigmoid, (other,)),
        "softmax": (tensor._softmax, (other,)),
    }


SHAPES = st.tuples(st.integers(1, 9), st.integers(1, 5), st.integers(1, 4))


@given(shape=SHAPES, labels=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       label_slice=st.booleans(), broadcast_row=st.booleans())
@settings(max_examples=150, deadline=None)
def test_split_passes_equal_unsplit_bytes(shape, labels, seed, label_slice,
                                          broadcast_row):
    rng = np.random.default_rng(seed)

    def table(scale=4.0):
        t = label_planes(shape + (labels,))
        t[...] = rng.normal(0.0, scale, t.shape)
        t.flat[::5] = 1e-160   # some entries for the flush
        return t

    base, other, row_src = table(), table(), table()
    if label_slice:   # a label slice of a multi-class table, one plane
        base, other, row_src = base[..., 1], other[..., 0], row_src[..., 1]
    row = row_src[:1] if broadcast_row else row_src   # a size-1 first axis broadcasts
    for name, (fn, operands) in _passes(rng, other, row).items():
        def run():
            target = base.copy(order="K")
            parallel.rows(fn, target, *operands)
            return target

        split, whole = _split_and_whole(run)
        assert _same_bytes(split, whole), name
    # the passes that reduce: their block results combine to the whole one's
    bad = base.copy(order="K")
    bad.flat[-1] = np.nan   # in the last row, so in the helper's block
    for arr in (base, bad):
        split, whole = _split_and_whole(lambda: parallel.rows(engine._finite, arr))
        assert all(split) == all(whole) == (arr is base)
    # and so do the trace's, with a block in one chunk or a chunk per row
    for plane in (False, True):
        results = []
        for chunk in (1, engine._COMPARE_CHUNK):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(engine, "_COMPARE_CHUNK", chunk)
                split, whole = _split_and_whole(
                    lambda: parallel.rows(engine._change, base, other, plane))
            assert len(whole) == 1
            results += [(max(r for r, _ in split), sum(c for _, c in split)), whole[0]]
        assert len(set(results)) == 1


@st.composite
def einsum_steps(draw):
    """One to three operands over the letters abcd, any order, repeats
    allowed, and an output of letters they hold."""
    letters = "abcd"
    inputs = draw(st.lists(st.text(letters, min_size=1, max_size=3), min_size=1, max_size=3))
    held = sorted(set("".join(inputs)))
    output = draw(st.permutations(held).flatmap(
        lambda p: st.integers(1, len(p)).map(lambda k: "".join(p[:k]))))
    # a block needs two rows to split, so most extents are 4 or more
    extents = {ch: draw(st.one_of(st.integers(4, 9), st.integers(1, 3))) for ch in held}
    return EinsumSpec(tuple(inputs), output), extents


# derandomized, as _pairwise_steps_match, so that whether a draw splits is
# the same on every run
@given(step=einsum_steps(), seed=st.integers(0, 2**32 - 1), into_out=st.booleans(),
       transposed=st.booleans())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          derandomize=True)
def _einsum_steps_match(splits, step, seed, into_out, transposed):
    spec, extents = step
    p = plan(spec, extents)
    rng = np.random.default_rng(seed)
    inputs = [rng.normal(size=tuple(extents[ch] for ch in sub)) for sub in spec.inputs]
    if transposed:   # an operand that is a transposed view, as gemm-lowered steps read
        inputs[0] = np.ascontiguousarray(inputs[0].T).T
    use_out = into_out and p.fills_output

    def run():
        out = np.empty(tuple(extents[ch] for ch in spec.output)) if use_out else None
        return execute(p, inputs, out=out)

    split, whole = _split_and_whole(run, splits)
    assert _same_bytes(split, whole)
    assert _layout(split) == _layout(whole)


def test_split_einsum_steps_equal_unsplit_bytes():
    splits = []
    _einsum_steps_match(splits)
    assert any(splits)   # most steps stay whole (see planner._split_einsum)


@st.composite
def pairwise_steps(draw):
    """One or two operands over distinct letters of abcd in any order, as a
    plan's pairwise steps have them, and a result of letters they hold."""
    subs = tuple("".join(draw(st.permutations("abcd"))[:draw(st.integers(1, 4))])
                 for _ in range(draw(st.integers(1, 2))))
    held = sorted(set("".join(subs)))
    result = "".join(draw(st.permutations(held))[:draw(st.integers(1, len(held)))])
    extents = {ch: draw(st.one_of(st.integers(4, 9), st.integers(1, 3))) for ch in held}
    step = planner.ContractionStep(tuple(range(len(subs))), subs, result, 0.0)
    return step, extents


# derandomized: the draws are the same on every run, so the test's share of
# draws that split is a fixed figure, not a chance one
@given(step=pairwise_steps(), seed=st.integers(0, 2**32 - 1), into_out=st.booleans())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          derandomize=True)
def _pairwise_steps_match(splits, step, seed, into_out):
    step, extents = step
    rng = np.random.default_rng(seed)
    operands = [rng.normal(size=tuple(extents[ch] for ch in sub))
                for sub in step.operand_subscripts]
    shape = tuple(extents[ch] for ch in step.result_subscript)

    def run():
        out = np.empty(shape) if into_out else None
        return planner._split_einsum(step, operands, out, extents)

    split, whole = _split_and_whole(run, splits)
    assert _same_bytes(split, whole)
    assert _layout(split) == _layout(whole)


def test_split_pairwise_einsum_steps_equal_unsplit_bytes():
    splits = []
    _pairwise_steps_match(splits)
    assert sum(k > 0 for k in splits) >= len(splits) // 10


def test_split_einsum_steps_of_the_benchmark_shapes_equal_unsplit_bytes():
    rng = np.random.default_rng(7)
    splits = []
    # kbc writes the tri plane through out=; the other steps allocate
    for expr, n, into_out in (("bc,ac->abc", 64, True), ("ab,bc->abc", 31, True),
                              ("abc,ac->bc", 65, False), ("abc,bc->ac", 33, False),
                              ("abc->ab", 47, False)):
        spec = EinsumSpec.parse(expr)
        extents = {ch: n for ch in spec.input_letters()}
        p = plan(spec, extents)
        inputs = [rng.random(tuple(n for _ in sub)) for sub in spec.inputs]
        shape = (n,) * len(spec.output)
        split, whole = _split_and_whole(
            lambda: execute(p, inputs, out=np.empty(shape) if into_out else None), splits)
        assert _same_bytes(split, whole), expr
    assert all(splits)


def _iterate_both(phi, program, config, splits=None):
    def run():
        trace = IterationTrace()
        q = iterate(phi, program, config, trace)
        return q, trace

    return _split_and_whole(run, splits)


@given(rules=rule_lists(), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       damping=st.sampled_from([0.0, 0.3]), iterations=st.integers(1, 3),
       zero_unary=st.sets(st.sampled_from([p.name for p in PALETTE])))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def _iterate_matches(splits, rules, n, seed, damping, iterations, zero_unary):
    rng = np.random.default_rng(seed)
    kb = KnowledgeBase([f"E{i}" for i in range(n)], {p.name: p for p in PALETTE}, {
        (p.name, cell): int(rng.integers(p.num_labels))
        for p in PALETTE for cell in np.ndindex(*(n,) * p.arity) if rng.random() < 0.2})
    phi = UnaryTable({p.name: np.zeros(shape) if p.name in zero_unary
                      else rng.normal(0.0, 1.5, shape)
                      for p in PALETTE for shape in [(n,) * p.arity + (p.num_labels,)]})
    program = compile_rules(rules, kb)
    (q_split, t_split), (q_whole, t_whole) = _iterate_both(
        phi, program, EngineConfig(iterations=iterations, damping=damping), splits)
    for name in kb.predicates:
        assert _same_bytes(q_split.tables[name], q_whole.tables[name]), name
    assert t_split.residual == t_whole.residual and t_split.changed == t_whole.changed


def test_split_iterate_equals_unsplit_bytes():
    splits = []
    _iterate_matches(splits)
    assert all(splits)


@pytest.mark.parametrize("name", ["kbc", "transitivity", "report"])
def test_split_benchmark_rules_equal_unsplit_bytes(workloads, name):
    inst = workloads.make(name, 11, 24)
    s = workloads.setup(inst, inst.texts.__getitem__)
    program = compile_rules(s.rules, s.kb)
    splits = []
    (q_split, t_split), (q_whole, t_whole) = _iterate_both(
        s.phi, program, EngineConfig(iterations=3, damping=0.2), splits)
    assert splits[0] > 0
    for table in s.kb.predicates:
        assert _same_bytes(q_split.tables[table], q_whole.tables[table]), table
    assert t_split.residual == t_whole.residual and t_split.changed == t_whole.changed
