import itertools
import os
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from einlog import parallel, planner
from einlog.oracle import brute_einsum
from einlog.planner import PlanError, execute, plan
from einlog.tensor import EinsumSpec


def uniform_extents(spec, n):
    parsed = EinsumSpec.parse(spec) if isinstance(spec, str) else spec
    return {c: n for s in (*parsed.inputs, parsed.output) for c in s}


def random_inputs(spec, ext, seed=0):
    parsed = EinsumSpec.parse(spec) if isinstance(spec, str) else spec
    rng = np.random.default_rng(seed)
    return [rng.random(tuple(ext[c] for c in s)) for s in parsed.inputs]


def test_chain_three_operand_plan():
    n = 8
    p = plan("hk,kj,ji->i", uniform_extents("hk,kj,ji->i", n))
    assert len(p.steps) == 2
    assert p.max_intermediate_arity == 3
    assert p.total_cost == 2 * n**3
    # both steps stay within three active indices
    assert all(len({c for s in step.operand_subscripts for c in s}) == 3
               for step in p.steps)


def test_chain_cost_beats_naive():
    n = 16
    p = plan("ab,bc,cd->ad", uniform_extents("ab,bc,cd->ad", n))
    assert p.total_cost == 2 * n**3
    assert p.naive_cost == n**4
    assert p.reducible


def test_single_input_plan():
    p = plan("ab->a", {"a": 4, "b": 4})
    assert len(p.steps) == 1
    assert p.max_intermediate_arity == 2
    assert not p.reducible


def test_unit_clause_zero_cost():
    p = plan("->a", {"a": 5})
    assert p.steps == ()
    assert p.total_cost == 0.0
    out = execute(p, [])
    assert out.shape == (1,)
    assert np.array_equal(np.broadcast_to(out, (5,)), np.ones(5))


@pytest.mark.parametrize("spec", ["a,ab->b", "abcd,bc,cd,ad->ac", "abc,bcd,cb,ad->ac"])
def test_irreducible_examples_fall_back_to_single_step(spec):
    ext = uniform_extents(spec, 4)
    p = plan(spec, ext)
    assert len(p.steps) == 1
    assert not p.reducible
    # M' equals the full index count for these
    assert p.max_intermediate_arity == len(ext)
    assert p.total_cost <= p.naive_cost


PLAN_SPECS = ["hk,kj,ji->i", "hk,kj,ji,h->i", "pi,qj,ijkl,rk,sl->pqrs",
              "a,ab->b", "abcd,bc,cd,ad->ac", "abc,bcd,cb,ad->ac",
              "ab,bc,cd->ad", "ab,bc->c", "aa,ab->b", "ab,cd->ac",
              "ab->ba", "a,a->a", "ab,b,bc->ac", "ab,ac->a", "ab,c->c", "abb,acc,d->ad",
              "ab,bc->ac", "ab,ab->", "abc->b", "aa->a", "ab,cb->ac", "abc,bc->a",
              "a,b,c->abc", "abc,cb->ab"]


@pytest.mark.parametrize("spec", PLAN_SPECS)
def test_execute_matches_brute_force(spec):
    # at extent 3 for every letter, then at drawn extents of 2 to 4, under
    # which axes swapped by mistake mostly no longer fit
    rng = np.random.default_rng(PLAN_SPECS.index(spec))   # str hashes change per process
    for ext in (uniform_extents(spec, 3),
                {c: int(rng.integers(2, 5)) for c in uniform_extents(spec, 1)}):
        ins = random_inputs(spec, ext, seed=42)
        got = execute(plan(spec, ext), ins)
        want = brute_einsum(spec, ins, ext)
        assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("spec", PLAN_SPECS)
def test_monotone_benefit(spec):
    for n in (1, 2, 5):
        ext = uniform_extents(spec, n)
        p = plan(spec, ext)
        assert p.total_cost <= p.naive_cost


def test_private_letters_summed_first_where_two_operands_hold_them():
    n = 10
    p = plan("ab,ac->a", uniform_extents("ab,ac->a", n))
    assert [(s.expr, s.operand_ids, s.est_flops) for s in p.steps] == [
        ("ab->a", (0,), n**2), ("ac->a", (1,), n**2), ("a,a->a", (2, 3), n)]
    assert p.total_cost == 2 * n**2 + n and p.max_intermediate_arity == 2
    # at N = 2 the single step is cheaper (8 against 10)
    assert [s.expr for s in plan("ab,ac->a", uniform_extents("ab,ac->a", 2)).steps] == \
        ["ab,ac->a"]
    # a private letter on one operand only rides along: the listed chain plan
    chain = plan("hk,kj,ji->i", uniform_extents("hk,kj,ji->i", n))
    assert chain.total_cost == 2 * n**3 and len(chain.steps) == 2
    # a repeated letter is taken on the diagonal by its operand's reduction
    p = plan("abb,acc,d->ad", uniform_extents("abb,acc,d->ad", n))
    assert [s.expr for s in p.steps][:2] == ["abb->a", "acc->a"]


def test_chain_execute_matches_direct_at_4():
    spec = "ab,bc,cd->ad"
    ext = uniform_extents(spec, 4)
    ins = random_inputs(spec, ext, seed=1)
    planned = execute(plan(spec, ext), ins)
    direct = brute_einsum(spec, ins)
    assert np.max(np.abs(planned - direct)) <= 1e-10 * max(1.0, np.abs(direct).max())


def test_four_fold_plan_structure():
    # the 4-ary core absorbs the four rank-2 operands one at a time
    spec = "pi,qj,ijkl,rk,sl->pqrs"
    p = plan(spec, uniform_extents(spec, 4))
    assert len(p.steps) == 4
    folded = {s.operand_subscripts[0] for s in p.steps} | {s.operand_subscripts[1] for s in p.steps}
    assert {"pi", "qj", "rk", "sl"} <= folded
    assert max(len(s.result_subscript) for s in p.steps) == 4
    assert p.steps[-1].result_subscript == "pqrs"


def test_plan_is_deterministic():
    spec = "ab,bc,cd,de->ae"
    ext = uniform_extents(spec, 6)
    a = plan(spec, ext)
    b = plan(spec, ext)
    assert a.steps == b.steps
    assert a.total_cost == b.total_cost


def test_greedy_path_beyond_exhaustive_bound():
    # 7 operands: falls back to greedy but must stay correct
    spec = "ab,bc,cd,de,ef,fg,gh->ah"
    ext = uniform_extents(spec, 3)
    p = plan(spec, ext)
    ins = random_inputs(spec, ext, seed=3)
    got = execute(p, ins)
    want = brute_einsum(spec, ins, ext)
    assert np.allclose(got, want, atol=1e-10)
    assert p.total_cost <= p.naive_cost


def test_unknown_extent_rejected():
    with pytest.raises(PlanError, match="unknown extent"):
        plan("ab,bc->ac", {"a": 2, "b": 2})


def test_execute_rejects_wrong_shapes():
    p = plan("ab,bc->ac", {"a": 2, "b": 2, "c": 2})
    with pytest.raises(PlanError, match="shape"):
        execute(p, [np.ones((2, 3)), np.ones((3, 2))])
    with pytest.raises(PlanError, match="operands"):
        execute(p, [np.ones((2, 2))])
    p = plan("ab,bc->ac", {"a": 2, "b": 3, "c": 4})
    assert p.input_shapes == ((2, 3), (3, 4))
    with pytest.raises(PlanError, match="shape"):
        execute(p, [np.ones((3, 2)), np.ones((3, 4))])   # transposed operand
    with pytest.raises(PlanError, match="shape"):
        execute(p, [np.ones(6), np.ones((3, 4))])
    with pytest.raises(PlanError, match="operands"):
        execute(p, [np.ones((2, 3)), np.ones((3, 4)), np.ones((4, 2))])


# every letter order of xy,yz->xz: operand order, each operand transposed or
# not, and both result orders
MATMUL_SPECS = [f"{s},{t}->{r}"
                for l, rt in itertools.product(("xy", "yx"), ("yz", "zy"))
                for s, t in ((l, rt), (rt, l))
                for r in ("xz", "zx")]


@pytest.mark.parametrize("spec", MATMUL_SPECS)
def test_matrix_product_steps_run_as_gemm(spec):
    ext = {"x": 3, "y": 4, "z": 5}
    p = plan(spec, ext)
    (step,) = p.steps
    assert step.kernel == "gemm" and step.expr == spec
    ins = random_inputs(spec, ext, seed=7)
    got = execute(p, ins)
    want = np.einsum(step.expr, *ins, optimize=False)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("spec", ["abc,bc->ac", "bc,ac->abc", "aa,ab->b", "ab,cd->ac",
                                  ",ab->ba", "ab->ba", "ab->a", "a,ab->b",
                                  "abcd,bc,cd,ad->ac"])
def test_other_steps_stay_on_einsum(spec):
    ext = uniform_extents(spec, 3)
    p = plan(spec, ext)
    assert p.steps and all(s.kernel == "einsum" and s.gemm is None for s in p.steps)
    ins = random_inputs(spec, ext, seed=5)
    assert np.allclose(execute(p, ins), brute_einsum(spec, ins, ext), atol=1e-10)


def test_describe_step_format():
    p = plan("ab,bc,cd->ad", uniform_extents("ab,bc,cd->ad", 8))
    text = p.describe()
    assert "cost=512" in text
    assert "M'=3" in text
    first = text.splitlines()[0]
    assert "->" in first and first.endswith("cost=512")
    assert [line.split()[1] for line in text.splitlines()[:2]] == ["kernel=gemm"] * 2


@pytest.mark.parametrize("spec", ["xy,yz->xz", "zy,yx->xz", "ab,bc,cd->ad", "bc,ac->abc",
                                  "ab,ba->", "ab->ba", "abc,bc->ac", "a,ab->b"])
def test_execute_writes_the_last_step_into_out(spec):
    ext = uniform_extents(spec, 6)
    p = plan(spec, ext)
    assert p.fills_output
    ins = random_inputs(spec, ext, seed=11)
    out = np.full(tuple(ext[ch] for ch in EinsumSpec.parse(spec).output), np.nan)
    assert execute(p, ins, out=out) is out
    assert np.array_equal(out, execute(p, ins))   # bit for bit, gemm or einsum


@pytest.mark.parametrize("spec", ["ab->abc", "->ab", "a,b->abc"])
def test_execute_refuses_out_for_a_broadcast_output(spec):
    ext = uniform_extents(spec, 3)
    p = plan(spec, ext)
    assert not p.fills_output
    with pytest.raises(PlanError, match="does not fill its output"):
        execute(p, random_inputs(spec, ext), out=np.empty((3,) * len(p.spec.output)))


# each lowered orientation of a matrix product: spec, whether both operands
# are one array, and the step's (left, right, transpose left, transpose right)
ORIENTATIONS = {"plain": ("ab,bc->ac", False, (0, 1, False, False)),
                "left transposed": ("ba,bc->ac", False, (0, 1, True, False)),
                "right transposed": ("ab,cb->ac", False, (0, 1, False, True)),
                "A At": ("ab,cb->ac", True, (0, 1, False, True)),
                "At A": ("ba,bc->ac", True, (0, 1, True, False))}
FLOOR = 16


@pytest.mark.parametrize("into_out", [False, True])
@pytest.mark.parametrize("n", [FLOOR - 1, FLOOR, 33, 40])
@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_split_product_matches_matmul(split_products, splits, monkeypatch, orientation, n,
                                      into_out):
    monkeypatch.setattr(planner, "_SPLIT_FLOPS", FLOOR ** 3)
    spec, same, gemm = ORIENTATIONS[orientation]
    p = plan(spec, uniform_extents(spec, n))
    (step,) = p.steps
    assert step.gemm == gemm
    rng = np.random.default_rng(n)
    a = rng.random((n, n))
    b = a if same else rng.random((n, n))
    want = np.matmul(a.T if gemm[2] else a, b.T if gemm[3] else b)
    matmul, columns = np.matmul, []   # columns of each product's right operand

    def recording(x, y, **kwargs):
        columns.append(y.shape[1])
        return matmul(x, y, **kwargs)

    def run():
        out = np.full((n, n), np.nan) if into_out else None
        got = execute(p, [a, b], out=out)
        assert out is None or got is out
        return got

    monkeypatch.setattr(np, "matmul", recording)
    got = run()
    if n < FLOOR:
        assert splits == [] and columns == [n] and np.array_equal(got, want)
    else:
        assert splits
        np.testing.assert_allclose(got, want, rtol=1e-13)
        # a symmetric product is upper-triangle blocks, never whole row blocks
        assert (max(columns) < n) if same else (columns == [n, n])
    assert np.array_equal(got, run())   # the split is deterministic
    if same:
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize("shape", [(40, 9, 33), (33, 40, 2), (64, 64, 1), (1, 64, 64)])
def test_split_rectangular_product_matches_matmul(split_products, splits, shape):
    m, k, n = shape
    rng = np.random.default_rng(m)
    a, b = rng.random((m, k)), rng.random((k, n))
    got = execute(plan("ab,bc->ac", {"a": m, "b": k, "c": n}), [a, b])
    assert (splits == []) == (m == 1)   # a single row has nothing to split
    np.testing.assert_allclose(got, a @ b, rtol=1e-13)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_one_split_worker_makes_no_pool(split_products, splits, monkeypatch, orientation):
    monkeypatch.setattr(parallel, "WORKERS", 1)
    spec, same, gemm = ORIENTATIONS[orientation]
    rng = np.random.default_rng(3)
    a = rng.random((40, 40))
    b = a if same else rng.random((40, 40))
    got = execute(plan(spec, uniform_extents(spec, 40)), [a, b])
    assert splits == []
    assert np.array_equal(got, np.matmul(a.T if gemm[2] else a, b.T if gemm[3] else b))


@pytest.mark.parametrize("orientation", ["plain", "A At"])
def test_split_workers_allocate_no_array(split_products, orientation):
    spec, same, _ = ORIENTATIONS[orientation]
    rng = np.random.default_rng(9)
    a = rng.random((256, 256))
    b = a if same else rng.random((256, 256))
    p, out = plan(spec, uniform_extents(spec, 256)), np.empty((256, 256))
    execute(p, [a, b], out=out)   # starts the helper thread
    tracemalloc.start()
    try:
        execute(p, [a, b], out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes // 16   # a few closures, far below one 128 x 256 block


def test_split_product_runs_in_a_forked_child(split_products):
    a = np.random.default_rng(1).random((32, 32))
    p = plan("ab,bc->ac", uniform_extents("ab,bc->ac", 32))
    execute(p, [a, a])   # starts the helper, whose thread a child does not inherit
    parent = parallel._helper.thread
    assert parent is not None and parent.is_alive()
    with warnings.catch_warnings():   # newer Pythons warn on forking with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        ok = np.allclose(execute(p, [a, a]), a @ a, rtol=1e-13)
        child = parallel._helper.thread   # the child's split started its own helper
        os._exit(0 if ok and child is not None and child is not parent
                 and child.is_alive() else 1)
    for _ in range(300):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the split product hung in a forked child")
    assert os.waitstatus_to_exitcode(status) == 0


# (environment, CPUs, split workers): the CPUs over the BLAS threads, at most 2
SPLIT_WORKERS = [({"OPENBLAS_NUM_THREADS": "1"}, 8, 2), ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
                 ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1), ({"OMP_NUM_THREADS": "4"}, 8, 2),
                 ({"OMP_NUM_THREADS": "2"}, 2, 1), ({"MKL_NUM_THREADS": "3"}, 8, 2),
                 ({"MKL_NUM_THREADS": "5"}, 8, 1), ({"OPENBLAS_NUM_THREADS": " 4 "}, 8, 2),
                 ({"OPENBLAS_NUM_THREADS": "16"}, 8, 1),
                 ({}, 8, 1), ({"OPENBLAS_NUM_THREADS": "0"}, 8, 1),
                 ({"OPENBLAS_NUM_THREADS": "abc"}, 8, 1), ({"OPENBLAS_NUM_THREADS": "-1"}, 8, 1),
                 ({"OPENBLAS_NUM_THREADS": ""}, 8, 1),
                 ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "8"}, 8, 1),
                 ({"OPENBLAS_NUM_THREADS": "abc", "MKL_NUM_THREADS": "1"}, 8, 2),
                 ({"OPENBLAS_NUM_THREADS": "8", "OMP_NUM_THREADS": "1"}, 8, 1)]


@pytest.mark.parametrize("environ, cpus, workers", SPLIT_WORKERS)
def test_split_workers_are_the_cpus_over_the_blas_threads(monkeypatch, environ, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert parallel._split_workers(environ) == workers


def test_split_workers_read_this_process():
    cpus = len(os.sched_getaffinity(0))
    assert parallel._split_workers({"OPENBLAS_NUM_THREADS": "1"}) == min(2, cpus)
    assert parallel.WORKERS == parallel._split_workers(os.environ)
