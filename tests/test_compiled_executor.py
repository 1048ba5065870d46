"""The compiled program executor against the Python ``Executor``, its oracle.

Random programs cover every node kind, every behaviour the C tables
express (with and without noise), jittered loops, drawn and given follower
inversions, shared behaviours, tiny block limits and the loop-iteration
cap.  Each must give the same trace columns (or the same error) under both
executors, and leave every behaviour and dispatcher in the same state, so
that a second run continues the same way too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.common.rng import DEFAULT_SEED
from repro.workloads import cfg, compiled
from repro.workloads.behaviors import (
    BiasedBehavior,
    ConditionCell,
    ConditionFollowerBehavior,
    ConditionLeaderBehavior,
    GlobalCorrelatedBehavior,
    LocalCorrelatedBehavior,
    LoopBehavior,
    MarkovBehavior,
    PatternBehavior,
)
from repro.workloads.cfg import (
    CallNode,
    DispatchNode,
    Executor,
    Function,
    IfNode,
    LoopNode,
    Program,
    Sequence,
    StaticBranch,
    Straight,
)
from repro.workloads.generator import generate_program
from repro.workloads.spec95 import SPEC95_BENCHMARKS, profile_for

COLUMNS = ("starts", "num_instructions", "kinds", "takens", "next_starts")
LOOP_CAP = 40
"""The iteration cap the fuzzer runs under, so some loops reach it."""

BEHAVIOURS = ("biased", "random", "loop", "jittered-loop", "pattern",
              "global", "local", "markov", "leader", "follower")


def _behavior_recipe():
    return st.tuples(st.sampled_from(BEHAVIOURS),
                     st.sampled_from([0.0, 0.0, 0.15, 1.0]),
                     st.integers(0, 3),        # cell, or a shape parameter
                     st.sampled_from([None, False, True]),  # follower invert
                     st.booleans())            # share the previous behaviour


def _nodes(depth: int):
    leaves = st.one_of(
        st.tuples(st.just("straight"), st.integers(0, 5)),
        st.tuples(st.just("call"), st.integers(0, 3)))
    if depth == 0:
        return leaves
    inner = _nodes(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.just("seq"), st.lists(inner, max_size=4)),
        st.tuples(st.just("if"), _behavior_recipe(), st.integers(0, 3),
                  inner, st.one_of(st.none(), inner)),
        st.tuples(st.just("loop"), _behavior_recipe(), st.integers(1, 3),
                  inner))


def _branches(spec) -> bool:
    return spec[0] in ("if", "loop") or (
        spec[0] == "seq" and any(_branches(item) for item in spec[1]))


def _terminates(recipe):
    """A run ends: without a block limit, some function holds a branch (the
    dispatcher reaches every function)."""
    _, bodies, max_branches, max_blocks = recipe
    if max_blocks is None and not any(_branches(body) for body in bodies):
        return recipe[:3] + (50,)
    return recipe


PROGRAMS = st.tuples(
    st.integers(0, 2**32 - 1),                              # rng seed
    st.lists(st.tuples(st.just("seq"), st.lists(_nodes(3), min_size=1,
                                                 max_size=5)),
             min_size=1, max_size=4),                       # function bodies
    st.integers(1, 400),                                    # max_branches
    st.one_of(st.none(), st.none(), st.integers(1, 12),
              st.integers(13, 3000)),                       # max_blocks
).map(_terminates)


def build(recipe) -> Program:
    """A fresh program from a recipe: the same recipe builds an identical
    program with identical streams."""
    seed, bodies, _, _ = recipe
    rng = np.random.default_rng(seed)
    cells = [ConditionCell() for _ in range(4)]
    made: list = []
    branch_ids = iter(range(10**6))

    def behavior(spec):
        kind, noise, shape, invert, share = spec
        if share and made:
            return made[-1]
        if kind == "biased":
            made_one = BiasedBehavior(rng, (0.0, 0.3, 0.9, 1.0)[shape],
                                      noise=noise)
        elif kind == "random":
            made_one = BiasedBehavior(rng, 0.5)
        elif kind in ("loop", "jittered-loop"):
            jitter = 0.6 if kind == "jittered-loop" else 0.0
            made_one = LoopBehavior(rng, (1, 3, 8, 60)[shape],
                                    trip_jitter=jitter,
                                    noise=0.0 if jitter else noise)
        elif kind == "pattern":
            made_one = PatternBehavior(rng, ("10", "1101", "0", "110")[shape],
                                       noise=noise)
        elif kind == "global":
            made_one = GlobalCorrelatedBehavior(
                rng, ([1], [2, 5], [1, 9, 66], [64, 65])[shape], noise=noise)
        elif kind == "local":
            made_one = LocalCorrelatedBehavior(rng, shape + 1, noise=noise)
        elif kind == "markov":
            made_one = MarkovBehavior(rng, 0.8, (0.1, 0.5, 0.9, 1.0)[shape],
                                      noise=noise)
        elif kind == "leader":
            made_one = ConditionLeaderBehavior(rng, cells[shape], 0.4,
                                               noise=noise)
        else:
            made_one = ConditionFollowerBehavior(rng, cells[shape], invert,
                                                 noise=noise)
        made.append(made_one)
        return made_one

    def node(spec, callable_functions):
        kind = spec[0]
        if kind == "straight":
            return Straight(spec[1])
        if kind == "call":
            if not callable_functions:
                return Straight(1)
            return CallNode(callable_functions[spec[1]
                                               % len(callable_functions)])
        if kind == "seq":
            return Sequence([node(item, callable_functions)
                             for item in spec[1]])
        if kind == "if":
            _, behavior_spec, lead, then, other = spec
            branch = StaticBranch(next(branch_ids),
                                  behavior(behavior_spec))
            return IfNode(branch, node(then, callable_functions),
                          None if other is None
                          else node(other, callable_functions), lead=lead)
        _, behavior_spec, lead, body = spec
        branch = StaticBranch(next(branch_ids), behavior(behavior_spec))
        return LoopNode(branch, node(body, callable_functions), lead=lead)

    functions: list[Function] = []
    for index, body in enumerate(bodies):
        functions.append(Function(f"f{index}", node(body, functions[:])))
    transition = rng.dirichlet(np.ones(len(functions)), size=len(functions))
    dispatch = DispatchNode(rng, functions, transition)
    return Program("fuzz", functions, dispatch, code_base=0x4000)


def state(program: Program) -> list:
    """Everything a later run depends on: each stream's generator state and
    unused draws, and each behaviour's and the dispatcher's own state."""
    owners = [branch.behavior for branch in program.static_branches()]
    owners.append(program.main)
    snapshot = []
    for owner in owners:
        draws = list(owner._draws)
        owner._draws = iter(draws)
        fields = {name: getattr(owner, name)
                  for name in ("_remaining", "_state", "_self_history",
                               "_table", "_invert")
                  if hasattr(owner, name)}
        cell = getattr(owner, "cell", None)
        snapshot.append((
            type(owner).__name__,
            None if owner._rng is None else owner._rng.bit_generator.state,
            draws, fields, None if cell is None else cell.value))
    return snapshot


def _outcome(run):
    try:
        trace = run()
    except RuntimeError as error:
        return str(error)
    return [getattr(trace, column).tolist() for column in COLUMNS]


def _compiled(program, max_branches, max_blocks):
    def run():
        trace = compiled.run(program, max_branches, max_blocks)
        assert trace is not None, "the compiled executor did not run"
        return trace
    return run


def _python(program, max_branches, max_blocks):
    return lambda: Executor(program.name, max_branches=max_branches,
                            max_blocks=max_blocks).run(program.main)


@settings(max_examples=150)
@given(recipe=PROGRAMS)
def test_compiled_executor_matches_the_python_executor(recipe):
    _, _, max_branches, max_blocks = recipe
    ours, reference = build(recipe), build(recipe)
    assert compiled.covers(ours)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cfg, "_LOOP_ITERATION_CAP", LOOP_CAP)
        for _ in range(2):  # the second run continues from the first's
            assert _outcome(_compiled(ours, max_branches, max_blocks)) == \
                _outcome(_python(reference, max_branches, max_blocks))
            assert state(ours) == state(reference)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 43])
def test_generated_programs_are_covered(seed):
    """The generator builds only what the C tables express, so every
    stand-in trace comes from the compiled executor."""
    for name in SPEC95_BENCHMARKS:
        program = generate_program(profile_for(name).with_seed(seed))
        assert compiled.covers(program), name


def _single(behavior_of, node_of=IfNode, function_type=Function) -> Program:
    """A one-function program around one branch, built afresh."""
    rng = np.random.default_rng(1)
    function = function_type("f", node_of(StaticBranch(0, behavior_of(rng)),
                                          Straight(2)))
    return Program("single", [function],
                   DispatchNode(rng, [function], np.array([[1.0]])),
                   code_base=0x1000)


def test_loop_cap_error_matches(monkeypatch):
    monkeypatch.setattr(cfg, "_LOOP_ITERATION_CAP", LOOP_CAP)

    def capped():
        return _single(lambda rng: LoopBehavior(rng, LOOP_CAP + 5), LoopNode)
    message = _outcome(_compiled(capped(), 100, None))
    assert message.endswith(f"exceeded {LOOP_CAP} iterations")
    assert message == _outcome(_python(capped(), 100, None))


def _nested(depth: int) -> Program:
    rng = np.random.default_rng(6)
    body = IfNode(StaticBranch(0, BiasedBehavior(rng, 0.5, noise=0.1)),
                  Straight(1))
    for _ in range(depth):
        body = Sequence([Straight(1), body])
    function = Function("f", body)
    return Program("deep", [function],
                   DispatchNode(rng, [function], np.array([[1.0]])),
                   code_base=0x1000)


def test_deep_nesting_grows_the_frame_stack():
    ours, reference = _nested(300), _nested(300)
    assert _outcome(_compiled(ours, 50, None)) == \
        _outcome(_python(reference, 50, None))
    assert state(ours) == state(reference)


def test_unbounded_recursion_raises_recursion_error():
    rng = np.random.default_rng(7)
    call = CallNode(None)
    function = Function("f", IfNode(
        StaticBranch(0, BiasedBehavior(rng, 0.0)), call))  # never skips
    call.callee = function
    program = Program("recursive", [function],
                      DispatchNode(rng, [function], np.array([[1.0]])),
                      code_base=0x1000)
    with pytest.raises(RecursionError):
        compiled.run(program, 10**6, None)


def test_main_that_emits_nothing_raises():
    function = Function("f", Straight(1))
    program = Program("idle", [function], Straight(0), code_base=0x1000)
    with pytest.raises(RuntimeError, match="emitted no block"):
        program.run(10)


def test_out_of_range_count_raises_as_the_python_executor_does():
    rng = np.random.default_rng(2)
    function = Function("f", Sequence([
        IfNode(StaticBranch(0, BiasedBehavior(rng, 0.5)), Straight(70_000)),
        Straight(3)]))
    program = Program("wide", [function],
                      DispatchNode(rng, [function], np.array([[1.0]])),
                      code_base=0x1000)
    message = "at most 65535 instructions, got 70000"
    with pytest.raises(ValueError, match=message):
        compiled.run(program, 50, None)
    with pytest.raises(ValueError, match=message):
        Executor("wide", max_branches=50).run(program.main)


def test_program_run_takes_the_compiled_path(monkeypatch):
    recipe = (5, [("if", ("biased", 0.15, 1, None, False), 1,
                   ("straight", 2), None)], 300, None)
    expected = _outcome(_python(build(recipe), 300, None))

    def refuse(self, main):
        raise AssertionError("ran the Python executor")
    monkeypatch.setattr(Executor, "run", refuse)
    assert _outcome(lambda: build(recipe).run(300)) == expected


class _Custom(BiasedBehavior):
    __slots__ = ()


class _CustomFunction(Function):
    __slots__ = ()


UNCOVERED = {
    "noisy-jitter": lambda: _single(
        lambda rng: LoopBehavior(rng, 4, trip_jitter=0.5, noise=0.1),
        LoopNode),
    "behaviour-subclass": lambda: _single(lambda rng: _Custom(rng, 0.5)),
    "function-subclass": lambda: _single(
        lambda rng: BiasedBehavior(rng, 0.5), function_type=_CustomFunction),
}


@pytest.mark.parametrize("shape", sorted(UNCOVERED))
def test_uncovered_shapes_take_the_python_path(shape):
    program = UNCOVERED[shape]()
    assert not compiled.covers(program)
    expected = _outcome(_python(UNCOVERED[shape](), 40, None))
    assert _outcome(lambda: program.run(40)) == expected


def test_no_compiler_takes_the_python_path(monkeypatch, tmp_path):
    recipe = (9, [("loop", ("markov", 0.15, 2, None, False), 1,
                   ("if", ("follower", 0.0, 1, None, False), 0,
                    ("straight", 1), ("straight", 2)))],
              500, None)
    expected = _outcome(_compiled(build(recipe), 500, None))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernels, "_find_compiler", lambda: None)
    kernels._load.cache_clear()
    try:
        program = build(recipe)
        assert compiled.run(program, 500, None) is None
        assert _outcome(lambda: program.run(500)) == expected
    finally:
        kernels._load.cache_clear()
