"""The serve_mix plan generator."""

import dataclasses

import pytest

from perfbench import serve

KERNELS = [f"k{i}" for i in range(14)]
POINTS = ["p0", "p1", "p2", "p3", "p4", "p5", "p6"]


def fresh_overrides(streams):
    """Every fresh plan's (field, value) override, in stream order."""
    return [item for stream in streams for plan in stream
            if plan.kind == "fresh"
            for item in plan.request["overrides"].items()]


@pytest.mark.parametrize("seed", range(12))
def test_fresh_overrides_never_repeat_and_are_valid(seed):
    from repro.uarch.config import MachineConfig
    fields = {f.name: f.default for f in dataclasses.fields(MachineConfig)}
    streams = serve.make_streams(seed, KERNELS, POINTS)
    overrides = fresh_overrides(streams)
    assert len(overrides) == len(set(overrides)) == \
        serve.JOBS * serve.PLANS_PER_CLIENT // serve.FRESH_EVERY
    for name, value in overrides:
        assert name in fields
        assert value != fields[name]
        MachineConfig().derive(**{name: value})        # validates


def test_every_candidate_override_is_valid():
    from repro.uarch.config import MachineConfig
    for name, values in serve.FRESH_VALUES.items():
        for value in values:
            MachineConfig().derive(**{name: value})


def test_streams_are_a_pure_function_of_the_seed():
    assert serve.make_streams(7, KERNELS, POINTS) == \
        serve.make_streams(7, KERNELS, POINTS)
    assert serve.make_streams(7, KERNELS, POINTS) != \
        serve.make_streams(8, KERNELS, POINTS)


def test_mix_shape():
    streams = serve.make_streams(3, KERNELS, POINTS)
    assert len(streams) == serve.JOBS
    for stream in streams:
        kinds = [plan.kind for plan in stream]
        assert kinds.count("fresh") * serve.FRESH_EVERY == len(stream)
        replays = {plan.body for plan in stream if plan.kind == "replay"}
        assert len(replays) <= serve.REPLAY_SHAPES
        for plan in stream:
            request = plan.request
            assert len(set(request["kernels"])) == serve.KERNELS_PER_PLAN
            assert len(set(request["points"])) == serve.POINTS_PER_PLAN
            assert ("overrides" in request) == (plan.kind == "fresh")
    # Fresh plans spread their kernels evenly over the permutations.
    fresh_kernels = [k for stream in streams for plan in stream
                     if plan.kind == "fresh"
                     for k in plan.request["kernels"]]
    counts = {k: fresh_kernels.count(k) for k in KERNELS}
    assert max(counts.values()) - min(counts.values()) <= 1


def test_too_many_fresh_plans_is_refused():
    with pytest.raises(ValueError):
        serve.make_streams(1, KERNELS, POINTS, plans=10_000)
