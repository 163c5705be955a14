"""Determinism of the benchmark's inputs, counts and output digests.

    python3 -m pytest perfbench -q

Counts that do not depend on the machine (calls, LLL dimension sums,
enumerated vectors, candidates, walls, planes, refusals) and the
digest of every exact output must repeat exactly for a seed, traced or not;
another seed must give other inputs.  A timed run cycles through its batch
of inputs, and every repeat must answer as the first call did.  Only a
workload's one known refusal is counted as refused; any other error fails
the call.
"""
import dataclasses
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CALLS = {"fiber-k3": 1, "walls-hyp": 30}
TOP = {
    "fiber-k3": "periods.fiber_connectivity_experiment",
    "walls-hyp": "enumeration.separating_walls",
}


@pytest.fixture(scope="module")
def bbf():
    module, error = run.import_bbf()
    assert error is None, error
    return module


def _inputs(bbf, name, seed):
    workload = WORKLOADS[name]
    lattices = workload.lattices(bbf, bbf.builtin_catalog())
    return list(islice(workload.inputs(bbf, lattices, seed), CALLS[name]))


def _run(bbf, name, seed):
    """Digests and refusals of the untraced and traced calls, and the
    machine-independent counts of the traced ones."""
    workload = WORKLOADS[name]
    lattices = workload.lattices(bbf, bbf.builtin_catalog())
    inputs = _inputs(bbf, name, seed)
    plain, traced, tracer = run.measure_traced(bbf, workload, lattices, inputs, len(inputs))
    for m in (plain, traced):
        assert m.failed == 0, m.problems
        assert m.attempted == CALLS[name]
    counts = {k: v for k, (v, unit) in tracer.metrics().items() if unit in ("count", "ratio")}
    return plain.digest, traced.digest, plain.refused, traced.refused, counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_exactly(bbf, name):
    first, second = _run(bbf, name, 7), _run(bbf, name, 7)
    assert first == second
    plain_digest, traced_digest, plain_refused, traced_refused, counts = first
    assert plain_digest == traced_digest
    assert plain_refused == traced_refused
    assert counts[TOP[name] + ".calls"] == CALLS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_gives_other_inputs(bbf, name):
    assert _inputs(bbf, name, 7) == _inputs(bbf, name, 7)
    assert _inputs(bbf, name, 7) != _inputs(bbf, name, 8)


@pytest.mark.parametrize(
    "error, refused, failed",
    [
        ("refusal", 1, 0),
        ("other-invariant", 0, 1),
        ("signature", 0, 1),
    ],
)
def test_only_the_known_refusal_is_refused(bbf, error, refused, failed):
    fiber = WORKLOADS["fiber-k3"]
    exc = {
        "refusal": bbf.InvariantViolation(fiber.refusal),
        "other-invariant": bbf.InvariantViolation("could not sample an accepted fiber point"),
        "signature": bbf.SignatureError("not positive definite"),
    }[error]

    def call(bbf, lattices, inp):
        raise exc

    m = run.Measurement()
    m.call(bbf, dataclasses.replace(fiber, call=call), {}, ((0,) * 22, 1))
    assert (m.refused, m.failed, m.attempted, m.latencies) == (refused, failed, 1, [])


def test_timed_run_cycles_through_its_batch(bbf):
    walls = dataclasses.replace(WORKLOADS["walls-hyp"], batch=3)
    lattices = walls.lattices(bbf, bbf.builtin_catalog())
    m = run.measure(bbf, walls, lattices, walls.inputs(bbf, lattices, 7), seconds=0.2)
    plain, _, _ = run.measure_traced(bbf, walls, lattices, walls.inputs(bbf, lattices, 7), 3)
    assert m.attempted > 3 and m.failed == 0, m.problems
    assert sorted(m.fastest) == sorted(m.planes) == [0, 1, 2]
    assert len(m.latencies) == 3
    assert m.digest == plain.digest


def test_a_repeat_that_answers_otherwise_fails(bbf):
    walls = WORKLOADS["walls-hyp"]
    lattices = walls.lattices(bbf, bbf.builtin_catalog())
    inp = next(walls.inputs(bbf, lattices, 7))
    answers = iter([walls.call(bbf, lattices, inp), []])
    flaky = dataclasses.replace(walls, call=lambda bbf, lattices, inp: next(answers))
    m = run.Measurement()
    m.call(bbf, flaky, lattices, inp, 0)
    assert m.failed == 0, m.problems
    m.call(bbf, flaky, lattices, inp, 0)
    assert (m.attempted, m.failed, len(m.latencies)) == (2, 1, 1)
