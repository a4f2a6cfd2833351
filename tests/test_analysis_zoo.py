"""Zoo-wide verification: static verdicts cross-validated against the
dynamic program-check replay.

The acceptance bar for the static verifier: every zoo network builds to
zero error-severity findings at the default formats, and the static
verdict never contradicts :func:`repro.sim.program_check.verify_program`
— a design the static pass calls safe must replay cleanly, and a replay
failure must be caught statically.
"""

import dataclasses

from repro import api
from repro.analysis import analyze_ranges, verify_artifacts
from repro.pipeline import BuildPipeline
from repro.sim.program_check import verify_program
from repro.zoo.models import BENCHMARKS, benchmark_graph


def test_static_and_dynamic_agree_on_every_zoo_net():
    verdicts = {}
    for name in sorted(BENCHMARKS):
        artifacts = api.build(benchmark_graph(name))
        static = verify_artifacts(artifacts)
        dynamic = verify_program(artifacts.program)
        # Acceptance: zero error-severity findings at default formats.
        assert static.ok, (
            f"{name}: static verifier found errors: "
            f"{[f.render() for f in static.errors]}")
        # Cross-validation: static "safe" must never contradict a
        # dynamic replay failure.
        assert dynamic.ok, f"{name}: dynamic replay failed: {dynamic.errors}"
        assert static.ok == dynamic.ok
        verdicts[name] = static.counts()
    assert len(verdicts) == len(BENCHMARKS)
    # Every pass ran on every network.
    for counts in verdicts.values():
        assert set(counts) == {"lint", "ranges", "memory", "control"}


def test_dynamic_failure_is_caught_statically():
    """The reverse direction: a program the replay rejects must not be
    called safe by the static pass."""
    # Private pipeline: this test corrupts the coordinator table in
    # place, which must never reach the shared memoized stage cache.
    artifacts = api.build(benchmark_graph("ann0"),
                          pipeline=BuildPipeline())
    program = artifacts.program
    table = program.coordinator.main_table
    total = program.memory_map.total_elements
    table[0] = dataclasses.replace(table[0], start_address=total + 3)
    assert not verify_program(program).ok
    assert not verify_artifacts(artifacts).ok


def test_range_pass_reads_weights_from_the_image_exactly():
    """The range pass takes quantized weights straight out of the
    program's DRAM image; its findings equal re-quantizing the float
    weights on every zoo network, recurrent ones included."""
    for name in sorted(BENCHMARKS):
        artifacts = api.build(benchmark_graph(name), pipeline=BuildPipeline())
        program = artifacts.program
        assert program.dram_image is not None
        from_image = analyze_ranges(program, artifacts.weights)
        requantized = analyze_ranges(
            dataclasses.replace(program, dram_image=None), artifacts.weights)
        assert from_image == requantized, name
        assert any("actual quantized weights" in f.message
                   for f in from_image), name
