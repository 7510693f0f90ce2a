"""Tests for the per-circuit C codegen backend and its shared-object cache.

Covers the contract :mod:`repro.simulation.codegen` makes with the engines:
generated kernels are bit-identical to the numpy sweeps, degrade cleanly
when disabled (``REPRO_NATIVE=0``) or when no compiler is available, and the
on-disk object cache hits/misses/recompiles exactly as documented (including
the generic-kernel disk memo that keeps shard workers from re-invoking gcc).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.circuits.program import CircuitProgram
from repro.simulation import _native, codegen
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.vectorized import VectorizedZeroDelaySimulator
from repro.simulation.zero_delay import ZeroDelaySimulator

needs_compiler = pytest.mark.skipif(
    not _native.native_enabled() or _native.find_compiler() is None,
    reason="native kernels disabled or no C compiler available",
)


@pytest.fixture(scope="module")
def program(s298_circuit) -> CircuitProgram:
    return CircuitProgram.of(s298_circuit)


@pytest.fixture
def fresh_kernels():
    """Reset the in-process kernel memos around a test that perturbs them."""
    codegen.clear_codegen_memo()
    _native.clear_kernel_memo()
    yield
    codegen.clear_codegen_memo()
    _native.clear_kernel_memo()


# ----------------------------------------------------------- source generation
def test_generated_source_shape(program):
    source = codegen.generate_source(program)
    # the three entry points the engines bind
    assert "void cg_zd_sweep(" in source
    assert "void cg_ed_eval(" in source
    assert "void cg_ed_eval_cols(" in source
    # gates appear as literal expressions over row slots, not table lookups
    assert "*NW+w]" in source
    # one chunk function per level at minimum
    assert source.count("static void cg_zd_l") >= len(program.levels_all)
    # every non-const gate owns a word function in the dispatch table
    assert source.count("static uint64_t cg_w") >= int(program.non_const.sum())


def test_generated_source_is_deterministic(program):
    assert codegen.generate_source(program) == codegen.generate_source(program)


# ------------------------------------------------------------- bit-identity
@needs_compiler
@pytest.mark.parametrize("width", (1, 64, 130))
def test_codegen_sweep_words_match_numpy(program, width, fresh_kernels):
    rng_seed = 42 + width
    sims = {}
    for sweep in ("groups", "codegen"):
        sim = VectorizedZeroDelaySimulator(program, width=width, sweep=sweep)
        assert sim.sweep == sweep
        sim.randomize_state(np.random.default_rng(rng_seed))
        rng = np.random.default_rng(7)
        for _ in range(4):
            pattern = [int(v) for v in rng.integers(0, 2, size=sim.circuit.num_inputs)]
            sim.step(pattern)
        sims[sweep] = sim
    assert np.array_equal(sims["codegen"].words, sims["groups"].words)


@needs_compiler
def test_compiled_facade_matches_numpy_and_bigint(program, fresh_kernels):
    width = 70
    rng = np.random.default_rng(3)
    patterns = [
        [int(v) for v in rng.integers(0, 1 << 60, size=program.circuit.num_inputs)]
        for _ in range(4)
    ]
    results = {}
    for backend in ("bigint", "numpy", "compiled"):
        sim = ZeroDelaySimulator(program, width=width, backend=backend)
        sim.randomize_state(np.random.default_rng(11))
        energies = [sim.step_and_measure(p) for p in patterns]
        results[backend] = (energies, sim.latch_state())
    assert results["compiled"][0] == results["numpy"][0]
    assert results["compiled"][1] == results["numpy"][1]
    assert results["compiled"][1] == results["bigint"][1]
    assert results["compiled"][0] == results["bigint"][0]


@needs_compiler
@pytest.mark.parametrize("wavefront", (False, True))
def test_event_driven_compiled_matches_numpy(program, wavefront, fresh_kernels):
    width = 130
    lanes = {}
    for backend in ("numpy", "compiled"):
        sim = EventDrivenSimulator(
            program,
            width=width,
            backend=backend,
            delay_model=None,
            wavefront_compaction=wavefront,
        )
        if backend == "compiled":
            assert sim._vec.eval_mode == "codegen"
        sim.reset()
        rng = np.random.default_rng(5)
        total = np.zeros(width)
        for _ in range(4):
            pattern = [int(v) for v in rng.integers(0, 2, size=sim.circuit.num_inputs)]
            total += sim.cycle_lanes(pattern)
        lanes[backend] = (total, sim.values)
    assert np.array_equal(lanes["compiled"][0], lanes["numpy"][0])
    assert lanes["compiled"][1] == lanes["numpy"][1]


# --------------------------------------------------------------- fallbacks
def test_repro_native_zero_disables_codegen(program, fresh_kernels, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert codegen.load_program_kernel(program) is None
    sim = VectorizedZeroDelaySimulator(program, width=64, sweep="codegen")
    assert sim.sweep == "groups"
    # the facade accepts backend="compiled" and silently runs the numpy path
    facade = ZeroDelaySimulator(program, width=64, backend="compiled")
    assert facade.backend == "compiled"
    assert facade._vec.sweep == "groups"


@needs_compiler
def test_fallback_is_bit_identical(program, fresh_kernels, monkeypatch):
    """REPRO_NATIVE=0 changes only the sweep strategy, never the results."""
    width = 66
    rng = np.random.default_rng(9)
    patterns = [
        [int(v) for v in rng.integers(0, 2, size=program.circuit.num_inputs)]
        for _ in range(4)
    ]

    def run() -> tuple:
        sim = ZeroDelaySimulator(program, width=width, backend="compiled")
        sim.randomize_state(np.random.default_rng(21))
        energies = [sim.step_and_measure(p) for p in patterns]
        return energies, sim.latch_state(), sim._vec.sweep

    fast = run()
    monkeypatch.setenv("REPRO_NATIVE", "0")
    codegen.clear_codegen_memo()
    _native.clear_kernel_memo()
    slow = run()
    assert fast[2] == "codegen" and slow[2] == "groups"
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]


def test_codegen_failure_is_memoized(program, fresh_kernels, monkeypatch):
    """A failed build is remembered: one probe, not one per engine."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    calls = []

    def failing(source, tag, optimize="-O2"):
        calls.append(tag)
        return None

    monkeypatch.setattr(_native, "compile_and_load", failing)
    assert codegen.load_program_kernel(program) is None
    assert codegen.load_program_kernel(program) is None
    assert len(calls) == 1


# ------------------------------------------------------------- disk cache
@needs_compiler
def test_disk_cache_hit_miss_and_corrupt(program, fresh_kernels, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_PROGRAM_CACHE", str(tmp_path))
    before = _native.compiler_invocations()
    assert codegen.load_program_kernel(program) is not None
    assert _native.compiler_invocations() == before + 1
    path = codegen.program_kernel_path(program)
    assert path is not None and os.path.exists(path)

    # fresh memo + existing object: pure disk hit, no compiler
    codegen.clear_codegen_memo()
    assert codegen.load_program_kernel(program) is not None
    assert _native.compiler_invocations() == before + 1

    # corrupt object (e.g. a write truncated by a crash): a fresh process —
    # dlopen caches by pathname, so only a process that never loaded the
    # object exercises this path, which is also the real-world scenario —
    # silently unlinks and recompiles it.
    os.unlink(path)
    with open(path, "wb") as handle:
        handle.write(b"not a shared object")
    script = (
        "from repro.circuits.iscas89 import build_circuit\n"
        "from repro.circuits.program import CircuitProgram\n"
        "from repro.simulation import _native, codegen\n"
        "program = CircuitProgram.of(build_circuit('s298'))\n"
        "assert codegen.load_program_kernel(program) is not None\n"
        "print(_native.compiler_invocations())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("REPRO_NATIVE", None)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1"  # exactly the one recompile
    assert os.path.getsize(path) > len(b"not a shared object")


@needs_compiler
def test_stale_objects_are_cleaned(program, fresh_kernels, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_PROGRAM_CACHE", str(tmp_path))
    stale = tmp_path / f"{program.key}.cg{codegen.CODEGEN_VERSION}.k0.0123456789abcdef.so"
    stale.write_bytes(b"old")
    assert codegen.load_program_kernel(program) is not None
    assert not stale.exists()
    assert os.path.exists(codegen.program_kernel_path(program))


@needs_compiler
def test_ensure_program_kernel_reports(program, fresh_kernels, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_PROGRAM_CACHE", str(tmp_path))
    report = codegen.ensure_program_kernel(program)
    assert report["enabled"] is True
    assert report["cache_hit"] is False
    assert report["path"] == codegen.program_kernel_path(program)
    assert report["size_bytes"] and report["size_bytes"] > 0
    assert report["source_digest"] == _native.source_digest(codegen.generate_source(program))

    codegen.clear_codegen_memo()
    again = codegen.ensure_program_kernel(program)
    assert again["cache_hit"] is True


@needs_compiler
def test_generic_kernel_disk_memo_spares_gcc(tmp_path):
    """A second process finds the generic kernel on disk: zero invocations."""
    script = (
        "from repro.simulation import _native\n"
        "kernel = _native.load_kernel()\n"
        "assert kernel is not None\n"
        "print(_native.compiler_invocations())\n"
    )
    env = {
        **os.environ,
        "REPRO_PROGRAM_CACHE": str(tmp_path),
        "PYTHONPATH": os.pathsep.join(sys.path),
    }
    env.pop("REPRO_NATIVE", None)
    cold = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.strip() == "1"
    warm = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout.strip() == "0"
