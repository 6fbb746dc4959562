"""Simulator-core sanitizer: invariants, faults, bundles, and replay.

Three layers of coverage:

* **transparency** — a clean sanitized run returns a byte-identical
  result for every design (the sanitizer observes, never participates);
* **detection** — each seeded fault kind (dropped transfer, double
  bank install, stalled retirement) is caught with the right violation
  kind and component;
* **reproduction** — a violation captured to a crash bundle replays to
  the same violation, and ``minimize`` bisects it to a smaller prefix
  that still reproduces;
* **fuzz** — Hypothesis-generated cells over non-default processor
  configs (where the MSHR-leak and retirement watchdogs actually bind)
  run clean and digest-identical under the sanitizer; a diverging cell
  is dumped as a replayable crash bundle.
"""

import dataclasses
import json
import os
import shutil
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.runner import CellSpec, run_cell
from repro.analysis.storage import integrity_digest, result_to_dict
from repro.core.config import design_names
from repro.sanitizer import (
    Sanitizer,
    SanitizerConfig,
    SanitizerViolation,
    SimFault,
    load_bundle,
    minimize_bundle,
    replay_bundle,
)
from repro.sim.processor import Processor, ProcessorConfig
from repro.sim.system import run_system
from repro.workloads.synthetic import TraceSpec, generate_trace

ALL_DESIGNS = ("TLC", "TLCopt500", "SNUCA2", "DNUCA")


def run_pair(design, benchmark="mcf", n_refs=2000, **kwargs):
    plain = run_system(design, benchmark, n_refs=n_refs, seed=7)
    sanitized = run_system(design, benchmark, n_refs=n_refs, seed=7,
                           sanitize=True, **kwargs)
    return plain, sanitized


class TestTransparency:
    """A clean sanitized run is indistinguishable from a plain one."""

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_sanitized_result_identical(self, design):
        plain, sanitized = run_pair(design)
        assert sanitized == plain

    def test_sanitized_run_with_misses_identical(self):
        # swim streams through the cache (~1200 misses at this size),
        # exercising the insert/eviction paths under the bank sweep.
        plain, sanitized = run_pair("TLC", benchmark="swim")
        assert sanitized == plain
        assert plain.l2_misses > 0

    def test_manifest_records_sanitizer_provenance(self):
        from repro.obs import RunObserver

        observer = RunObserver()
        run_system("TLC", "mcf", n_refs=1500, seed=7, sanitize=True,
                   observer=observer)
        digest = observer.manifest.sanitizer
        assert digest["enabled"] is True
        assert digest["checks_run"] >= 1
        assert digest["fault"] is None

        plain_observer = RunObserver()
        run_system("TLC", "mcf", n_refs=1500, seed=7,
                   observer=plain_observer)
        assert plain_observer.manifest.sanitizer is None


class TestFaultDetection:
    """Each seeded fault kind trips its own invariant."""

    def test_dropped_mesh_transfer_breaks_conservation(self):
        with pytest.raises(SanitizerViolation) as exc:
            run_system("SNUCA2", "mcf", n_refs=2000, seed=7,
                       sanitizer=Sanitizer(fault=SimFault("drop_transfer",
                                                          at=40)))
        violation = exc.value
        assert violation.kind == "mesh.conservation"
        assert violation.details["lost"] == 1
        assert violation.details["sent"] == violation.details["delivered"] + 1

    def test_dropped_link_transfer_breaks_conservation(self):
        with pytest.raises(SanitizerViolation) as exc:
            run_system("TLC", "mcf", n_refs=2000, seed=7,
                       sanitizer=Sanitizer(fault=SimFault("drop_transfer",
                                                          at=40,
                                                          channel="link")))
        assert exc.value.kind == "link.conservation"

    def test_double_install_caught_as_duplicate_tag(self):
        # swim misses constantly, so the insert path (where the fault
        # lives) is actually exercised.
        with pytest.raises(SanitizerViolation) as exc:
            run_system("TLC", "swim", n_refs=2000, seed=7,
                       sanitizer=Sanitizer(fault=SimFault("double_install",
                                                          at=3)))
        violation = exc.value
        assert violation.kind == "bank.duplicate_tag"
        assert violation.component.startswith("TLC.")

    def test_stalled_retirement_trips_watchdog(self):
        config = SanitizerConfig(watchdog_stall_cycles=2000)
        with pytest.raises(SanitizerViolation) as exc:
            run_system("TLC", "mcf", n_refs=4000, seed=7,
                       sanitizer=Sanitizer(config=config,
                                           fault=SimFault("stall_retirement",
                                                          at=100)))
        violation = exc.value
        assert violation.kind == "watchdog.no_retirement"
        assert violation.details["stalled_cycles"] > 2000

    def test_violation_as_dict_is_json_ready(self):
        violation = SanitizerViolation("bank.occupancy", "TLC.bank03", 42,
                                       {"set": 1, "occupied": 3, "ways": 2})
        payload = json.loads(json.dumps(violation.as_dict()))
        assert payload["kind"] == "bank.occupancy"
        assert payload["component"] == "TLC.bank03"
        assert payload["cycle"] == 42


class TestUnitChecks:
    """Direct hook-level checks that need no full-system run."""

    def make_sanitizer(self, **config):
        sanitizer = Sanitizer(config=SanitizerConfig(**config))
        processor = types.SimpleNamespace(config=ProcessorConfig())
        sanitizer.attach_processor(processor)
        return sanitizer

    def test_mshr_leak_detected(self):
        sanitizer = self.make_sanitizer()
        with pytest.raises(SanitizerViolation) as exc:
            sanitizer.on_retire(10, 5, outstanding=9)  # mshrs default 8
        assert exc.value.kind == "mshr.leak"

    def test_mshr_leak_detected_at_quiesce(self):
        sanitizer = self.make_sanitizer()
        with pytest.raises(SanitizerViolation) as exc:
            sanitizer.on_quiesce(10, outstanding=9)
        assert exc.value.kind == "mshr.leak"
        assert exc.value.details["at_quiesce"] is True

    def test_sim_fault_parse(self):
        assert SimFault.parse("drop_transfer") == SimFault("drop_transfer")
        assert SimFault.parse("drop_transfer:40") == SimFault(
            "drop_transfer", at=40)
        assert SimFault.parse("drop_transfer:40:mesh") == SimFault(
            "drop_transfer", at=40, channel="mesh")
        for bad in ("explode", "drop_transfer:0", "drop_transfer:x"):
            with pytest.raises(ValueError):
                SimFault.parse(bad)

    def test_fault_round_trips_through_dict(self):
        fault = SimFault("double_install", at=3)
        assert SimFault.from_dict(fault.to_dict()) == fault
        config = SanitizerConfig(check_every=64)
        assert SanitizerConfig.from_dict(config.to_dict()) == config


class TestCrashBundles:
    """Violation -> bundle -> replay -> same violation."""

    def capture(self, tmp_path, **kwargs):
        with pytest.raises(SanitizerViolation) as exc:
            run_system(crash_dir=str(tmp_path / "crashes"), **kwargs)
        bundle_path = getattr(exc.value, "crash_bundle", None)
        assert bundle_path is not None
        return exc.value, load_bundle(bundle_path)

    def test_bundle_contents(self, tmp_path):
        violation, bundle = self.capture(
            tmp_path, design_name="SNUCA2", benchmark="mcf", n_refs=2000,
            seed=7, sanitizer=Sanitizer(fault=SimFault("drop_transfer",
                                                       at=40)))
        assert bundle.design == "SNUCA2"
        assert bundle.benchmark == "mcf"
        assert bundle.seed == 7
        assert bundle.error["type"] == "SanitizerViolation"
        assert bundle.error["kind"] == "mesh.conservation"
        assert bundle.sanitizer["fault"] == {"kind": "drop_transfer",
                                             "at": 40, "channel": None}
        # The trace prefix covers the failure point but not the whole run.
        assert 0 < len(bundle.trace) < 2000
        assert os.path.exists(os.path.join(bundle.path, "bundle.json"))
        assert os.path.exists(os.path.join(bundle.path, "trace.txt"))

    def test_bundle_dir_names_are_deterministic(self, tmp_path):
        for index in range(2):
            with pytest.raises(SanitizerViolation) as exc:
                run_system("SNUCA2", "mcf", n_refs=2000, seed=7,
                           crash_dir=str(tmp_path),
                           sanitizer=Sanitizer(
                               fault=SimFault("drop_transfer", at=40)))
            assert os.path.basename(exc.value.crash_bundle) \
                == f"SNUCA2-mcf-s7-{index:03d}"

    def test_replay_reproduces_each_fault_kind(self, tmp_path):
        cases = [
            dict(design_name="SNUCA2", benchmark="mcf", n_refs=2000, seed=7,
                 sanitizer=Sanitizer(fault=SimFault("drop_transfer", at=40))),
            dict(design_name="TLC", benchmark="swim", n_refs=2000, seed=7,
                 sanitizer=Sanitizer(fault=SimFault("double_install", at=3))),
            dict(design_name="TLC", benchmark="mcf", n_refs=4000, seed=7,
                 sanitizer=Sanitizer(
                     config=SanitizerConfig(watchdog_stall_cycles=2000),
                     fault=SimFault("stall_retirement", at=100))),
        ]
        for case in cases:
            violation, bundle = self.capture(tmp_path, **case)
            outcome = replay_bundle(bundle)
            assert outcome.reproduced, (case, outcome.outcome)
            assert outcome.violation.kind == violation.kind
            assert outcome.violation.component == violation.component

    def test_minimize_shrinks_and_still_reproduces(self, tmp_path):
        _, bundle = self.capture(
            tmp_path, design_name="SNUCA2", benchmark="mcf", n_refs=2000,
            seed=7, sanitizer=Sanitizer(fault=SimFault("drop_transfer",
                                                       at=40)))
        minimal, min_path = minimize_bundle(
            bundle, out_dir=str(tmp_path / "min"))
        assert 0 < minimal < len(bundle.trace)
        min_bundle = load_bundle(min_path)
        assert len(min_bundle.trace) == minimal
        assert min_bundle.minimized_from == bundle.path
        assert replay_bundle(min_bundle).reproduced

    def test_crash_bundle_for_unhandled_exception(self, tmp_path):
        # Any exception escaping the simulation is bundled, sanitizer
        # or not — here an invalid design override.
        from repro.core.config import ConfigError

        with pytest.raises(ConfigError) as exc:
            run_system("TLC", "mcf", n_refs=1000, seed=7,
                       crash_dir=str(tmp_path), banks=31)
        bundle = load_bundle(exc.value.crash_bundle)
        assert bundle.error["type"] == "ConfigError"

    def test_no_bundle_without_crash_dir(self):
        with pytest.raises(SanitizerViolation) as exc:
            run_system("SNUCA2", "mcf", n_refs=2000, seed=7,
                       sanitizer=Sanitizer(fault=SimFault("drop_transfer",
                                                          at=40)))
        assert not hasattr(exc.value, "crash_bundle")


class TestRunnerIntegration:
    """CellSpec / grid plumbing for sanitized execution."""

    def test_sanitize_changes_cache_key(self):
        from repro.analysis.runner import CellSpec, cache_key

        cell = CellSpec(design="TLC", benchmark="mcf", n_refs=1000, seed=7)
        sanitized = dataclasses.replace(cell, sanitize=True)
        assert cache_key(cell) != cache_key(sanitized)

    def test_run_cell_sanitized_identical(self):
        from repro.analysis.runner import CellSpec, run_cell

        cell = CellSpec(design="TLC", benchmark="mcf", n_refs=1500, seed=7)
        assert run_cell(dataclasses.replace(cell, sanitize=True)) \
            == run_cell(cell)

    def test_retry_escalates_to_sanitized_rerun(self):
        from repro.analysis.resilience import _attempt_cell
        from repro.analysis.runner import CellSpec

        cell = CellSpec(design="TLC", benchmark="mcf", n_refs=1000, seed=7)
        assert _attempt_cell(cell, 1) is cell
        assert _attempt_cell(cell, 2).sanitize is True
        already = dataclasses.replace(cell, sanitize=True)
        assert _attempt_cell(already, 2) is already

    def test_retry_escalation_counts_telemetry(self):
        from repro.analysis.resilience import (
            FaultPlan,
            FaultSpec,
            RetryPolicy,
            RunnerTelemetry,
        )
        from repro.analysis.runner import CellSpec, execute_cells_detailed

        cells = [CellSpec(design="TLC", benchmark="mcf", n_refs=1000, seed=7)]
        plan = FaultPlan(faults=(FaultSpec(design="TLC", benchmark="mcf",
                                           action="raise", attempts=(1,)),))
        telemetry = RunnerTelemetry()
        outcomes = execute_cells_detailed(
            cells, policy=RetryPolicy(max_retries=2, backoff_base_s=0.0),
            fault_plan=plan, telemetry=telemetry)
        assert outcomes[0].attempts == 2
        assert telemetry["sanitized_retries"] == 1
        # The outcome still describes the cell as specified (unsanitized):
        # the escalation is execution provenance, not a different cell.
        assert outcomes[0].cell.sanitize is False


def result_digest(result) -> str:
    return integrity_digest(result_to_dict(result))


def _dump_divergence_bundle(crash_dir, cell: CellSpec, plain, sanitized):
    """Write a fuzz cell whose sanitized result diverged from the plain
    one as a replayable crash bundle."""
    from repro.sanitizer.bundle import write_crash_bundle

    error = AssertionError(
        f"sanitizer changed the result: plain digest "
        f"{result_digest(plain)[:16]} != sanitized digest "
        f"{result_digest(sanitized)[:16]}")
    trace = generate_trace(cell.trace_spec, cell.n_refs, seed=cell.seed)
    config = cell.processor_config or ProcessorConfig()
    return write_crash_bundle(
        str(crash_dir),
        design=cell.design,
        benchmark=cell.benchmark,
        seed=cell.seed,
        warmup_refs=int(cell.n_refs * cell.warmup_fraction),
        trace=trace,
        error=error,
        processor_config=dataclasses.asdict(config),
        tech=cell.tech.name,
        memory_latency_cycles=cell.memory_latency_cycles,
    )


# Small, fast cells spanning the stall machinery: tiny windows and MSHR
# counts make the ROB/MSHR/dependence paths bind (and with them the
# sanitizer's MSHR-leak and retirement watchdogs), tiny gaps stress the
# issue-cycle remainder carry.
fuzz_cells = st.builds(
    CellSpec,
    design=st.sampled_from(sorted(design_names())),
    benchmark=st.just("fuzz"),
    n_refs=st.integers(min_value=200, max_value=800),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    warmup_fraction=st.sampled_from([0.0, 0.25, 0.5]),
    processor_config=st.builds(
        ProcessorConfig,
        issue_width=st.sampled_from([1, 2, 4]),
        rob_entries=st.sampled_from([16, 64, 128]),
        mshrs=st.sampled_from([1, 2, 8]),
        l1_latency=st.sampled_from([0, 3]),
    ),
    trace_spec=st.builds(
        TraceSpec,
        mean_gap=st.sampled_from([1.0, 3.0, 12.0, 40.0]),
        stream_fraction=st.sampled_from([0.0, 0.3]),
        cold_fraction=st.sampled_from([0.0, 0.2]),
        hot_blocks=st.sampled_from([64, 512, 2048]),
        write_fraction=st.sampled_from([0.0, 0.3, 0.8]),
        dependent_fraction=st.sampled_from([0.0, 0.5]),
    ),
)


class TestSanitizerFuzz:
    """Random cells run clean under the sanitizer, plain ≡ sanitized."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cell=fuzz_cells)
    def test_random_cells_clean_and_identical(self, cell, tmp_path_factory):
        plain = run_cell(cell)
        # A violation raises SanitizerViolation here and fails the cell.
        sanitized = run_cell(dataclasses.replace(cell, sanitize=True))
        if result_digest(plain) != result_digest(sanitized):
            crash_dir = tmp_path_factory.mktemp("divergence")
            bundle = _dump_divergence_bundle(crash_dir, cell, plain,
                                             sanitized)
            pytest.fail(f"sanitized run diverged on {cell}; crash bundle "
                        f"written to {bundle} (repro replay {bundle})")

    def test_divergence_dumps_replayable_bundle(self, tmp_path,
                                                monkeypatch):
        """The dump path itself, proven against a deliberately broken
        replay loop: the bundle must load and replay."""
        cell = CellSpec(design="TLC", benchmark="fuzz", n_refs=400, seed=5,
                        trace_spec=TraceSpec(mean_gap=10.0))
        plain = run_cell(cell)

        healthy_run = Processor.run

        def off_by_one(self, trace, warmup_refs=0):
            result = healthy_run(self, trace, warmup_refs)
            return dataclasses.replace(result, cycles=result.cycles + 1)

        monkeypatch.setattr(Processor, "run", off_by_one)
        broken = run_cell(dataclasses.replace(cell, sanitize=True))
        monkeypatch.undo()
        assert result_digest(plain) != result_digest(broken)

        bundle_path = _dump_divergence_bundle(tmp_path, cell, plain, broken)
        bundle = load_bundle(bundle_path)
        assert bundle.error["type"] == "AssertionError"
        assert len(bundle.trace) == cell.n_refs
        outcome = replay_bundle(bundle)
        # A healthy simulator replays the cell cleanly — the bundle's
        # value is the preserved diverging trace, not a violation.
        assert outcome.refs == cell.n_refs


class TestCLI:
    def test_sanitized_run_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["run", "TLC", "mcf", "--refs", "1500",
                     "--sanitize"]) == 0
        assert "sanitizer: clean" in capsys.readouterr().out

    def test_injected_fault_exits_three_with_bundle(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["run", "SNUCA2", "mcf", "--refs", "2000",
                     "--inject-fault", "drop_transfer:40",
                     "--crash-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "mesh.conservation" in err
        assert "crash bundle written to" in err

    def test_replay_command_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "SNUCA2", "mcf", "--refs", "2000",
                     "--inject-fault", "drop_transfer:40",
                     "--crash-dir", str(tmp_path)]) == 3
        capsys.readouterr()
        bundles = sorted(os.listdir(tmp_path))
        assert bundles == ["SNUCA2-mcf-s7-000"]
        assert main(["replay", str(tmp_path / bundles[0])]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_replay_rejects_bad_bundle(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["replay", str(tmp_path / "nope")]) == 2
        assert "cannot load bundle" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def drop_bundle(self, tmp_path_factory):
        """A pristine ``drop_transfer:40`` crash bundle to tamper with."""
        with pytest.raises(SanitizerViolation) as exc:
            run_system("SNUCA2", "mcf", n_refs=2000, seed=7,
                       crash_dir=str(tmp_path_factory.mktemp("crashes")),
                       sanitizer=Sanitizer(fault=SimFault("drop_transfer",
                                                          at=40)))
        return exc.value.crash_bundle

    @pytest.mark.parametrize("tamper, reason", [
        (lambda doc: doc["sanitizer"]["config"].update(retired_knob=1),
         "unexpected keyword argument 'retired_knob'"),
        (lambda doc: doc["sanitizer"]["fault"].pop("kind"),
         "KeyError: 'kind'"),
        (lambda doc: doc["processor_config"].update(fetch_width=4),
         "unexpected keyword argument 'fetch_width'"),
        (lambda doc: doc.update(format_version=1),
         "unsupported bundle format 1"),
    ], ids=["unknown-sanitizer-key", "fault-without-kind",
            "unknown-processor-key", "format-1"])
    def test_replay_undecodable_bundle_exits_two(self, drop_bundle, tmp_path,
                                                 capsys, tamper, reason):
        # A bundle this build cannot decode is "not replayable" (exit
        # 2), never a different failure of the run it recorded (exit 1).
        from repro.cli import main

        bundle = str(tmp_path / "bundle")
        shutil.copytree(drop_bundle, bundle)
        document_path = os.path.join(bundle, "bundle.json")
        with open(document_path, encoding="utf-8") as handle:
            document = json.load(handle)
        tamper(document)
        with open(document_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert main(["replay", bundle]) == 2
        assert reason in capsys.readouterr().err

    def test_bad_fault_spec_exits_two(self, capsys):
        from repro.cli import main

        assert main(["run", "TLC", "mcf", "--refs", "100",
                     "--inject-fault", "explode"]) == 2


class TestGridEquivalenceSanitized:
    """The sanitized grid must byte-match the pre-sanitizer golden grid."""

    GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                          "grid_equivalence.json")

    def test_sanitized_grid_matches_golden_bytes(self, tmp_path):
        from repro.analysis.runner import run_grid
        from repro.analysis.storage import save_grid

        grid = run_grid(designs=("SNUCA2", "DNUCA", "TLC", "TLCopt500"),
                        benchmarks=("perl", "bzip", "mcf", "swim"),
                        n_refs=3000, seed=7, sanitize=True)
        out = tmp_path / "grid.json"
        save_grid(str(out), grid)
        with open(self.GOLDEN, "rb") as handle:
            golden_bytes = handle.read()
        assert out.read_bytes() == golden_bytes
