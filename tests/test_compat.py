"""Backwards-compatibility guarantees of the experiment-API redesign.

Every symbol the ``repro`` package exported before the declarative API
landed must still import and work, so downstream scripts keep running.
"""

import warnings

import pytest

import repro

#: ``repro.__all__`` as it was *before* the declarative experiment API —
#: frozen here on purpose: the package may grow, but nothing in this list
#: may ever stop importing.
PRE_API_EXPORTS = [
    "AllocationTrace",
    "AllocatorConfiguration",
    "AllocatorFactory",
    "EasyportWorkload",
    "EnergyModel",
    "EvaluationBackend",
    "ExplorationEngine",
    "ExplorationRecord",
    "ExplorationSettings",
    "IncrementalParetoFront",
    "METRIC_VERSION",
    "MemoryHierarchy",
    "MemoryModule",
    "MergeError",
    "MetricSet",
    "Parameter",
    "ParameterSpace",
    "PoolMapping",
    "PoolSpec",
    "ProcessPoolBackend",
    "ProfileResult",
    "Profiler",
    "Provenance",
    "ResultDatabase",
    "ResultSink",
    "ResultStore",
    "SerialBackend",
    "ShardSpec",
    "StoreRecordSource",
    "StreamingParetoSink",
    "StreamingResultView",
    "TradeoffAnalysis",
    "VTCWorkload",
    "__version__",
    "build_allocator",
    "compact_parameter_space",
    "configuration_from_point",
    "default_parameter_space",
    "easyport_reference_trace",
    "embedded_three_level",
    "embedded_two_level",
    "exploration_report",
    "explore",
    "merge_databases",
    "pareto_front",
    "profile_trace",
    "smoke_parameter_space",
    "vtc_reference_trace",
]


class TestPackageSurface:
    @pytest.mark.parametrize("name", PRE_API_EXPORTS)
    def test_pre_api_export_still_importable(self, name):
        assert getattr(repro, name) is not None

    def test_pre_api_exports_still_declared(self):
        assert set(PRE_API_EXPORTS) <= set(repro.__all__)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_legacy_engine_flow_still_works(self):
        """The pre-API way of running an exploration is untouched."""
        from repro import ExplorationEngine, smoke_parameter_space
        from repro.workloads.synthetic import UniformRandomWorkload

        trace = UniformRandomWorkload(operations=200).generate(seed=1)
        database = ExplorationEngine(smoke_parameter_space(), trace).explore()
        assert len(database) == smoke_parameter_space().size()


class TestCliShims:
    def test_unknown_cli_attribute_still_raises(self):
        import repro.cli

        with pytest.raises(AttributeError):
            repro.cli.NO_SUCH_THING

    def test_old_provenance_artefacts_still_load(self, tmp_path):
        """Artefacts written before spec hashes existed parse (hash='')."""
        from repro.core.results import Provenance

        old = Provenance.from_dict(
            {"fingerprint": "abc", "space": {}, "metric_version": 1}
        )
        assert old.spec_hash == ""
