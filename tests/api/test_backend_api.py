"""First-class kernel-backend selection: config, scopes, env, wire, CLI.

The selection chain (explicit arg > ``use_backend`` scope >
``set_default_backend`` > deprecated env var > auto) and its surfaces:
``PipelineConfig.backend`` (excluded from identity), ``PipelineResult``
provenance, the serve config key and the CLI flag.
"""

import numpy as np
import pytest

from repro.api.pipeline import Pipeline, PipelineConfig
from repro.core.backend import (
    BACKEND_ENV_VAR,
    available_backends,
    current_backend,
    get_backend,
    known_backends,
    resolve_backend_name,
    set_default_backend,
    use_backend,
)
from repro.errors import ConfigurationError
from repro.graphs import generators as gen


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(known_backends()) >= {
            "numpy", "numba", "numba-parallel", "auto",
        }

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(ValueError, match="numpy"):
            resolve_backend_name("cuda")


class TestSelectionChain:
    def test_auto_resolves_to_an_available_backend(self):
        assert resolve_backend_name() in available_backends()

    def test_unavailable_backend_degrades(self):
        # Requesting a compiled tier on a host without numba falls back
        # down the chain instead of crashing; with numba present the
        # request is honored exactly.
        resolved = resolve_backend_name("numba")
        if "numba" in available_backends():
            assert resolved == "numba"
        else:
            assert resolved == "numpy"

    def test_numba_import_attempted_at_most_once(self, monkeypatch):
        # A failed import is not cached by Python; resolution runs on
        # every kernel call, so availability must be asked only once.
        import builtins

        from repro.core import backend

        real_import = builtins.__import__
        attempts = []

        def counting_import(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                attempts.append(name)
            return real_import(name, *args, **kwargs)

        backend._numba_importable.cache_clear()
        monkeypatch.setattr(builtins, "__import__", counting_import)
        for _ in range(100):
            resolve_backend_name()
        assert len(attempts) <= 1

    def test_set_default_backend_roundtrip(self):
        set_default_backend("numpy")
        assert get_backend() == "numpy"
        set_default_backend(None)
        assert resolve_backend_name() in available_backends()

    def test_set_default_backend_validates(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_default_backend("tpu")

    def test_use_backend_scopes_and_restores(self):
        set_default_backend("numpy")
        with use_backend("auto"):
            assert resolve_backend_name() in available_backends()
            with use_backend("numpy"):
                assert current_backend().name == "numpy"
        assert get_backend() == "numpy"

    def test_explicit_arg_wins_over_everything(self):
        set_default_backend("numpy")
        with use_backend("numpy"):
            assert resolve_backend_name("auto") in available_backends()

    def test_env_var_still_works_but_warns(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        with pytest.warns(DeprecationWarning, match="set_default_backend"):
            assert resolve_backend_name() == "numpy"

    def test_override_silences_env_warning(self, monkeypatch):
        import warnings

        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        set_default_backend("numpy")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend_name() == "numpy"


class TestPipelineSurface:
    def test_config_validates_backend_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            PipelineConfig(backend="fpga")

    def test_backend_excluded_from_identity(self):
        # Byte identity across backends means the backend choice must
        # not split artifact-store cells or serve batch groups.
        plain = PipelineConfig()
        picked = PipelineConfig(backend="numpy")
        assert plain.identity() == picked.identity()
        assert "backend" not in picked.identity()

    def test_result_records_resolved_backend(self):
        ga = gen.barabasi_albert(60, 3, seed=1)
        pipe = Pipeline(
            "grid4x4",
            PipelineConfig(enhance="none", backend="numpy"),
        )
        res = pipe.run(ga, seed=0)
        assert res.backend == "numpy"

    def test_results_byte_identical_across_requested_backends(self):
        ga = gen.barabasi_albert(60, 3, seed=2)
        results = []
        for name in available_backends():
            pipe = Pipeline("grid4x4", PipelineConfig(backend=name))
            results.append(pipe.run(ga, seed=5))
        ref = results[0]
        for res in results[1:]:
            assert np.array_equal(ref.mu_final, res.mu_final)
            assert ref.coco_after == res.coco_after
            assert ref.identity_hash == res.identity_hash


class TestWireAndCli:
    def test_parse_config_accepts_backend(self):
        from repro.serve.service import parse_config

        cfg = parse_config({"backend": "numpy"})
        assert cfg.backend == "numpy"
        assert "backend" not in cfg.identity()

    def test_serve_settings_carry_backend(self):
        from repro.serve.service import ServeSettings

        assert ServeSettings().backend == ""
        assert ServeSettings(backend="numpy").backend == "numpy"

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "g", "t", "--backend", "numpy"],
            ["enhance", "g", "t", "m", "--backend", "auto"],
            ["serve", "--backend", "numba-parallel"],
        ],
    )
    def test_cli_flag_parses(self, argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(argv)
        assert args.backend == argv[-1]

    def test_healthz_and_metrics_surface_backend(self):
        import asyncio

        from repro.serve.scheduler import BatchScheduler
        from repro.serve.service import MappingService

        scheduler = BatchScheduler(window_s=0.01, max_batch=4)
        try:
            svc = MappingService(scheduler)
            status, body, _ = asyncio.run(svc.handle("healthz", {}))
            assert status == 200
            assert body["kernel_backend"] in available_backends()
            status, body, _ = asyncio.run(
                svc.handle("metrics", {"format": "json"})
            )
            assert body["kernel_backend"] in available_backends()
        finally:
            scheduler.close()
