"""Unit tests for KnobConfiguration (validation, budget, repair)."""

import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.dbsim.config import (
    KnobConfiguration,
    MemoryBudgetError,
    effective_sessions,
    fit_values_to_budget,
)
from repro.dbsim.knobs import postgres_catalog


class TestConstruction:
    def test_defaults(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        assert cfg["work_mem"] == 4

    def test_override(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"work_mem": 64})
        assert cfg["work_mem"] == 64

    def test_out_of_range_rejected(self, pg_catalog):
        with pytest.raises(ValueError, match="work_mem"):
            KnobConfiguration(pg_catalog, {"work_mem": 10**9})

    def test_unknown_knob_rejected(self, pg_catalog):
        with pytest.raises(KeyError):
            KnobConfiguration(pg_catalog, {"nope": 1})

    def test_equality_and_hash(self, pg_catalog):
        a = KnobConfiguration(pg_catalog, {"work_mem": 8})
        b = KnobConfiguration(pg_catalog, {"work_mem": 8})
        c = KnobConfiguration(pg_catalog, {"work_mem": 9})
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_pickle_drops_memoised_hash(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"work_mem": 8})
        before = pickle.dumps(cfg)
        hash(cfg)
        assert pickle.dumps(cfg) == before

    def test_pickle_independent_of_catalog_use(self):
        """Using the catalog's array views leaves a config's pickle alone."""
        catalog = postgres_catalog()
        cfg = KnobConfiguration(catalog)
        before = len(pickle.dumps(cfg))
        catalog.vector_transform_arrays()
        assert len(pickle.dumps(cfg)) == before
        values = np.array([[cfg[name] for name in catalog.names()]])
        fit_values_to_budget(values, catalog, 512.0, 20)
        assert len(pickle.dumps(cfg)) == before

    def test_values_are_floats_from_construction(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        derived = cfg.with_values({"work_mem": 8}).with_values({"work_mem": 4})
        for config in (cfg, derived):
            assert all(type(v) is float for v in config.as_dict().values())
        assert derived == cfg
        assert pickle.dumps(derived) == pickle.dumps(cfg)

    def test_copy_hashed_under_another_seed_keys_like_fresh(self, pg_catalog):
        # Pickle a hashed configuration in a process with its own string
        # hash seed, as a spawned worker or coordinator would.
        script = (
            "import pickle, sys\n"
            "from repro.dbsim.config import KnobConfiguration\n"
            "from repro.dbsim.knobs import catalog_for\n"
            "cfg = KnobConfiguration(catalog_for('postgres'), {'work_mem': 8})\n"
            "hash(cfg)\n"
            "sys.stdout.buffer.write(pickle.dumps(cfg))\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": src}
        payload = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True
        ).stdout
        copy = pickle.loads(payload)
        fresh = KnobConfiguration(pg_catalog, {"work_mem": 8})
        assert copy == fresh
        assert {fresh: 1}[copy] == 1


class TestDerivation:
    def test_with_values_does_not_mutate(self, pg_catalog):
        a = KnobConfiguration(pg_catalog)
        b = a.with_values({"work_mem": 128})
        assert a["work_mem"] == 4
        assert b["work_mem"] == 128

    def test_clamped(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog).clamped({"work_mem": 10**9})
        assert cfg["work_mem"] == pg_catalog.get("work_mem").max_value

    def test_diff(self, pg_catalog):
        a = KnobConfiguration(pg_catalog)
        b = a.with_values({"work_mem": 99, "temp_buffers": 77})
        diff = a.diff(b)
        assert diff == {"work_mem": (4.0, 99.0), "temp_buffers": (8.0, 77.0)}


class TestMemoryBudget:
    def test_effective_sessions_discount(self):
        assert effective_sessions(20) == 5.0
        assert effective_sessions(1) == 1.0

    def test_footprint_components(self, pg_catalog):
        cfg = KnobConfiguration(
            pg_catalog, {"shared_buffers": 1000, "work_mem": 100}
        )
        fp1 = cfg.memory_footprint_mb(1)
        fp20 = cfg.memory_footprint_mb(20)
        assert fp20 > fp1
        assert fp1 >= 1000 + 100

    def test_budget_check_passes(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        cfg.check_memory_budget(4096.0, active_connections=10)

    def test_budget_check_raises(self, pg_catalog):
        cfg = KnobConfiguration(
            pg_catalog, {"shared_buffers": 60_000, "work_mem": 4_000}
        )
        with pytest.raises(MemoryBudgetError, match="buffer"):
            cfg.check_memory_budget(8192.0, active_connections=20)

    def test_invalid_connections(self, pg_catalog):
        with pytest.raises(ValueError):
            KnobConfiguration(pg_catalog).memory_footprint_mb(0)


class TestFittedToBudget:
    def test_already_fitting_returned_unchanged(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        assert cfg.fitted_to_budget(8192.0, 10) is cfg

    def test_buffer_capped_to_share(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"shared_buffers": 60_000})
        fitted = cfg.fitted_to_budget(8000.0, 10)
        assert fitted["shared_buffers"] <= 0.7 * 0.95 * 8000.0 + 1e-6

    def test_working_areas_scaled(self, pg_catalog):
        cfg = KnobConfiguration(
            pg_catalog,
            {"work_mem": 4000, "maintenance_work_mem": 4000, "temp_buffers": 2000},
        )
        fitted = cfg.fitted_to_budget(8000.0, 20)
        fitted.check_memory_budget(8000.0 * 1.001, 20)
        # Relative proportions preserved under uniform scaling.
        assert fitted["work_mem"] == pytest.approx(
            fitted["maintenance_work_mem"], rel=0.01
        )

    def test_result_always_within_knob_ranges(self, pg_catalog):
        cfg = KnobConfiguration(
            pg_catalog, {"work_mem": 4000, "shared_buffers": 60_000}
        )
        fitted = cfg.fitted_to_budget(300.0, 50)
        for knob in pg_catalog:
            assert knob.min_value <= fitted[knob.name] <= knob.max_value

    def test_mysql_flavor(self, my_catalog):
        cfg = KnobConfiguration(
            my_catalog, {"innodb_buffer_pool_size": 60_000, "sort_buffer_size": 900}
        )
        fitted = cfg.fitted_to_budget(4000.0, 20)
        assert fitted["innodb_buffer_pool_size"] < 60_000
        assert fitted["sort_buffer_size"] < 900


class TestClassValues:
    def test_buffer_pool_mb_per_flavor(self, pg_catalog, my_catalog):
        assert KnobConfiguration(pg_catalog).buffer_pool_mb() == 128
        assert KnobConfiguration(my_catalog).buffer_pool_mb() == 128
        assert pg_catalog.buffer_pool_name == "shared_buffers"
        assert my_catalog.buffer_pool_name == "innodb_buffer_pool_size"
