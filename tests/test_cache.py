"""Persistent cross-process cache: store contract and wiring.

Covers the :mod:`repro.cache` store itself (content keys, atomic
round trips, miss tolerance), its activation precedence
(``configure`` > ``REPRO_CACHE_DIR``), characterization-table
persistence, and the ISSUE 6 acceptance
criterion: a second *process* sharing the same cache root completes
a NOR4 characterization job measurably faster, via the asserted
cache-hit path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import cache
from repro.api import Session, VersionRequest
from repro.core.multi_input import paper_generalized
from repro.library.characterize import (CharacterizationJob,
                                        characterize_gate)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _clean_cache_state(monkeypatch):
    """Every test starts unconfigured and without the env override."""
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    cache.unconfigure()
    yield
    cache.unconfigure()


class TestContentKey:
    def test_order_independent(self):
        a = cache.content_key({"x": 1, "y": [1.5, 2.5]})
        b = cache.content_key({"y": [1.5, 2.5], "x": 1})
        assert a == b and len(a) == 64

    def test_content_sensitive(self):
        a = cache.content_key({"kind": "t", "v": 1.0})
        b = cache.content_key({"kind": "t", "v": 1.0000001})
        assert a != b


class TestDiskCache:
    def test_json_round_trip(self, tmp_path):
        store = cache.DiskCache(tmp_path)
        key = cache.content_key({"k": 1})
        assert store.get_json(key) is None
        store.put_json(key, {"delays": [1.0, 2.0], "gate": "nor2"})
        assert store.get_json(key) == {"delays": [1.0, 2.0],
                                       "gate": "nor2"}
        assert store.hits == 1 and store.misses == 1
        assert store.writes == 1 and len(store) == 1

    def test_corrupt_entry_is_a_miss_and_counted(self, tmp_path):
        store = cache.DiskCache(tmp_path)
        key = cache.content_key({"k": 2})
        store.put_json(key, {"fine": True})
        path = store._path(key, ".json")
        path.write_text("{ truncated")
        assert store.get_json(key) is None
        assert store.misses == 1
        assert store.corrupt == 1  # visible, not silent
        # And recoverable: the writer just overwrites it.
        store.put_json(key, {"fine": True})
        assert store.get_json(key) == {"fine": True}
        assert store.corrupt == 1

    def test_plain_misses_are_not_corrupt(self, tmp_path):
        store = cache.DiskCache(tmp_path)
        assert store.get_json(cache.content_key({"k": 4})) is None
        assert store.get_json(cache.content_key({"k": 5})) is None
        assert store.misses == 2
        assert store.corrupt == 0

    def test_clear(self, tmp_path):
        store = cache.DiskCache(tmp_path)
        for index in range(3):
            store.put_json(cache.content_key({"i": index}),
                           {"i": index})
        assert len(store) == 3
        assert store.clear() == 3
        assert len(store) == 0

    def test_schema_versioned_layout(self, tmp_path):
        store = cache.DiskCache(tmp_path)
        key = cache.content_key({"k": 3})
        store.put_json(key, {})
        expected = (tmp_path / f"v{cache.SCHEMA_VERSION}" / key[:2]
                    / f"{key}.json")
        assert expected.is_file()

    def test_info(self, tmp_path):
        store = cache.DiskCache(tmp_path)
        info = store.info()
        assert info == {"dir": str(tmp_path), "hits": 0, "misses": 0,
                        "writes": 0, "corrupt": 0, "entries": 0}


class TestActivation:
    def test_off_by_default(self):
        assert cache.get_store() is None

    def test_env_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
        store = cache.get_store()
        assert store is not None
        assert store.root == Path(tmp_path)
        # Same root -> same instance, so counters aggregate.
        assert cache.get_store() is store

    def test_configure_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "env"))
        configured = cache.configure(tmp_path / "explicit")
        assert cache.get_store() is configured
        assert configured.root == tmp_path / "explicit"

    def test_configure_none_disables_despite_env(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
        assert cache.configure(None) is None
        assert cache.get_store() is None
        cache.unconfigure()
        assert cache.get_store() is not None


class TestCharacterizationPersistence:
    def _job(self) -> CharacterizationJob:
        deltas = tuple(np.linspace(-1.0e-10, 1.0e-10, 7))
        return CharacterizationJob("nor4_cached",
                                   paper_generalized(4), "nor4",
                                   deltas=deltas)

    def test_second_call_hits(self, tmp_path):
        store = cache.configure(tmp_path)
        table = characterize_gate(self._job())
        writes = store.writes
        assert writes >= 1
        again = characterize_gate(self._job())
        assert store.writes == writes  # nothing recomputed
        assert store.hits >= 1
        assert again.to_dict() == table.to_dict()

    def test_second_process_is_faster_via_cache_hit(self, tmp_path):
        """ISSUE 6 acceptance: cold vs warm across real processes."""
        script = (
            "import json, time\n"
            "import numpy as np\n"
            "from repro import cache\n"
            "from repro.core.multi_input import paper_generalized\n"
            "from repro.library.characterize import (\n"
            "    CharacterizationJob, characterize_gate)\n"
            "deltas = tuple(np.linspace(-1.0e-10, 1.0e-10, 7))\n"
            "job = CharacterizationJob('nor4_cached',\n"
            "                          paper_generalized(4), 'nor4',\n"
            "                          deltas=deltas)\n"
            "start = time.perf_counter()\n"
            "table = characterize_gate(job)\n"
            "elapsed = time.perf_counter() - start\n"
            "payload = dict(cache.get_store().info(),\n"
            "               elapsed=elapsed,\n"
            "               probe=table.falling.delays_at(\n"
            "                   np.zeros((1, 3)))[0])\n"
            "print(json.dumps(payload))\n")
        env = dict(os.environ, PYTHONPATH=SRC_DIR,
                   REPRO_CACHE_DIR=str(tmp_path))

        def run() -> dict:
            result = subprocess.run([sys.executable, "-c", script],
                                    capture_output=True, text=True,
                                    env=env, check=True, timeout=120)
            return json.loads(result.stdout.strip().splitlines()[-1])

        cold = run()
        warm = run()
        assert cold["hits"] == 0 and cold["writes"] >= 1
        assert warm["hits"] >= 1 and warm["writes"] == 0
        assert warm["probe"] == cold["probe"]
        assert warm["elapsed"] < cold["elapsed"]


class TestSessionWiring:
    def test_cache_dir_configures_store(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        store = cache.get_store()
        assert store is not None and store.root == Path(tmp_path)
        info = session.cache_info()
        assert info["disk"]["dir"] == str(tmp_path)
        assert set(info["disk"]) == {"dir", "hits", "misses",
                                     "writes", "corrupt", "entries"}

    def test_corrupt_counter_surfaces_in_cache_info(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        store = cache.get_store()
        key = cache.content_key({"k": "session-corrupt"})
        store.put_json(key, {"fine": True})
        store._path(key, ".json").write_text("{ nope")
        assert store.get_json(key) is None
        assert session.cache_info()["disk"]["corrupt"] == 1

    def test_cache_info_has_no_disk_entry_when_off(self):
        assert "disk" not in Session().cache_info()

    def test_version_reports_cache(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        report = session.run(VersionRequest()).cache
        assert report["enabled"] is True
        assert report["dir"] == str(tmp_path)
        assert {"hits", "misses", "writes",
                "entries"} <= set(report)

    def test_version_reports_disabled_without_root(self):
        report = Session().run(VersionRequest()).cache
        assert report == {"enabled": False}

    def test_version_json_envelope_carries_cache(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        payload = json.loads(session.run(VersionRequest()).to_json())
        assert payload["data"]["cache"]["enabled"] is True
