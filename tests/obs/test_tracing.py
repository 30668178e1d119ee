"""Behavior of the hierarchical span tracer (:mod:`repro.obs.trace`).

Parentage, thread isolation, JSONL round-trips, process-wide
activation precedence, and — load-bearing for the instrumented hot
paths — the zero-spans-while-disabled guarantee.
"""

import json
import threading

import pytest

from repro.obs import trace


def _engine_calls(count: int) -> None:
    """Run *count* instrumented engine calls (one span each)."""
    import numpy as np

    from repro.core.parameters import PAPER_TABLE_I
    from repro.engine import get_engine

    engine = get_engine("vectorized")
    for _ in range(count):
        engine.delays_falling(PAPER_TABLE_I, np.linspace(-4e-11, 4e-11, 8))


@pytest.fixture(autouse=True)
def _clean_activation(monkeypatch):
    """Each test starts (and ends) with tracing fully disabled."""
    monkeypatch.delenv(trace.ENV_VAR, raising=False)
    trace.unconfigure()
    yield
    trace.unconfigure()


class TestSpans:
    def test_span_records_name_duration_and_attrs(self):
        tracer = trace.Tracer()
        with tracer.span("work", n=3) as live:
            live.set(rows=7)
        (record,) = tracer.records()
        assert record["name"] == "work"
        assert record["attrs"] == {"n": 3, "rows": 7}
        assert record["dur_s"] >= 0.0
        assert record["ts"] > 0.0

    def test_nested_spans_record_parentage(self):
        tracer = trace.Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        inner, middle, outer = tracer.records()
        assert [r["name"] for r in (inner, middle, outer)] \
            == ["inner", "middle", "outer"]
        assert outer["parent"] is None
        assert middle["parent"] == outer["id"]
        assert inner["parent"] == middle["id"]
        assert len({r["id"] for r in (inner, middle, outer)}) == 3

    def test_siblings_share_a_parent(self):
        tracer = trace.Tracer()
        with tracer.span("parent"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        first, second, parent = tracer.records()
        assert first["parent"] == parent["id"]
        assert second["parent"] == parent["id"]

    def test_exception_is_recorded_and_propagates(self):
        tracer = trace.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (record,) = tracer.records()
        assert record["attrs"]["error"] == "RuntimeError"

    def test_buffer_is_bounded(self):
        tracer = trace.Tracer(buffer=4)
        for index in range(10):
            with tracer.span("s", index=index):
                pass
        records = tracer.records()
        assert len(records) == 4
        assert [r["attrs"]["index"] for r in records] == [6, 7, 8, 9]

    def test_record_appends_a_backdated_root_span(self, tmp_path):
        sink = tmp_path / "spans.jsonl"
        tracer = trace.Tracer(sink=sink)
        with tracer.span("live"):
            appended = tracer.record("cli.startup", 123.5, 0.75,
                                     phase="import")
        assert appended["parent"] is None
        assert appended["ts"] == 123.5
        assert appended["dur_s"] == 0.75
        assert appended["attrs"] == {"phase": "import"}
        startup, live = tracer.records()
        assert startup["name"] == "cli.startup"
        assert live["parent"] is None  # record() never nests
        assert len({startup["id"], live["id"]}) == 2
        names = {r["name"] for r in trace.read_jsonl(sink)}
        assert names == {"cli.startup", "live"}

    def test_capture_collects_only_the_block(self):
        tracer = trace.Tracer()
        with tracer.span("before"):
            pass
        with tracer.capture() as captured:
            with tracer.span("during"):
                pass
        with tracer.span("after"):
            pass
        assert [r["name"] for r in captured] == ["during"]


class TestThreadIsolation:
    def test_concurrent_threads_never_cross_parent(self):
        """Spans opened on different threads must not adopt each
        other as parents (the threaded-server case)."""
        tracer = trace.Tracer()
        barrier = threading.Barrier(4)

        def worker(tag):
            with tracer.span("outer", tag=tag):
                barrier.wait(timeout=10)
                with tracer.span("inner", tag=tag):
                    pass

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        records = tracer.records()
        assert len(records) == 8
        outers = {r["attrs"]["tag"]: r for r in records
                  if r["name"] == "outer"}
        for record in records:
            if record["name"] != "inner":
                continue
            # Each inner's parent is its own thread's outer.
            assert record["parent"] \
                == outers[record["attrs"]["tag"]]["id"]
        for record in outers.values():
            assert record["parent"] is None

    def test_forked_workers_append_to_the_same_sink(self, monkeypatch,
                                                    tmp_path):
        """Forked workers inherit ``REPRO_TRACE`` and append their own
        spans (tagged with their own pid) to the sink the parent had
        already opened — without corrupting the parent's lines."""
        import multiprocessing
        import os

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        path = tmp_path / "forked.jsonl"
        monkeypatch.setenv(trace.ENV_VAR, f"jsonl:{path}")
        _engine_calls(1)  # opens the sink before the fork
        context = multiprocessing.get_context("fork")
        workers = [context.Process(target=_engine_calls, args=(20,))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        assert [worker.exitcode for worker in workers] == [0, 0]
        records = trace.read_jsonl(path)
        assert len(records) == 41
        assert {record["name"] for record in records} \
            == {"engine.delays"}
        # Span ids are "<pid>-<thread>-<seq>": 20 spans from each
        # worker process, none colliding with another.
        pids = [record["id"].split("-")[0] for record in records]
        parent = f"{os.getpid():x}"
        assert pids.count(parent) == 1
        assert sorted(pids.count(pid) for pid in set(pids)
                      if pid != parent) == [20, 20]
        assert len({record["id"] for record in records}) == 41

    def test_capture_is_per_thread(self):
        tracer = trace.Tracer()
        done = threading.Event()

        def other():
            with tracer.span("other-thread"):
                pass
            done.set()

        with tracer.capture() as captured:
            thread = threading.Thread(target=other)
            thread.start()
            assert done.wait(10)
            thread.join(10)
            with tracer.span("mine"):
                pass
        assert [r["name"] for r in captured] == ["mine"]


class TestJsonl:
    def test_export_round_trip(self, tmp_path):
        tracer = trace.Tracer()
        with tracer.span("a", n=1):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        assert trace.read_jsonl(path) == tracer.records()

    def test_sink_appends_as_spans_finish(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        tracer = trace.Tracer(sink=str(path))
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        tracer.flush()
        names = [r["name"] for r in trace.read_jsonl(path)]
        assert names == ["first", "second"]

    def test_read_jsonl_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        record = {"name": "ok", "id": "1", "parent": None,
                  "ts": 0.0, "dur_s": 0.0, "attrs": {}}
        path.write_text(json.dumps(record) + "\n"
                        + '{"name": "torn", "i')
        assert trace.read_jsonl(path) == [record]


class TestActivation:
    def test_disabled_records_zero_spans(self):
        """The whole point of the no-op path: nothing anywhere."""
        assert trace.active_tracer() is None
        assert not trace.enabled()
        noop = trace.span("anything", n=1)
        with noop as live:
            live.set(more=2)
        assert noop is trace.span("something-else")  # shared singleton

    def test_configure_mem_enables_module_level_span(self):
        tracer = trace.configure("mem")
        assert trace.enabled()
        with trace.span("configured"):
            pass
        assert [r["name"] for r in tracer.records()] == ["configured"]

    def test_environment_activates_jsonl_sink(self, monkeypatch,
                                              tmp_path):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(trace.ENV_VAR, f"jsonl:{path}")
        tracer = trace.active_tracer()
        assert tracer is not None and tracer.sink == str(path)
        with trace.span("from-env"):
            pass
        assert [r["name"] for r in trace.read_jsonl(path)] \
            == ["from-env"]

    def test_configure_none_beats_environment(self, monkeypatch):
        monkeypatch.setenv(trace.ENV_VAR, "mem")
        assert trace.enabled()
        trace.configure(None)
        assert not trace.enabled()
        trace.unconfigure()  # environment rules again
        assert trace.enabled()

    def test_configure_accepts_tracer_instance(self):
        mine = trace.Tracer()
        assert trace.configure(mine) is mine
        assert trace.active_tracer() is mine
