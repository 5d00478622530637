"""Batch-map execution path: accumulator unit tests, policy axis wiring,
map-path resolution over every bundled analytic, batch-vs-scalar
conformance, telemetry, and the mutation gate.

The equivalence tests go through the conformance kit
(``tests/workloads.py`` → ``repro.verify``), so a failure prints the
kit's structured mismatch report (first divergent index, ulp distance,
repro command) rather than a bare assert.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import analytics
from repro.analytics import Histogram, MovingAverage
from repro.analytics.objects import HoldAllObj, SumCountObj, WindowSumObj
from repro.core import (
    MAP_PATHS,
    ColumnarAccumulator,
    EnginePolicy,
    ExecutionPolicy,
    KeyedMap,
    PolicyAdvisor,
    SchedArgs,
    Scheduler,
)
from repro.core.serialization import pack_map
from repro.telemetry import Recorder
from repro.verify import Config, execute, get_workload, workload_names
from tests.workloads import assert_conforms, mismatch_report

BATCH_WORKLOADS = (
    "histogram", "grid_aggregation", "minmax", "moving_average", "kde_grid",
    "kmeans", "logreg",
)


class ScalarOnly(Scheduler):
    """Minimal app without batch_reduce."""

    def gen_key(self, chunk, data, combination_map):
        return 0

    def accumulate(self, chunk, data, red_obj, key):
        if red_obj is None:
            red_obj = SumCountObj()
        red_obj.total += float(data[chunk.start])
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj, com_obj):
        com_obj.total += red_obj.total
        com_obj.count += red_obj.count
        return com_obj


# ---------------------------------------------------------------------------
# ColumnarAccumulator
# ---------------------------------------------------------------------------

class TestColumnarAccumulator:
    def test_rows_start_as_prototype(self):
        acc = ColumnarAccumulator(WindowSumObj(7), 10, 14)
        assert len(acc) == 4
        # "keep" fields carry the prototype's value into every row.
        assert np.array_equal(acc.column("win_size"), np.full(4, 7))
        assert np.array_equal(acc.column("total"), np.zeros(4))

    def test_load_from_seeds_in_window_rows(self):
        red_map = KeyedMap()
        red_map[3] = SumCountObj(1.5, 2)
        acc = ColumnarAccumulator(SumCountObj(), 0, 8)
        acc.load_from(red_map)
        assert acc.column("total")[3] == 1.5
        assert acc.column("count")[3] == 2
        assert acc.complete

    def test_out_of_window_key_clears_complete(self):
        red_map = KeyedMap()
        red_map[100] = SumCountObj(1.0, 1)
        acc = ColumnarAccumulator(SumCountObj(), 0, 8)
        acc.load_from(red_map)
        assert not acc.complete

    def test_fold_replaces_touched_and_keeps_untouched(self):
        red_map = KeyedMap()
        red_map[3] = SumCountObj(1.5, 2)
        untouched = SumCountObj(9.0, 9)
        red_map[5] = untouched
        acc = ColumnarAccumulator(SumCountObj(), 0, 8)
        acc.load_from(red_map)
        acc.column("total")[3] += 2.0
        acc.column("count")[3] += 1
        acc.contrib[3] += 1
        touched = acc.fold_into(red_map)
        assert touched.tolist() == [3]
        # Touched rows land the accumulated (seed + scatter) value...
        assert red_map[3].total == 3.5 and red_map[3].count == 3
        # ...and untouched entries keep their identity.
        assert red_map[5] is untouched

    def test_to_packed_matches_pack_map_bytes(self):
        red_map = KeyedMap()
        red_map[3] = SumCountObj(1.5, 2)
        red_map[5] = SumCountObj(-0.5, 1)
        acc = ColumnarAccumulator(SumCountObj(), 0, 8)
        acc.load_from(red_map)
        for key, dv in ((3, 2.0), (6, 1.0)):
            acc.column("total")[key] += dv
            acc.column("count")[key] += 1
            acc.contrib[key] += 1
        acc.fold_into(red_map)
        keys = np.fromiter(sorted(red_map.keys()), dtype=np.int64)
        assert (acc.to_packed(keys).to_bytes()
                == pack_map(red_map).to_bytes())

    def test_schemaless_prototype_rejected(self):
        with pytest.raises(TypeError, match="schemaless"):
            ColumnarAccumulator(HoldAllObj(5), 0, 4)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ColumnarAccumulator(SumCountObj(), 5, 3)


# ---------------------------------------------------------------------------
# map_path policy axis
# ---------------------------------------------------------------------------

class TestMapPathPolicy:
    def test_axis_values(self):
        assert MAP_PATHS == ("auto", "scalar")
        with pytest.raises(ValueError, match="map_path"):
            EnginePolicy(map_path="bogus")

    def test_fingerprint_and_parse_roundtrip(self):
        policy = ExecutionPolicy(
            engine=EnginePolicy(backend="serial", map_path="scalar"))
        assert "map=scalar" in policy.fingerprint()
        parsed = ExecutionPolicy.parse("engine=serial,map=scalar")
        assert parsed.map_path == "scalar"

    def test_sched_args_passthrough(self):
        assert SchedArgs(map_path="scalar").policy.map_path == "scalar"

    def test_forced_batch_without_impl_raises(self):
        # "batch" is no longer a selectable value: auto runs it where the
        # application implements it, and falls back to scalar otherwise.
        with pytest.raises(ValueError, match="map_path"):
            SchedArgs(map_path="batch")
        app = ScalarOnly(SchedArgs())
        with app:
            app.run(np.zeros(4))
            assert app._resolve_map_path() == "scalar"
            assert app.stats.accumulate_calls == 4

    def test_forced_vector_without_impl_raises(self):
        with pytest.raises(ValueError, match="map_path"):
            SchedArgs(map_path="vector")

    def test_advisor_picks_batch(self):
        # The advisor leaves map_path at "auto", which resolves to the
        # batch path for an application implementing it.
        rec = Recorder()
        policy = PolicyAdvisor(telemetry=rec).advise(
            elements=1000, threads=2, has_batch_path=True)
        assert policy.engine.map_path == "auto"
        assert not any(name.startswith("policy.advice.map")
                       for name in rec.counters("policy."))
        app = Histogram(policy, lo=-4, hi=4, num_buckets=8)
        with app:
            assert app._resolve_map_path() == "batch"

    def test_advised_config_carries_map_path(self):
        from repro.verify.policy_check import advised_config
        config = advised_config("histogram")
        assert config.map_path == "auto"
        assert config.runs_batch


# ---------------------------------------------------------------------------
# map-path resolution, table-driven over every bundled analytic
# ---------------------------------------------------------------------------

# (class, chunk_size, constructor kwargs, path map_path="auto" resolves to)
BUNDLED_APPS = [
    (analytics.GaussianKernelSmoother, 1, dict(win_size=5), "scalar"),
    (analytics.GridAggregation, 1, dict(grid_size=4), "batch"),
    (analytics.Histogram, 1, dict(lo=-1.0, hi=1.0, num_buckets=4), "batch"),
    (analytics.KMeans, 2, dict(dims=2), "batch"),
    (analytics.LogisticRegression, 3, dict(dims=2), "batch"),
    (analytics.MinMax, 1, dict(), "batch"),
    (analytics.MovingAverage, 1, dict(win_size=5), "batch"),
    (analytics.MovingAverage3D, 1, dict(shape=(2, 2, 2), win_size=3),
     "scalar"),
    (analytics.MovingMedian, 1, dict(win_size=5), "scalar"),
    (analytics.MutualInformation, 2,
     dict(x_range=(-1.0, 1.0), y_range=(-1.0, 1.0), bins=4), "batch"),
    (analytics.SavitzkyGolay, 1, dict(win_size=5), "scalar"),
    (analytics.TileAggregation3D, 1, dict(shape=(2, 2, 2), tile=(1, 1, 1)),
     "batch"),
    (analytics.ValueGridKDE, 1,
     dict(grid=np.linspace(-1.0, 1.0, 5), bandwidth=0.5), "batch"),
    (analytics.WindowScheduler, 1, dict(win_size=5), "scalar"),
]


def test_table_covers_every_bundled_analytic():
    bundled = {obj for obj in vars(analytics).values()
               if isinstance(obj, type) and issubclass(obj, Scheduler)}
    assert {row[0] for row in BUNDLED_APPS} == bundled


@pytest.mark.parametrize("cls,chunk,kwargs,expected", BUNDLED_APPS,
                         ids=[row[0].__name__ for row in BUNDLED_APPS])
def test_auto_resolves_to_batch_exactly_when_implemented(
        cls, chunk, kwargs, expected):
    implements = cls.batch_reduce is not Scheduler.batch_reduce
    assert (expected == "batch") == implements
    auto = cls(ExecutionPolicy(chunk_size=chunk), **kwargs)
    scalar = cls(ExecutionPolicy(engine=EnginePolicy(map_path="scalar"),
                                 chunk_size=chunk), **kwargs)
    with auto, scalar:
        assert auto._resolve_map_path() == expected
        assert scalar._resolve_map_path() == "scalar"


@pytest.mark.parametrize("token,axis", [
    ("vec=1", "vec"), ("vec=0", "vec"),
    ("map=vector", "map_path"), ("map=batch", "map_path"),
])
def test_parse_rejects_removed_map_options(token, axis):
    with pytest.raises(ValueError, match=axis):
        ExecutionPolicy.parse(f"engine=serial,{token}")


@pytest.mark.parametrize("name", workload_names())
def test_oracle_fingerprints_as_scalar(name):
    oracle = Config(workload=name).oracle_of()
    assert "map=scalar" in oracle.fingerprint()
    assert "map=scalar" in oracle.policy_fingerprint()
    assert not oracle.runs_batch


# ---------------------------------------------------------------------------
# batch-vs-scalar conformance (bit-exact / declared-ulp)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BATCH_WORKLOADS)
@pytest.mark.parametrize("engine,threads", [
    ("serial", 1), ("thread", 3), ("process", 2),
])
def test_batch_conforms_across_engines(name, engine, threads):
    assert_conforms(name, engine=engine, num_threads=threads)


@pytest.mark.parametrize("name", BATCH_WORKLOADS)
@pytest.mark.parametrize("block_size", [64, 256])
def test_batch_conforms_with_blocks(name, block_size):
    # Multiple blocks exercise cross-split accumulator seeding (and, for
    # moving_average, the early-emission sweep firing mid-run).
    assert_conforms(name, block_size=block_size)


@pytest.mark.parametrize("name", ("histogram", "moving_average"))
def test_batch_conforms_spmd(name):
    assert_conforms(name, ranks=2)


def test_batch_zero_copy_wire_export():
    config = Config(workload="histogram", engine="process", num_threads=2,
                    wire_format="columnar", block_size=256)
    info = execute(get_workload("histogram"), config)
    assert info.counters.get("run.batch_wire_exports", 0) > 0
    assert not mismatch_report("histogram", engine="process", num_threads=2,
                               wire_format="columnar", block_size=256)


def test_batch_with_early_emission_disabled():
    rng = np.random.default_rng(0)
    data = rng.normal(size=512)

    def run(**kw):
        app = MovingAverage(SchedArgs(disable_early_emission=True, **kw),
                            win_size=7)
        out = np.full(512, np.nan)
        with app:
            app.run2(data, out)
            counters = app.telemetry_snapshot()["counters"]
        return out, counters

    scalar_out, _ = run(map_path="scalar")
    batch_out, counters = run()
    assert np.array_equal(scalar_out, batch_out)
    assert counters.get("run.early_emissions", 0) == 0


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------

def _run_histogram_counters(**kw):
    config = Config(workload="histogram", **kw)
    return execute(get_workload("histogram"), config).counters


def test_batch_reports_zero_accumulate_calls_explicitly():
    counters = _run_histogram_counters()
    # The gauge is *present* at zero — "no scalar work ran", not
    # "counter missing".
    assert counters["run.accumulate_calls"] == 0
    assert counters["run.batch_reduce_calls"] > 0
    assert counters["run.batch_elements"] == 2048


def test_scalar_counts_accumulate_calls():
    counters = _run_histogram_counters(map_path="scalar")
    assert counters["run.accumulate_calls"] == 2048


# ---------------------------------------------------------------------------
# mutation gate: a corrupted scatter kernel must be caught
# ---------------------------------------------------------------------------

def test_conformance_catches_corrupted_scatter(monkeypatch):
    def corrupted(self, data, start, stop, acc):
        block = data[start:stop]
        keys = ((block - self.lo) / self.width).astype(np.int64)
        np.clip(keys, 0, self.num_buckets - 1, out=keys)
        counts = np.bincount(keys, minlength=self.num_buckets)
        counts = np.roll(counts, 1)  # off-by-one-bucket scatter
        col = acc.column("count")
        col += counts
        acc.contrib += counts

    monkeypatch.setattr(Histogram, "batch_reduce", corrupted)
    mismatches = mismatch_report("histogram")
    assert mismatches, "corrupted kernel slipped through conformance"
    assert any(m.kind == "value" for m in mismatches)
