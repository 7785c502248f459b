"""The batch engine's rolling sweep: many runs, one tail, same bits.

``BatchTransportEngine.run_many`` carries every run's seed streams in
one sweep and admits each stream whenever it fits in the sweep's
width.  Each stream still makes exactly its own draws and keeps its
own tallies, so every run must equal a lone ``run`` of its seed, bit
for bit (compared as the JSON text of ``to_dict``), whatever the
width, the other runs or the collision cap.  The facade's
``answer_many`` must give each query what ``answer`` gives it, and a
study shard's same-shield batch points must run as one fused run.
"""

import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.chaos import trials
from repro.obs.core import Observer, observing
from repro.obs.metrics import MetricsRegistry
from repro.spectra.beamlines import rotax_spectrum
from repro.spectra.spectrum import Spectrum
from repro.studies import scheduler as scheduler_module
from repro.studies.scheduler import StudyScheduler
from repro.studies.spec import StudySpec
from repro.transport import batch
from repro.transport.api import (
    TransportQuery,
    answer,
    answer_many,
    default_store,
    set_default_store,
)
from repro.transport.batch import HISTORIES_PER_STREAM, BatchTransportEngine
from repro.transport.materials import (
    BORATED_POLYETHYLENE,
    CADMIUM,
    CONCRETE,
    POLYETHYLENE,
    WATER,
)
from repro.transport.montecarlo import Layer, SlabGeometry
from repro.transport.surrogate import SurrogateStore

#: Round counts of four 20 000-history runs on 10 cm of water under
#: ROTAX (seeds 1-4): fused, and each run alone.
WATER_FUSED_ROUNDS = 427
WATER_SEPARATE_ROUNDS = (307, 388, 349, 413)

#: The fused run's scatters, and those made off the thermal-bath
#: floor, the only ones that pick an isotope and downscatter.
WATER_FUSED_SCATTERS = 1_437_532
WATER_FUSED_MODERATED = 85_314

_layer = st.builds(
    Layer,
    st.sampled_from(
        [WATER, CONCRETE, POLYETHYLENE, BORATED_POLYETHYLENE, CADMIUM]
    ),
    st.floats(min_value=0.05, max_value=2.0),
)

_stack = st.lists(_layer, min_size=1, max_size=3)

_source = st.one_of(
    st.floats(min_value=1.0e-2, max_value=2.0e7).map(
        lambda energy_ev: {"source_energy_ev": energy_ev}
    ),
    st.just({"source_spectrum": rotax_spectrum()}),
    st.just(
        {
            "source_spectrum": Spectrum(
                [1.0e-3, 1.0, 1.0e3, 1.0e6, 1.0e7], [3.0, 1.0, 0.5, 2.0]
            )
        }
    ),
)

#: One history up to three whole seed streams plus a remainder, the
#: stream boundaries drawn as often as the rest.
_n_neutrons = st.one_of(
    st.sampled_from(
        [
            1,
            HISTORIES_PER_STREAM,
            HISTORIES_PER_STREAM + 1,
            2 * HISTORIES_PER_STREAM,
            3 * HISTORIES_PER_STREAM + 123,
        ]
    ),
    st.integers(min_value=1, max_value=4 * HISTORIES_PER_STREAM - 1),
)

_seeds = st.lists(st.integers(0, 2**32), min_size=1, max_size=3)


def _text(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _alone(engine, n_neutrons, seeds, **kwargs):
    return [
        _text(engine.run(n_neutrons, seed=seed, **kwargs))
        for seed in seeds
    ]


def _traced(tmp_path, work):
    """Run ``work`` under an observer; returns its value, the
    ``transport.run`` end attributes and the counters."""
    trace = tmp_path / "trace.jsonl"
    trace.unlink(missing_ok=True)
    registry = MetricsRegistry()
    with observing(Observer(trace_path=trace, registry=registry)):
        value = work()
    records = [
        json.loads(line)
        for line in trace.read_text(encoding="utf-8").splitlines()
    ]
    runs = [
        record["attrs"]
        for record in records
        if record["name"] == "transport.run" and record["kind"] == "end"
    ]
    return value, runs, registry.to_dict()["counters"]


class TestBitIdentity:
    @given(
        layers=_stack,
        source=_source,
        n_neutrons=_n_neutrons,
        seeds=_seeds,
    )
    @settings(max_examples=12, deadline=None)
    def test_run_many_equals_each_run_alone(
        self, layers, source, n_neutrons, seeds
    ):
        engine = BatchTransportEngine(SlabGeometry(layers))
        fused = engine.run_many(n_neutrons, seeds, **source)
        assert [_text(result) for result in fused] == _alone(
            engine, n_neutrons, seeds, **source
        )

    @given(
        layers=_stack,
        source=_source,
        n_neutrons=_n_neutrons,
        seeds=_seeds,
        batch_size=st.sampled_from([1, 100, 4096, 8192, 10**6]),
    )
    @settings(max_examples=10, deadline=None)
    def test_width_in_flight_moves_no_tally(
        self, layers, source, n_neutrons, seeds, batch_size
    ):
        engine = BatchTransportEngine(SlabGeometry(layers))
        fused = engine.run_many(
            n_neutrons,
            seeds,
            batch_size=batch_size,
            **source,
        )
        assert [_text(result) for result in fused] == _alone(
            engine, n_neutrons, seeds, **source
        )

    def test_capped_streams_bank_their_own_survivors(self, tmp_path):
        """Streams admitted at different rounds reach a small cap at
        different rounds; each banks its own survivors."""
        engine = BatchTransportEngine(
            SlabGeometry([Layer(BORATED_POLYETHYLENE, 5.0)])
        )
        n_neutrons = 3 * HISTORIES_PER_STREAM + 50
        kwargs = dict(source_energy_ev=0.025, batch_size=8192)
        with mock.patch.object(batch, "_MAX_COLLISIONS", 3):
            fused, fused_runs, _ = _traced(
                tmp_path,
                lambda: engine.run_many(n_neutrons, [1, 2], **kwargs),
            )
            alone, alone_runs, _ = _traced(
                tmp_path,
                lambda: _alone(engine, n_neutrons, [1, 2], **kwargs),
            )
        assert [_text(result) for result in fused] == alone
        assert all(
            result.absorbed_by_material["lost"] > 0 for result in fused
        )
        # Fewer rounds than the runs alone: streams of different ages
        # were in flight together.
        assert fused_runs[0]["rounds"] < sum(
            run["rounds"] for run in alone_runs
        )


class TestObservability:
    def test_fused_water_runs_share_one_tail(self, tmp_path):
        engine = BatchTransportEngine(SlabGeometry([Layer(WATER, 10.0)]))
        rotax = rotax_spectrum()
        _, fused, _ = _traced(
            tmp_path,
            lambda: engine.run_many(
                20_000, [1, 2, 3, 4], source_spectrum=rotax
            ),
        )
        _, alone, _ = _traced(
            tmp_path,
            lambda: _alone(
                engine, 20_000, [1, 2, 3, 4], source_spectrum=rotax
            ),
        )
        assert [
            (
                run["runs"],
                run["histories"],
                run["rounds"],
                run["scatters"],
                run["moderated"],
            )
            for run in fused
        ] == [
            (
                4,
                80_000,
                WATER_FUSED_ROUNDS,
                WATER_FUSED_SCATTERS,
                WATER_FUSED_MODERATED,
            )
        ]
        assert tuple(run["rounds"] for run in alone) == (
            WATER_SEPARATE_ROUNDS
        )
        assert WATER_FUSED_ROUNDS < sum(WATER_SEPARATE_ROUNDS)

    def test_in_process_study_emits_one_run_per_fused_shard(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "_usable_cpus", lambda: 1)
        spec = StudySpec(
            name="fused",
            axes={
                "shield": ("water",),
                "site": ("nyc", "leadville", "isis", "lanl"),
            },
            n_neutrons=300,
            seed=5,
            shard_size=2,
        )
        outcome, runs, _ = _traced(
            tmp_path,
            lambda: StudyScheduler(
                spec,
                ledger_path=tmp_path / "ledger.jsonl",
                store_root=tmp_path / "store",
            ).run(),
        )
        assert outcome.status == "complete"
        assert spec.n_shards == 2
        assert [(run["runs"], run["histories"]) for run in runs] == [
            (2, 600),
            (2, 600),
        ]


class TestAnswerMany:
    def test_mixed_list_matches_answer_per_query(self, tmp_path):
        trials.make_surrogate_root(tmp_path / "surfaces")
        store = SurrogateStore(tmp_path / "surfaces")
        rotax = rotax_spectrum()

        def query(**fields):
            base = dict(
                mode="transmission",
                material=WATER,
                thickness_cm=10.0,
                source_spectrum=rotax,
                n_neutrons=5000,
                seed=1,
                engine="batch",
            )
            base.update(fields)
            return TransportQuery(**base)

        queries = [
            trials.surrogate_query(),
            query(seed=1),
            query(seed=2),
            query(seed=3),
            # No water surface: auto and surrogate fall back to batch
            # on the same slab.
            query(seed=4, engine="auto"),
            query(seed=5, engine="surrogate"),
            query(material=CONCRETE, thickness_cm=5.0, seed=6),
            query(thickness_cm=2.0, engine="deterministic"),
            query(thickness_cm=1.0, n_neutrons=200, engine="scalar"),
        ]

        def texts(answers):
            return [
                json.dumps(
                    {
                        "mode": served.mode,
                        "provenance": served.provenance.to_dict(),
                        "result": served.result.to_dict(),
                    },
                    sort_keys=True,
                )
                for served in answers
            ]

        before = default_store()
        set_default_store(store)
        try:
            each, _, each_counters = _traced(
                tmp_path, lambda: [answer(one) for one in queries]
            )
            together, fused, together_counters = _traced(
                tmp_path, lambda: answer_many(queries)
            )
        finally:
            set_default_store(before)
        assert texts(together) == texts(each)
        assert together_counters == each_counters
        assert [run["runs"] for run in fused] == [5, 1]
        assert together[0].provenance.engine == "surrogate"
        assert together[5].provenance.reason == "no-surface"

