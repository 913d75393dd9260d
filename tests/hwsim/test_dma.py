"""DMA-engine tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SimulationError
from repro.hwsim.dma import DMAEngine
from repro.interconnect.bus import BusModel
from repro.interconnect.protocols import (
    NALLATECH_PCIX_PROFILE,
    XD1000_HT_PROFILE,
    ProtocolProfile,
)
from repro.platforms.catalog import HYPERTRANSPORT_XD1000, PCIX_133_NALLATECH

CLEAN = ProtocolProfile(name="clean")


@pytest.fixture
def engine():
    return DMAEngine(bus=BusModel(spec=PCIX_133_NALLATECH, profile=CLEAN))


@pytest.fixture
def duplex_engine():
    return DMAEngine(bus=BusModel(spec=HYPERTRANSPORT_XD1000, profile=CLEAN))


class TestSerialisation:
    def test_back_to_back_transfers_queue(self, engine):
        first = engine.issue(1, "read", 2048, request_time=0.0)
        second = engine.issue(2, "read", 2048, request_time=0.0)
        assert second.start_time == pytest.approx(first.end_time)
        assert second.queue_delay > 0

    def test_idle_channel_starts_immediately(self, engine):
        first = engine.issue(1, "read", 2048, request_time=0.0)
        later = first.end_time + 1.0
        second = engine.issue(2, "read", 2048, request_time=later)
        assert second.start_time == pytest.approx(later)
        assert second.queue_delay == 0.0

    def test_half_duplex_mixes_directions_serially(self, engine):
        read = engine.issue(1, "read", 2048, request_time=0.0)
        write = engine.issue(1, "write", 2048, request_time=0.0)
        assert write.start_time == pytest.approx(read.end_time)

    def test_full_duplex_overlaps_directions(self, duplex_engine):
        read = duplex_engine.issue(1, "read", 65536, request_time=0.0)
        write = duplex_engine.issue(1, "write", 65536, request_time=0.0)
        assert write.start_time == 0.0
        assert read.start_time == 0.0

    def test_full_duplex_serialises_same_direction(self, duplex_engine):
        first = duplex_engine.issue(1, "read", 65536, request_time=0.0)
        second = duplex_engine.issue(2, "read", 65536, request_time=0.0)
        assert second.start_time == pytest.approx(first.end_time)


class TestRates:
    def test_read_uses_host_write_rate(self, engine):
        """An FPGA 'read' (data in) moves at the host write rate."""
        transfer = engine.issue(1, "read", 2048, request_time=0.0)
        assert transfer.duration == pytest.approx(
            PCIX_133_NALLATECH.transfer_time(2048, read=False)
        )

    def test_write_uses_host_read_rate(self, engine):
        transfer = engine.issue(1, "write", 2048, request_time=0.0)
        assert transfer.duration == pytest.approx(
            PCIX_133_NALLATECH.transfer_time(2048, read=True)
        )


class TestAccounting:
    def test_busy_time(self, engine):
        engine.issue(1, "read", 2048, 0.0)
        engine.issue(1, "write", 2048, 0.0)
        assert engine.busy_time() == pytest.approx(
            engine.busy_time("read") + engine.busy_time("write")
        )

    def test_mean_duration(self, engine):
        engine.issue(1, "read", 2048, 0.0)
        engine.issue(2, "read", 2048, 0.0)
        assert engine.mean_duration("read") == pytest.approx(
            engine.busy_time("read") / 2
        )

    def test_mean_duration_empty_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.mean_duration()


class TestValidation:
    def test_bad_direction(self, engine):
        with pytest.raises(SimulationError):
            engine.issue(1, "sideways", 2048, 0.0)

    def test_bad_request_time(self, engine):
        with pytest.raises(SimulationError):
            engine.issue(1, "read", 2048, -1.0)


class TestBurstTrains:
    """``issue_train(n)`` is bitwise ``n`` sequential ``issue`` calls."""

    LINKS = {
        "pcix": (PCIX_133_NALLATECH, NALLATECH_PCIX_PROFILE),
        "ht": (HYPERTRANSPORT_XD1000, XD1000_HT_PROFILE),
    }

    @staticmethod
    def engines(link, record):
        spec, profile = TestBurstTrains.LINKS[link]
        return [
            DMAEngine(bus=BusModel(spec=spec, profile=profile,
                                   record_transfers=record))
            for _ in range(2)
        ]

    @given(
        link=st.sampled_from(["pcix", "ht"]),
        record=st.booleans(),
        # Both sides of the small-transfer (jitter) threshold: 8192 B on
        # the PCI-X profile, 1024 B on the HyperTransport one.
        chunk=st.sampled_from([4, 512, 1000, 1024, 1025, 4096, 8192, 8193,
                               65536]),
        count=st.integers(min_value=1, max_value=600),
        remainder=st.sampled_from([0, 1, 300]),
        warmup=st.integers(min_value=0, max_value=5),
        request=st.floats(min_value=0.0, max_value=1e-3),
    )
    @settings(max_examples=60, deadline=None)
    def test_train_equals_sequential_issues(
        self, link, record, chunk, count, remainder, warmup, request
    ):
        trained, single = self.engines(link, record)
        for engine in (trained, single):
            # A read in flight and a shifted jitter index before the train.
            for i in range(warmup):
                engine.issue(i, "read", 2048, 0.0)
        end = trained.issue_train(1, "write", chunk, request, count)
        singles = [single.issue(1, "write", chunk, request) for _ in range(count)]
        assert end == singles[-1].end_time
        if remainder:
            trained.issue_train(1, "write", remainder, request, 1)
            single.issue(1, "write", remainder, request)
        # A later read queues behind the train on half duplex only.
        trained.issue(2, "read", 2048, request)
        single.issue(2, "read", 2048, request)

        assert trained.starts == single.starts
        assert trained.ends == single.ends
        assert trained.transfers == single.transfers
        assert trained.busy_time() == single.busy_time()
        assert trained.busy_time("write") == single.busy_time("write")
        assert trained.bus.transfer_count == single.bus.transfer_count
        assert trained.bus.records == single.bus.records
        if record:
            assert len(trained.bus.records) == trained.bus.transfer_count

    @pytest.mark.parametrize("nbytes", [512, 1 << 20])
    def test_train_times_formula(self, nbytes):
        """Each transfer costs ``wire * j + overhead * j`` with the Weyl
        jitter ``j`` of its own bus index."""
        profile = NALLATECH_PCIX_PROFILE
        bus = BusModel(spec=PCIX_133_NALLATECH, profile=profile)
        bus.transfer_time(2048)
        wire = PCIX_133_NALLATECH.transfer_time(nbytes, read=True)
        base = profile.per_transfer_overhead_s
        expected = []
        for index in range(1, 51):
            j = 1.0
            if nbytes <= profile.small_transfer_threshold:
                phase = math.modf(index * 0.6180339887498949)[0]
                j = 1.0 + profile.jitter_fraction * phase
            expected.append(wire * j + base * j)
        assert bus.train_times(nbytes, 50, read=True) == expected
        assert bus.transfer_count == 51

    def test_train_serialises_back_to_back(self, engine):
        engine.issue_train(1, "write", 512, 0.0, 4)
        assert engine.starts[1:] == engine.ends[:-1]
        assert [t.iteration for t in engine.transfers] == [1, 1, 1, 1]

    def test_columns_match_rows(self, engine):
        engine.issue(1, "read", 2048, 0.0)
        engine.issue_train(1, "write", 512, 1e-6, 3)
        rows = engine.transfers
        assert [t.direction for t in rows] == engine.directions
        assert [t.start_time for t in rows] == engine.starts
        assert [t.end_time for t in rows] == engine.ends
        assert [t.request_time for t in rows] == engine.requests

    def test_empty_train_rejected(self, engine):
        with pytest.raises(ParameterError):
            engine.issue_train(1, "write", 512, 0.0, 0)
        assert engine.transfers == []
        assert engine.bus.transfer_count == 0
