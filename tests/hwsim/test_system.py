"""RC system simulation tests.

The load-bearing property: with all real-world overheads zeroed (no
setup latency, no protocol overhead, no jitter, no fill, no stalls), the
event-driven simulator must land exactly on RAT's closed-form Equations
(5)/(6) — the simulator and the analytic model describe the same machine.
With overheads enabled, the simulator reproduces the paper's measured
discrepancies instead (tested in tests/apps/test_studies.py).
"""

import gc
import weakref

import pytest

from repro.apps.registry import get_case_study
from repro.core.buffering import BufferingMode, TimelineSegment
from repro.errors import ParameterError, SimulationError
from repro.hwsim import system
from repro.hwsim.clock import ClockDomain
from repro.hwsim.dma import DMAEngine
from repro.hwsim.kernel import PipelinedKernel
from repro.hwsim.system import RCSystemSim
from repro.interconnect.bus import BusModel
from repro.interconnect.protocols import ProtocolProfile
from repro.obs.simtrace import SimTrace
from repro.platforms.interconnect import InterconnectSpec

CLEAN_PROFILE = ProtocolProfile(name="clean")
CLEAN_LINK = InterconnectSpec(name="clean", ideal_bandwidth=1e9)


def make_sim(
    *,
    mode=BufferingMode.SINGLE,
    elements=1000,
    bytes_per_element=4,
    output_bytes=4000,
    n_iterations=10,
    ops_per_element=100,
    ops_per_cycle=10,
    clock_mhz=100,
    link=CLEAN_LINK,
    profile=CLEAN_PROFILE,
    **kwargs,
) -> RCSystemSim:
    return RCSystemSim(
        kernel=PipelinedKernel(
            name="k",
            ops_per_element=ops_per_element,
            replicas=1,
            ops_per_cycle_per_replica=ops_per_cycle,
        ),
        clock=ClockDomain.from_mhz(clock_mhz),
        bus=BusModel(spec=link, profile=profile, record_transfers=False),
        elements_per_block=elements,
        bytes_per_element=bytes_per_element,
        output_bytes_per_block=output_bytes,
        n_iterations=n_iterations,
        mode=mode,
        **kwargs,
    )


class TestAgreementWithAnalyticModel:
    """Clean simulator == Equations (5)/(6)."""

    def analytic_terms(self):
        t_in = 4000 / 1e9  # 1000 elem * 4 B over 1 GB/s
        t_out = 4000 / 1e9
        t_comp = 1000 * 100 / (100e6 * 10)  # 1e-4 s
        return t_in, t_out, t_comp

    def test_single_buffered_matches_equation5(self):
        t_in, t_out, t_comp = self.analytic_terms()
        result = make_sim(mode=BufferingMode.SINGLE).run()
        expected = 10 * (t_in + t_out + t_comp)
        assert result.t_rc == pytest.approx(expected, rel=1e-9)
        assert result.t_comm_per_iteration == pytest.approx(t_in + t_out)
        assert result.t_comp_per_iteration == pytest.approx(t_comp)

    def test_double_buffered_matches_equation6_with_startup(self):
        t_in, t_out, t_comp = self.analytic_terms()
        result = make_sim(mode=BufferingMode.DOUBLE, n_iterations=50).run()
        t_comm = t_in + t_out
        analytic = 50 * max(t_comm, t_comp)
        # Startup transient (first read) and final drain are O(1).
        assert analytic <= result.t_rc <= analytic + 2 * (t_comm + t_comp)

    def test_double_buffered_startup_negligible_for_many_iterations(self):
        """The paper's claim: the DB startup cost vanishes as N grows."""
        t_in, t_out, t_comp = self.analytic_terms()
        result = make_sim(mode=BufferingMode.DOUBLE, n_iterations=500).run()
        analytic = 500 * max(t_in + t_out, t_comp)
        assert result.t_rc == pytest.approx(analytic, rel=0.01)

    def test_db_faster_than_sb(self):
        sb = make_sim(mode=BufferingMode.SINGLE, n_iterations=50).run()
        db = make_sim(mode=BufferingMode.DOUBLE, n_iterations=50).run()
        assert db.t_rc < sb.t_rc

    def test_compute_bound_db_hides_communication(self):
        result = make_sim(
            mode=BufferingMode.DOUBLE,
            ops_per_element=10_000,  # t_comp = 1e-2 s >> t_comm
            n_iterations=20,
        ).run()
        t_comp = 20 * 1000 * 10_000 / (100e6 * 10)
        assert result.t_rc == pytest.approx(t_comp, rel=0.01)


class TestOutputPolicies:
    def test_per_iteration_outputs(self):
        result = make_sim().run()
        assert result.output_transfers == 10

    def test_at_end_single_output(self):
        result = make_sim(output_policy="at_end").run()
        assert result.output_transfers == 1

    def test_none_policy(self):
        result = make_sim(output_policy="none").run()
        assert result.output_transfers == 0

    def test_zero_output_bytes(self):
        result = make_sim(output_bytes=0).run()
        assert result.output_transfers == 0

    def test_chunked_output(self):
        result = make_sim(output_bytes=4000, output_chunk_bytes=512).run()
        # ceil(4000/512) = 8 chunks per iteration.
        assert result.output_transfers == 80

    def test_chunking_with_overhead_inflates_comm(self):
        link = InterconnectSpec(
            name="setup", ideal_bandwidth=1e9, setup_latency_s=1e-5
        )
        whole = make_sim(link=link).run()
        chunked = make_sim(link=link, output_chunk_bytes=512).run()
        assert chunked.t_comm_per_iteration > 2 * whole.t_comm_per_iteration


class TestHostTurnaround:
    def test_turnaround_stretches_wall_clock_only(self):
        base = make_sim().run()
        slow = make_sim(host_turnaround_s=1e-3).run()
        # 9 inter-iteration turnarounds (none after the final compute);
        # each output write (4 us) now hides inside the turnaround window
        # instead of blocking the next read on the channel.
        t_out = 4000 / 1e9
        assert slow.t_rc == pytest.approx(
            base.t_rc + 9 * (1e-3 - t_out), rel=1e-6
        )
        assert slow.t_comm_per_iteration == pytest.approx(
            base.t_comm_per_iteration
        )
        assert slow.t_comp_per_iteration == pytest.approx(
            base.t_comp_per_iteration
        )


class TestResultObject:
    def test_iteration_count_enforced(self):
        result = make_sim(n_iterations=7).run()
        assert result.n_iterations == 7
        assert result.input_transfers == 7

    def test_utilizations_sum_below_one_with_idle(self):
        result = make_sim(host_turnaround_s=1e-3).run()
        assert result.util_comm + result.util_comp < 1.0

    def test_speedup(self):
        result = make_sim().run()
        assert result.speedup(1.0) == pytest.approx(1.0 / result.t_rc)
        with pytest.raises(SimulationError):
            result.speedup(0.0)

    def test_actual_column_keys_match_prediction(self):
        from repro.core.throughput import predict

        result = make_sim().run()
        column = result.as_actual_column(1.0)
        # Must be renderable next to predictions: same key set.
        assert set(column) <= {
            "clock_mhz", "t_input", "t_output", "t_comm", "t_comp",
            "t_rc", "speedup", "util_comp", "util_comm",
        }

    def test_actual_column_utils_use_paper_equations(self):
        result = make_sim().run()
        column = result.as_actual_column(1.0)
        t_comm, t_comp = column["t_comm"], column["t_comp"]
        assert column["util_comm"] == pytest.approx(t_comm / (t_comm + t_comp))

    def test_timeline_segments_cover_iterations(self):
        result = make_sim(n_iterations=5).run()
        computes = [s for s in result.timeline.segments if s.lane == "comp"]
        assert sorted(s.iteration for s in computes) == [1, 2, 3, 4, 5]

    def test_timeline_lanes_never_overlap(self):
        # OverlapTimeline validates on construction; a run is the test.
        make_sim(mode=BufferingMode.DOUBLE, n_iterations=30).run()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"elements": 0},
            {"bytes_per_element": 0},
            {"n_iterations": 0},
            {"output_bytes": -1},
            {"output_chunk_bytes": 0},
            {"host_turnaround_s": -1},
        ],
    )
    def test_invalid_configuration(self, kwargs):
        with pytest.raises(SimulationError):
            make_sim(**kwargs)


class TestBufferDepth:
    def test_explicit_pool_depth(self):
        result = make_sim(mode=BufferingMode.DOUBLE, n_buffers=4,
                          n_iterations=20).run()
        assert result.n_iterations == 20

    def test_deeper_pool_never_slower(self):
        """Extra prefetch buffers can only help (or do nothing)."""
        times = []
        for depth in (1, 2, 4):
            result = make_sim(
                mode=BufferingMode.DOUBLE, n_buffers=depth, n_iterations=40
            ).run()
            times.append(result.t_rc)
        assert times[1] <= times[0] + 1e-12
        assert times[2] <= times[1] + 1e-12

    def test_depth_beyond_two_adds_nothing_with_one_unit(self):
        """With a single compute unit and a serial channel, the third
        buffer has nothing to overlap: classic double buffering is
        already optimal (which is why the paper stops at two)."""
        two = make_sim(mode=BufferingMode.DOUBLE, n_buffers=2,
                       n_iterations=40).run()
        eight = make_sim(mode=BufferingMode.DOUBLE, n_buffers=8,
                         n_iterations=40).run()
        assert eight.t_rc == pytest.approx(two.t_rc, rel=1e-9)

    def test_invalid_depth(self):
        with pytest.raises(SimulationError):
            make_sim(n_buffers=0)


class TestColumnarRun:
    """Burst trains and the lazy timeline keep the row-by-row schedule."""

    @staticmethod
    def capture_engines(monkeypatch):
        engines = []

        class Recording(DMAEngine):
            def __post_init__(self):
                super().__post_init__()
                engines.append(self)

        monkeypatch.setattr(system, "DMAEngine", Recording)
        return engines

    @pytest.mark.parametrize("study_name", ["pdf1d", "pdf2d", "md"])
    def test_timeline_equals_per_transfer_segments(self, monkeypatch, study_name):
        engines = self.capture_engines(monkeypatch)
        result = get_case_study(study_name).simulate(150.0)
        (dma,) = engines
        # The row-by-row construction: one segment per DMATransfer,
        # duplexed write-backs dropped, then the compute lane.
        comm = [
            TimelineSegment("comm", t.direction, t.iteration,
                            t.start_time, t.end_time)
            for t in dma.transfers
            if not (dma.duplex and t.direction == "write")
        ]
        compute = [s for s in result.timeline.segments if s.lane == "comp"]
        assert result.timeline.segments == tuple(comm + compute)
        assert len(compute) == result.n_iterations
        assert result.input_transfers + result.output_transfers == len(
            dma.transfers
        )

    def test_run_is_freed_without_the_cycle_collector(self, monkeypatch):
        engines = self.capture_engines(monkeypatch)
        gc.disable()
        try:
            make_sim(output_chunk_bytes=512).run()
            engine = weakref.ref(engines.pop())
            assert engine() is None
        finally:
            gc.enable()

    def test_overlapping_comm_lane_raises_at_run(self, monkeypatch):
        class Forgetful(DMAEngine):
            """Never remembers that the channel is busy."""

            def issue_train(self, *args):
                end = super().issue_train(*args)
                self.channel_free = 0.0
                return end

        monkeypatch.setattr(system, "DMAEngine", Forgetful)
        sim = make_sim(output_chunk_bytes=512)
        with pytest.raises(ParameterError, match="comm lane overlaps: W1"):
            sim.run()

    def test_trace_records_every_pdf2d_transfer(self):
        sim = get_case_study("pdf2d").simulator(150.0)
        sim.trace = SimTrace()
        result = sim.run()
        complete = [e for e in sim.trace.events if e["ph"] == "X"]
        # 400 iterations x (1 input read + 512 result bursts) + 400 computes.
        assert result.input_transfers + result.output_transfers == 205_200
        assert len(complete) == 205_200 + 400
