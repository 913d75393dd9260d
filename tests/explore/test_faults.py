"""Fault-injection suite: crashing workers, hung chunks, killed runs.

These tests crash and hang real worker processes on purpose, so they are
marked ``faults`` (deselect with ``-m "not faults"``).  Timings are kept
small: the slowest path is one pool-termination cycle per injected hang.
"""

import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from repro.explore import DesignSpace, RetryPolicy, explore, run_chunks

from . import faults

pytestmark = pytest.mark.faults

_REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _fast_policy(**kwargs):
    kwargs.setdefault("max_retries", 2)
    kwargs.setdefault("backoff_s", 0.0)
    return RetryPolicy(**kwargs)


class TestPoolCrashRecovery:
    def test_broken_pool_blames_exactly_the_culprit(self):
        # Worker death breaks every in-flight future; suspect probing
        # must pin the failure on the one crashing task without burning
        # the innocent tasks' retry budgets.
        tasks = [1, -1, 2, 3, 4, 5]
        report = run_chunks(
            tasks, faults.exit_on_negative,
            workers=2, policy=_fast_policy(max_retries=0),
            on_error="quarantine",
        )
        assert report.failed_indices == {1}
        assert report.failures[0].error_type == "BrokenProcessPool"
        assert [report.results[i] for i in (0, 2, 3, 4, 5)] == [2, 4, 6, 8, 10]
        assert not report.degraded

    def test_transient_crash_recovered_by_retry(self, tmp_path):
        token = str(tmp_path / "crashed.token")
        report = run_chunks(
            [1, -1, 2, 3], partial(faults.exit_once_on_negative, token=token),
            workers=2, policy=_fast_policy(), on_error="quarantine",
        )
        assert report.results == [2, -2, 4, 6]
        assert report.failures == []
        assert os.path.exists(token)
        # The crashed chunk ran again, whether it was blamed alone or
        # probed with every chunk the pool break took down.
        assert report.retries >= 1

    def test_persistent_pool_death_degrades_to_serial(self):
        # exit_in_worker kills every pool worker but runs fine in the
        # parent: after repeated pool breaks the engine must finish the
        # work in-process rather than respawn forever.
        tasks = [1, 2, 3, 4]
        report = run_chunks(
            tasks, faults.exit_in_worker,
            workers=2, policy=_fast_policy(max_retries=5),
            on_error="quarantine",
        )
        assert report.degraded
        assert report.results == [2, 4, 6, 8]
        assert report.failures == []


class TestHangDetection:
    def test_hung_chunk_times_out_and_is_reported(self):
        report = run_chunks(
            [1, -1, 2, 3], faults.sleep_on_negative,
            workers=2,
            policy=_fast_policy(max_retries=0, timeout_s=1.0),
            on_error="quarantine",
        )
        assert report.failed_indices == {1}
        failure = report.failures[0]
        assert failure.error_type == "TimeoutError"
        assert "no result within 1 s" in failure.reason
        assert [report.results[i] for i in (0, 2, 3)] == [2, 4, 6]

    def test_transient_hang_recovered_by_retry(self, tmp_path):
        token = str(tmp_path / "hung.token")
        report = run_chunks(
            [1, -1, 2], partial(faults.sleep_once_on_negative, token=token),
            workers=2,
            policy=_fast_policy(max_retries=1, timeout_s=1.0),
            on_error="quarantine",
        )
        assert report.results == [2, -2, 4]
        assert report.failures == []
        assert report.retries >= 1


class TestExploreUnderFaults:
    def test_acceptance_crash_hang_and_invalid_designs(
        self, tmp_path, pdf1d_rat
    ):
        """The issue's acceptance scenario, scaled to test time.

        A 100k-point sweep with 1% invalid designs, one chunk whose
        first evaluation crashes its worker, and one chunk whose first
        evaluation hangs, must complete under ``on_error="quarantine"``
        reporting exactly the injected failures — and the surviving
        rows must match a clean serial run bitwise.
        """
        n = 100_000
        rng = np.random.default_rng(42)
        clocks = rng.uniform(50.0, 300.0, size=n)
        clocks[::100] = 0.0  # 1% invalid designs
        clocks[150] = faults.CRASH_HZ / 1e6  # in the first chunk
        clocks[12_345] = faults.HANG_HZ / 1e6
        space = DesignSpace(
            base=pdf1d_rat, axes=("clock_mhz",), values=clocks.reshape(-1, 1)
        )
        result = explore(
            space,
            chunk_size=5_000,
            workers=2,
            on_error="quarantine",
            retry=_fast_policy(max_retries=2, timeout_s=2.0),
            chunk_fn=partial(
                faults.faulty_chunk,
                crash_token=str(tmp_path / "crash.token"),
                hang_token=str(tmp_path / "hang.token"),
            ),
        )
        # Exactly the 1000 injected invalid designs are quarantined.
        assert len(result) == n
        assert len(result.failures) == 1000
        assert {f.index for f in result.failures} == set(range(0, n, 100))
        assert all(f.parameter == "clock_hz" for f in result.failures)
        assert result.chunk_failures == ()  # crash + hang both recovered
        # The crashing and the hanging chunk each run at least twice,
        # whether they fail alone or are caught in one pool break.
        assert result.retries >= 2
        assert not result.degraded
        assert np.isnan(result.prediction.speedup[::100]).all()
        # Surviving rows are bitwise identical to a clean serial run.
        clean = explore(space, chunk_size=5_000, on_error="quarantine")
        assert (
            result.prediction.speedup.tobytes()
            == clean.prediction.speedup.tobytes()
        )

    def test_exhausted_chunk_quarantines_its_rows(self, pdf1d_rat):
        space = DesignSpace.grid(
            pdf1d_rat, clock_mhz=[float(c) for c in range(75, 115, 5)]
        )
        result = explore(
            space, chunk_size=4, on_error="quarantine",
            retry=_fast_policy(max_retries=0),
            chunk_fn=faults.raising_chunk,
        )
        assert len(result.chunk_failures) == 2
        assert result.n_failed == 8
        assert np.isnan(result.prediction.speedup).all()

    def test_transient_chunk_failure_retries_to_success(
        self, tmp_path, pdf1d_rat
    ):
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[75.0, 100.0, 150.0])
        result = explore(
            space, chunk_size=10, retry=_fast_policy(),
            chunk_fn=partial(
                faults.flaky_chunk, token=str(tmp_path / "flaky.token")
            ),
        )
        assert result.retries == 1
        assert result.chunk_failures == ()
        clean = explore(space, chunk_size=10)
        assert (
            result.prediction.t_rc.tobytes()
            == clean.prediction.t_rc.tobytes()
        )


class TestKilledRunResume:
    def test_killed_checkpointed_run_resumes_bitwise_identical(
        self, tmp_path, pdf1d_rat
    ):
        """Actually kill an exploring process mid-run, then resume.

        The child process journals chunks serially until the marker
        chunk ``os._exit``s the whole interpreter — the checkpoint's
        torn-state story, not a simulation of it.
        """
        journal = tmp_path / "killed.jsonl"
        script = f"""
import sys
from functools import partial
sys.path[:0] = {[p for p in [os.path.join(_REPO, "src"), _REPO]]!r}
import numpy as np
from repro.apps.registry import get_case_study
from repro.explore import explore, DesignSpace
from tests.explore.faults import kill_parent_chunk
base = get_case_study("pdf1d").rat
clocks = np.linspace(50.0, 300.0, 50)
clocks[32] = 333.5  # KILL_PARENT_HZ marker: dies in chunk 6 of 10
space = DesignSpace(base=base, axes=("clock_mhz",),
                    values=clocks.reshape(-1, 1))
explore(space, chunk_size=5, checkpoint={str(journal)!r},
        chunk_fn=kill_parent_chunk)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        clocks = np.linspace(50.0, 300.0, 50)
        clocks[32] = 333.5
        space = DesignSpace(
            base=pdf1d_rat, axes=("clock_mhz",),
            values=clocks.reshape(-1, 1),
        )
        resumed = explore(
            space, chunk_size=5, checkpoint=journal, resume=True
        )
        assert resumed.resumed_chunks == 6  # chunks 0-5 survived the kill
        clean = explore(space, chunk_size=5)
        for name in ("t_rc", "speedup", "t_comm", "t_comp"):
            assert (
                getattr(resumed.prediction, name).tobytes()
                == getattr(clean.prediction, name).tobytes()
            )
