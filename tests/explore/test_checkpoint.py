"""Checkpoint journal tests: run keys, journal format, resume semantics."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.buffering import BufferingMode
from repro.errors import ExplorationError, ParameterError
from repro.explore import ChunkJournal, DesignSpace, explore, map_designs, run_key
from repro.explore.checkpoint import JOURNAL_VERSION
from repro.explore.executor import _decode_columns, _encode_columns

from . import faults

_REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

_RESULTS = (
    "t_input", "t_output", "t_comm", "t_comp", "t_rc",
    "speedup", "util_comp", "util_comm",
)


def _assert_bitwise(result, reference):
    for name in _RESULTS:
        assert (
            getattr(result.prediction, name).tobytes()
            == getattr(reference.prediction, name).tobytes()
        ), name


def _space(base, n=30):
    return DesignSpace.random(
        base, n, seed=5, clock_mhz=(50, 300), alpha=(0.1, 0.9)
    )


class TestRunKey:
    def test_deterministic(self, pdf1d_rat):
        space = _space(pdf1d_rat)
        key = run_key(space, BufferingMode.SINGLE, 10, "fail")
        assert key == run_key(space, BufferingMode.SINGLE, 10, "fail")

    def test_sensitive_to_every_ingredient(self, pdf1d_rat):
        space = _space(pdf1d_rat)
        base = run_key(space, BufferingMode.SINGLE, 10, "fail")
        assert base != run_key(space, BufferingMode.DOUBLE, 10, "fail")
        assert base != run_key(space, BufferingMode.SINGLE, 11, "fail")
        assert base != run_key(space, BufferingMode.SINGLE, 10, "skip")
        assert base != run_key(
            space, BufferingMode.SINGLE, 10, "fail", evaluator="f"
        )

    def test_sensitive_to_values_bits(self, pdf1d_rat):
        space = _space(pdf1d_rat)
        nudged = DesignSpace(
            base=space.base,
            axes=space.axes,
            values=np.nextafter(space.values, np.inf),
        )
        assert run_key(space, BufferingMode.SINGLE, 10, "fail") != run_key(
            nudged, BufferingMode.SINGLE, 10, "fail"
        )

    def test_sensitive_to_base_worksheet(self, pdf1d_rat, pdf2d_rat):
        assert run_key(
            _space(pdf1d_rat), BufferingMode.SINGLE, 10, "fail"
        ) != run_key(_space(pdf2d_rat), BufferingMode.SINGLE, 10, "fail")


class TestChunkJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = ChunkJournal(path, "k1")
        with journal.open(fresh=True):
            journal.append(0, {"payload": [1.5]})
            journal.append(2, {"payload": [2.5]})
        completed = ChunkJournal(path, "k1").load()
        assert completed == {0: {"payload": [1.5]}, 2: {"payload": [2.5]}}

    def test_missing_file_is_empty(self, tmp_path):
        assert ChunkJournal(tmp_path / "absent.jsonl", "k").load() == {}

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal(path, "k").open(fresh=True) as journal:
            journal.append(0, {"payload": []})
        with ChunkJournal(path, "k").open(fresh=True):
            pass
        assert ChunkJournal(path, "k").load() == {}

    def test_key_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal(path, "old-key").open(fresh=True):
            pass
        with pytest.raises(ExplorationError, match="different run"):
            ChunkJournal(path, "new-key").load()

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "header", "version": JOURNAL_VERSION + 1, "key": "k"}
            )
            + "\n"
        )
        with pytest.raises(ExplorationError, match="version"):
            ChunkJournal(path, "k").load()

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal(path, "k").open(fresh=True) as journal:
            journal.append(0, {"payload": [1.0]})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "chunk", "index": 1, "pa')  # torn write
        assert ChunkJournal(path, "k").load() == {0: {"payload": [1.0]}}

    def test_malformed_mid_journal_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal(path, "k").open(fresh=True) as journal:
            journal.append(0, {"payload": [1.0]})
        header, chunk = path.read_text().splitlines(keepends=True)
        # Garbage *between* valid records cannot be a torn tail.
        path.write_text(header + '{"kind": "chu\n' + chunk)
        with pytest.raises(ExplorationError, match="corrupt"):
            ChunkJournal(path, "k").load()

    def test_chunk_before_header_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"kind": "chunk", "index": 0, "payload": []}) + "\n"
        )
        with pytest.raises(ExplorationError, match="before header"):
            ChunkJournal(path, "k").load()

    def test_append_requires_open(self, tmp_path):
        journal = ChunkJournal(tmp_path / "run.jsonl", "k")
        with pytest.raises(ExplorationError, match="not open"):
            journal.append(0, {})

    def test_non_serializable_payload(self, tmp_path):
        with ChunkJournal(tmp_path / "run.jsonl", "k").open(
            fresh=True
        ) as journal:
            with pytest.raises(ParameterError, match="JSON-serializable"):
                journal.append(0, {"payload": object()})

    def test_empty_path_rejected(self):
        with pytest.raises(ParameterError, match="non-empty"):
            ChunkJournal("", "k")


class TestColumnRecords:
    def test_round_trip_is_bitwise(self):
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
             0.1, np.nan]
        )
        nan_payload = np.frombuffer(
            np.uint64(0x7FF8_0000_DEAD_BEEF).tobytes(), dtype=np.float64
        )
        columns = tuple(
            np.concatenate([np.roll(special, j), nan_payload]) for j in range(8)
        )
        record = json.loads(json.dumps({"payload": _encode_columns(columns)}))
        decoded = _decode_columns(0, 9, record)
        assert len(decoded) == 8
        for original, column in zip(columns, decoded):
            assert column.tobytes() == original.tobytes()

    def test_decoded_columns_are_writable_and_owned(self):
        columns = tuple(np.arange(5, dtype=np.float64) + j for j in range(8))
        payload = {"payload": _encode_columns(columns)}
        decoded = _decode_columns(0, 5, payload)
        for column in decoded:
            assert column.dtype == np.float64
            assert column.flags.writeable
            assert column.flags.owndata
        decoded[0][:] = -1.0  # no other column, and no record, changes
        assert decoded[1].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _decode_columns(0, 5, payload)[0].tolist() == [
            0.0, 1.0, 2.0, 3.0, 4.0
        ]

    def test_journal_record_layout(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 10)
        journal = tmp_path / "run.jsonl"
        explore(space, chunk_size=4, checkpoint=journal)
        header, *chunks = [json.loads(line) for line in open(journal)]
        assert header == {
            "kind": "header", "version": 2,
            "key": run_key(space, BufferingMode.SINGLE, 4, "fail"),
        }
        assert [record["index"] for record in chunks] == [0, 1, 2]
        for record in chunks:
            assert record["kind"] == "chunk"
            assert set(record["payload"]) == {"elapsed", "payload"}
            assert isinstance(record["payload"]["payload"], str)


def _rewrite_chunk(path, index, edit):
    """Apply ``edit`` to chunk ``index``'s column string in the journal."""
    records = [json.loads(line) for line in open(path)]
    for record in records:
        if record.get("kind") == "chunk" and record["index"] == index:
            record["payload"]["payload"] = edit(record["payload"]["payload"])
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


class TestCorruptColumns:
    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda text: text[:-4], id="truncated"),
            pytest.param(lambda text: text[:-1], id="torn-base64"),
            pytest.param(lambda text: "!" + text[1:], id="not-base64"),
            pytest.param(lambda text: text + "AAAAAAAA", id="overlong"),
        ],
    )
    def test_bad_payload_names_the_chunk(self, tmp_path, pdf1d_rat, edit):
        space = _space(pdf1d_rat, 12)
        journal = tmp_path / "run.jsonl"
        explore(space, chunk_size=4, checkpoint=journal)
        _rewrite_chunk(journal, 1, edit)
        with pytest.raises(ExplorationError, match="chunk 1 is corrupt"):
            explore(space, chunk_size=4, checkpoint=journal, resume=True)


def _v1_run_key(space, mode, chunk_size, on_error):
    """The run key a version-1 build computed for an explore journal."""
    values = space.values.astype(dtype="<f8", copy=False)
    payload = json.dumps(
        {
            "version": 1,
            "base": space.base.to_dict(),
            "axes": list(space.axes),
            "values_sha": hashlib.sha256(
                values.tobytes(order="C")
            ).hexdigest(),
            "mode": mode.value,
            "chunk_size": int(chunk_size),
            "on_error": on_error,
            "evaluator": "",
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestVersionOneJournal:
    def test_v1_journal_reports_its_version(self, tmp_path, pdf1d_rat):
        """A version-1 journal, written as version 1 wrote it, is refused
        for its version rather than as "a different run"."""
        space = _space(pdf1d_rat, 8)
        clean = explore(space, chunk_size=4)
        journal = tmp_path / "v1.jsonl"
        lines = [
            {
                "kind": "header", "version": 1,
                "key": _v1_run_key(space, BufferingMode.SINGLE, 4, "fail"),
            }
        ]
        for index, lo in enumerate((0, 4)):
            lines.append({
                "kind": "chunk", "index": index,
                "payload": {
                    "elapsed": 0.001,
                    "payload": [
                        getattr(clean.prediction, name)[lo:lo + 4].tolist()
                        for name in _RESULTS
                    ],
                },
            })
        journal.write_text(
            "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        )
        with pytest.raises(ExplorationError, match="journal version 1") as info:
            explore(space, chunk_size=4, checkpoint=journal, resume=True)
        assert "different run" not in str(info.value)


def _truncate_journal(path, keep_chunks):
    """Keep the header plus the first ``keep_chunks`` chunk records."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: 1 + keep_chunks]))
    return len(lines) - 1 - keep_chunks


class TestExploreResume:
    def test_interrupted_run_resumes_bitwise_identical(
        self, tmp_path, pdf1d_rat
    ):
        space = _space(pdf1d_rat, 40)
        journal = tmp_path / "run.jsonl"
        clean = explore(space, chunk_size=7)
        explore(space, chunk_size=7, checkpoint=journal)
        dropped = _truncate_journal(journal, keep_chunks=3)
        assert dropped > 0
        resumed = explore(space, chunk_size=7, checkpoint=journal, resume=True)
        assert resumed.resumed_chunks == 3
        _assert_bitwise(resumed, clean)

    def test_quarantine_resume_bitwise_identical(self, tmp_path, pdf1d_rat):
        clocks = np.linspace(50.0, 300.0, 30)
        clocks[::7] = -1.0
        space = DesignSpace(
            base=pdf1d_rat, axes=("clock_mhz",), values=clocks.reshape(-1, 1)
        )
        journal = tmp_path / "run.jsonl"
        clean = explore(space, chunk_size=4, on_error="quarantine")
        explore(space, chunk_size=4, on_error="quarantine", checkpoint=journal)
        _truncate_journal(journal, keep_chunks=2)
        resumed = explore(
            space, chunk_size=4, on_error="quarantine",
            checkpoint=journal, resume=True,
        )
        assert resumed.resumed_chunks == 2
        _assert_bitwise(resumed, clean)

    def test_complete_journal_resumes_everything(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 20)
        journal = tmp_path / "run.jsonl"
        first = explore(space, chunk_size=5, checkpoint=journal)
        resumed = explore(space, chunk_size=5, checkpoint=journal, resume=True)
        assert resumed.resumed_chunks == 4
        assert (
            resumed.prediction.t_rc.tobytes()
            == first.prediction.t_rc.tobytes()
        )

    def test_resume_without_checkpoint_rejected(self, pdf1d_rat):
        with pytest.raises(ParameterError, match="checkpoint"):
            explore(_space(pdf1d_rat, 4), resume=True)

    def test_changed_chunking_rejects_stale_journal(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 20)
        journal = tmp_path / "run.jsonl"
        explore(space, chunk_size=5, checkpoint=journal)
        with pytest.raises(ExplorationError, match="different run"):
            explore(space, chunk_size=4, checkpoint=journal, resume=True)

    def test_without_resume_overwrites(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 10)
        journal = tmp_path / "run.jsonl"
        explore(space, chunk_size=5, checkpoint=journal)
        again = explore(space, chunk_size=5, checkpoint=journal)
        assert again.resumed_chunks == 0

    def test_resume_after_torn_final_line(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 20)
        journal = tmp_path / "run.jsonl"
        clean = explore(space, chunk_size=5)
        explore(space, chunk_size=5, checkpoint=journal)
        _truncate_journal(journal, keep_chunks=2)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "chunk", "index": 2, "payl')
        resumed = explore(space, chunk_size=5, checkpoint=journal, resume=True)
        assert resumed.resumed_chunks == 2
        assert (
            resumed.prediction.t_rc.tobytes()
            == clean.prediction.t_rc.tobytes()
        )


class TestMapDesignsResume:
    def test_resume_replays_chunks(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 12)
        journal = tmp_path / "map.jsonl"
        first = map_designs(
            space, faults.t_rc_eval, chunk_size=3, checkpoint=journal
        )
        resumed = map_designs(
            space, faults.t_rc_eval, chunk_size=3,
            checkpoint=journal, resume=True, detail=True,
        )
        assert resumed.resumed_chunks == 4
        assert resumed.results == first

    def test_journal_is_evaluator_specific(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 6)
        journal = tmp_path / "map.jsonl"
        map_designs(space, faults.t_rc_eval, chunk_size=3, checkpoint=journal)
        with pytest.raises(ExplorationError, match="different run"):
            map_designs(
                space, faults.raise_on_slow_clock_eval, chunk_size=3,
                checkpoint=journal, resume=True,
            )


@pytest.mark.faults
class TestPoolResume:
    def test_killed_pool_run_resumes_bitwise_identical(
        self, tmp_path, pdf1d_rat
    ):
        """Kill a checkpointed pool run on its last chunk, then resume.

        ``kill_parent_chunk`` exits the process evaluating the marker
        chunk; on the pool path that is a worker, and with no retries the
        run dies with the chunks before it journaled.  Resuming on the
        pool must equal a clean serial run bit for bit.
        """
        journal = tmp_path / "pool.jsonl"
        script = f"""
import sys
sys.path[:0] = {[os.path.join(_REPO, "src"), _REPO]!r}
import numpy as np
from repro.apps.registry import get_case_study
from repro.explore import DesignSpace, RetryPolicy, explore
from tests.explore.faults import kill_parent_chunk
clocks = np.linspace(50.0, 300.0, 50)
clocks[47] = 333.5  # KILL_PARENT_HZ marker: the last of 10 chunks
space = DesignSpace(base=get_case_study("pdf1d").rat, axes=("clock_mhz",),
                    values=clocks.reshape(-1, 1))
explore(space, chunk_size=5, workers=2, checkpoint={str(journal)!r},
        retry=RetryPolicy(max_retries=0, backoff_s=0.0),
        chunk_fn=kill_parent_chunk)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        clocks = np.linspace(50.0, 300.0, 50)
        clocks[47] = faults.KILL_PARENT_HZ / 1e6
        space = DesignSpace(
            base=pdf1d_rat, axes=("clock_mhz",), values=clocks.reshape(-1, 1)
        )
        resumed = explore(
            space, chunk_size=5, workers=2, checkpoint=journal, resume=True
        )
        # Chunk 9 was submitted only once chunks 0-7 had completed.
        assert 8 <= resumed.resumed_chunks <= 9
        _assert_bitwise(resumed, explore(space, chunk_size=5))
