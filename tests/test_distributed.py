"""Distributed campaign engine: framing, handshake, reassignment, bit-identity.

Everything here runs on localhost sockets: raw-socket protocol tests against a
live :class:`~repro.campaign.scheduler.CampaignCoordinator`, and end-to-end
campaigns where real forked socket workers (and one deliberately treacherous
fake) execute chunks.  The invariant under test is the one the store relies
on: a distributed campaign commits rows *byte-identical* to a serial run of
the same population, no matter which worker ran which chunk or how many died
along the way.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import struct
import threading
import time

import pytest

from repro.campaign import CampaignEngine
from repro.campaign.scheduler import (
    CampaignCoordinator,
    SchedulerConfig,
    WorkerRejected,
    run_worker,
)
from repro.campaign.store import STORE_FORMAT_VERSION
from repro.campaign.transport import (
    MSG_CAMPAIGN,
    MSG_CHUNK,
    MSG_CLAIM,
    MSG_READY,
    MSG_REJECT,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    encode_frame,
    find_free_port,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
    validate_hello,
    worker_hello,
)
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy


@pytest.fixture(scope="module")
def population(smoke_context):
    preset = smoke_context.preset
    return ChipPopulation.generate(
        count=6,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.25),
        seed=321,
    )


def _fast_scheduler_config(**overrides):
    base = dict(poll_interval=0.01, no_worker_timeout=120.0, shard_grace=10.0)
    base.update(overrides)
    return SchedulerConfig(**base)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        message = {"type": "result", "values": [1.5, -0.25], "text": "αβ"}
        frames = FrameDecoder().feed(encode_frame(message))
        assert frames == [message]

    def test_byte_by_byte_feed(self):
        """Arbitrary TCP segmentation: one byte per feed still decodes."""
        message = {"type": "chunk", "jobs": list(range(50))}
        data = encode_frame(message)
        decoder = FrameDecoder()
        collected = []
        for i in range(len(data)):
            collected.extend(decoder.feed(data[i : i + 1]))
        assert collected == [message]

    def test_many_frames_in_one_feed(self):
        messages = [{"type": "heartbeat", "n": i} for i in range(7)]
        blob = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(blob) == messages

    def test_split_across_header_boundary(self):
        """A feed that ends inside the 4-byte header must not lose bytes."""
        message = {"type": "claim"}
        data = encode_frame(message)
        decoder = FrameDecoder()
        assert decoder.feed(data[:2]) == []
        assert decoder.feed(data[2:]) == [message]

    def test_oversized_announced_frame_rejected(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        header = struct.pack(">I", 65)
        with pytest.raises(FrameError, match="cap"):
            decoder.feed(header)

    def test_oversized_encode_rejected(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame({"blob": "x" * 100}, max_frame_bytes=64)

    def test_non_object_payload_rejected(self):
        payload = json.dumps([1, 2, 3]).encode()
        with pytest.raises(FrameError, match="not an object"):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)

    def test_socketpair_partial_reads(self):
        """recv_frame reassembles a frame trickled through a real socket."""
        left, right = socket.socketpair()
        try:
            message = {"type": "result", "rows": [{"chip": i} for i in range(20)]}
            data = encode_frame(message)

            def trickle():
                for i in range(0, len(data), 3):
                    left.sendall(data[i : i + 3])
                    time.sleep(0.001)

            thread = threading.Thread(target=trickle)
            thread.start()
            assert recv_frame(right) == message
            thread.join()
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_mid_frame_eof_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame({"type": "claim"})[:5])
            left.close()
            with pytest.raises(FrameError, match="closed"):
                recv_frame(right)
        finally:
            right.close()


class TestAddresses:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("127.0.0.1:7000", ("127.0.0.1", 7000)),
            ("example.org:80", ("example.org", 80)),
            ("9000", ("127.0.0.1", 9000)),
            (":9000", ("127.0.0.1", 9000)),
        ],
    )
    def test_parse(self, spec, expected):
        assert parse_address(spec) == expected

    @pytest.mark.parametrize("bad", ["", "host:", "host:notaport", "host:70000"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_format_round_trip(self):
        assert parse_address(format_address(("10.0.0.1", 1234))) == ("10.0.0.1", 1234)

    def test_find_free_port_is_bindable(self):
        port = find_free_port()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(("127.0.0.1", port))
        finally:
            sock.close()


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------


class TestValidateHello:
    def _hello(self, **overrides):
        hello = worker_hello(host="w", pid=1)
        hello.update(overrides)
        return hello

    def test_accepts_matching_hello(self):
        assert validate_hello(self._hello(), "smoke") is None

    def test_rejects_wrong_protocol(self):
        reason = validate_hello(self._hello(protocol=999), "smoke")
        assert reason is not None and "protocol" in reason

    def test_rejects_wrong_store_format(self):
        reason = validate_hello(self._hello(store_format=STORE_FORMAT_VERSION + 1), "smoke")
        assert reason is not None and "store format" in reason

    def test_rejects_preset_mismatch(self):
        reason = validate_hello(self._hello(preset="fast"), "smoke")
        assert reason is not None and "preset" in reason

    def test_accepts_declared_matching_preset(self):
        assert validate_hello(self._hello(preset="smoke"), "smoke") is None


class TestCoordinatorHandshake:
    """Raw-socket clients against a live coordinator's accept loop."""

    @pytest.fixture()
    def coordinator(self, smoke_context):
        coordinator = CampaignCoordinator(
            smoke_context.preset,
            listen=("127.0.0.1", 0),
            config=_fast_scheduler_config(),
        )
        yield coordinator
        coordinator.close()

    def _handshake(self, coordinator, hello):
        sock = socket.create_connection(coordinator.address, timeout=10.0)
        sock.settimeout(10.0)
        try:
            send_frame(sock, hello)
            return recv_frame(sock)
        finally:
            sock.close()

    def test_mismatched_protocol_is_rejected(self, coordinator):
        hello = worker_hello(host="w", pid=1)
        hello["protocol"] = PROTOCOL_VERSION + 10
        reply = self._handshake(coordinator, hello)
        assert reply["type"] == MSG_REJECT
        assert "protocol" in reply["reason"]

    def test_mismatched_store_format_is_rejected(self, coordinator):
        hello = worker_hello(host="w", pid=1)
        hello["store_format"] = STORE_FORMAT_VERSION + 1
        reply = self._handshake(coordinator, hello)
        assert reply["type"] == MSG_REJECT
        assert "store format" in reply["reason"]

    def test_welcome_ships_preset_and_knobs(self, coordinator, smoke_context):
        hello = worker_hello(host="w", pid=1)
        reply = self._handshake(coordinator, hello)
        assert reply["type"] == MSG_WELCOME
        assert reply["protocol"] == PROTOCOL_VERSION
        assert reply["preset_name"] == smoke_context.preset.name
        assert reply["preset"]["name"] == smoke_context.preset.name

    def test_run_worker_expect_preset_mismatch_raises(self, coordinator):
        with pytest.raises(WorkerRejected, match="preset"):
            run_worker(
                join=coordinator.address,
                expect_preset="definitely-not-this-preset",
                connect_timeout=10.0,
            )


# ---------------------------------------------------------------------------
# End-to-end distributed campaigns
# ---------------------------------------------------------------------------


def _run_serial(context, population, store_base):
    engine = CampaignEngine(
        context, jobs=1, store_base=store_base, fat_batch=2, progress=False
    )
    return engine.run(population, FixedEpochPolicy(0.25))


def _store_bytes(store_base):
    stores = list(store_base.glob("*/results.jsonl"))
    assert len(stores) == 1
    return stores[0].read_bytes()


def _joining_worker_process(address, max_chunks=None):
    """Forked socket worker dialing ``address`` (module-level: picklable)."""
    from repro.campaign.scheduler import run_worker as worker

    try:
        worker(join=address, connect_timeout=60.0, max_chunks=max_chunks)
    except Exception:  # noqa: BLE001 - the parent asserts on campaign state
        pass


def _listening_worker_process(address):
    from repro.campaign.scheduler import run_worker as worker

    try:
        worker(listen=address, connect_timeout=60.0)
    except Exception:  # noqa: BLE001
        pass


def _mp_context():
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


class TestDistributedCampaigns:
    def test_distributed_matches_serial_bit_for_bit(
        self, smoke_context, population, tmp_path
    ):
        serial = _run_serial(smoke_context, population, tmp_path / "serial")

        with CampaignEngine(
            smoke_context,
            jobs=2,
            store_base=tmp_path / "dist",
            fat_batch=2,
            progress=False,
            listen=("127.0.0.1", 0),
            scheduler_config=_fast_scheduler_config(),
        ) as engine:
            distributed = engine.run(population, FixedEpochPolicy(0.25))
            report = engine.last_report

        assert report.failed == 0
        assert report.executed == len(population)
        assert [r.to_dict() for r in distributed.results] == [
            r.to_dict() for r in serial.results
        ]
        assert _store_bytes(tmp_path / "dist") == _store_bytes(tmp_path / "serial")

    def test_distributed_store_resumes_serially_with_zero_reexecution(
        self, smoke_context, population, tmp_path
    ):
        with CampaignEngine(
            smoke_context,
            jobs=2,
            store_base=tmp_path / "dist",
            fat_batch=2,
            progress=False,
            listen=("127.0.0.1", 0),
            scheduler_config=_fast_scheduler_config(),
        ) as engine:
            engine.run(population, FixedEpochPolicy(0.25))
            fingerprint = engine.last_report.fingerprint

        resumed_engine = CampaignEngine(
            smoke_context, jobs=1, store_base=tmp_path / "dist", progress=False
        )
        resumed = resumed_engine.run(population, FixedEpochPolicy(0.25))
        assert resumed_engine.last_report.executed == 0
        assert resumed_engine.last_report.skipped == len(population)
        assert resumed_engine.last_report.fingerprint == fingerprint
        assert len(resumed.results) == len(population)

    def test_worker_dropping_after_one_chunk_does_not_fail_campaign(
        self, smoke_context, population, tmp_path
    ):
        """A worker that vanishes SIGKILL-style mid-campaign loses nothing."""
        serial = _run_serial(smoke_context, population, tmp_path / "serial")

        engine = CampaignEngine(
            smoke_context,
            jobs=0,
            store_base=tmp_path / "dist",
            fat_batch=1,
            progress=False,
            listen=("127.0.0.1", 0),
            scheduler_config=_fast_scheduler_config(),
            max_chunk_retries=4,
        )
        ctx = _mp_context()
        flaky = ctx.Process(
            target=_joining_worker_process,
            args=(engine.listen_address, 1),
            daemon=True,
        )
        steady = ctx.Process(
            target=_joining_worker_process,
            args=(engine.listen_address, None),
            daemon=True,
        )
        flaky.start()
        steady.start()
        try:
            distributed = engine.run(population, FixedEpochPolicy(0.25))
            report = engine.last_report
        finally:
            engine.close()
            for proc in (flaky, steady):
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()

        assert report.failed == 0
        assert report.executed == len(population)
        assert _store_bytes(tmp_path / "dist") == _store_bytes(tmp_path / "serial")
        assert [r.to_dict() for r in distributed.results] == [
            r.to_dict() for r in serial.results
        ]

    def test_disconnect_with_chunk_in_flight_is_reassigned(
        self, smoke_context, population, tmp_path, caplog, monkeypatch
    ):
        """A fake worker claims a chunk and dies holding it; the coordinator
        sees the disconnect (not a hang deadline) and the ledger reassigns
        that exact chunk to the surviving real worker."""
        import logging

        # The library's logger hierarchy does not propagate to the root
        # logger; let it through so caplog can observe the loss cause.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        caplog.set_level(logging.WARNING, logger="repro.campaign.scheduler")
        engine = CampaignEngine(
            smoke_context,
            jobs=1,
            store_base=tmp_path / "dist",
            fat_batch=1,
            progress=False,
            listen=("127.0.0.1", 0),
            scheduler_config=_fast_scheduler_config(),
            max_chunk_retries=4,
        )
        stolen = {}

        def treacherous_worker():
            sock = socket.create_connection(engine.listen_address, timeout=30.0)
            sock.settimeout(30.0)
            try:
                send_frame(sock, worker_hello(host="fake", pid=0))
                welcome = recv_frame(sock)
                assert welcome["type"] == MSG_WELCOME
                send_frame(sock, {"type": MSG_READY})
                while True:
                    message = recv_frame(sock)
                    if message is None:
                        return
                    if message.get("type") == MSG_CAMPAIGN:
                        send_frame(
                            sock,
                            {
                                "type": MSG_CLAIM,
                                "campaign_id": message["campaign_id"],
                            },
                        )
                    elif message.get("type") == MSG_CHUNK:
                        stolen["chunk_index"] = message["chunk_index"]
                        return  # die abruptly, chunk in flight
            finally:
                sock.close()

        thief = threading.Thread(target=treacherous_worker, daemon=True)
        thief.start()
        try:
            # Let the thief finish its handshake before chunks start flowing,
            # so it reliably claims (and then drops) one chunk.
            deadline = time.time() + 30
            while engine._coordinator.worker_hint() < 1 and time.time() < deadline:
                time.sleep(0.01)
            result = engine.run(population, FixedEpochPolicy(0.25))
            report = engine.last_report
        finally:
            engine.close()
            thief.join(timeout=30)

        assert stolen, "the fake worker never received a chunk"
        losses = [
            record.getMessage()
            for record in caplog.records
            if " lost (" in record.getMessage()
        ]
        # Lost through EOF on its link, not rescued by the chunk deadline.
        assert losses and all("lost (disconnected)" in loss for loss in losses), losses
        assert not any("chunk deadline" in record.getMessage() for record in caplog.records)
        assert report.failed == 0
        assert report.executed == len(population)
        assert len(result.results) == len(population)

    def test_coordinator_dials_listening_worker(
        self, smoke_context, population, tmp_path
    ):
        """The --workers direction: worker listens, coordinator dials out."""
        serial = _run_serial(smoke_context, population, tmp_path / "serial")

        port = find_free_port()
        ctx = _mp_context()
        worker = ctx.Process(
            target=_listening_worker_process,
            args=(("127.0.0.1", port),),
            daemon=True,
        )
        worker.start()
        engine = CampaignEngine(
            smoke_context,
            jobs=0,
            store_base=tmp_path / "dist",
            fat_batch=2,
            progress=False,
            workers=[("127.0.0.1", port)],
            scheduler_config=_fast_scheduler_config(),
        )
        try:
            engine.run(population, FixedEpochPolicy(0.25))
            report = engine.last_report
        finally:
            engine.close()
            worker.join(timeout=30)
            if worker.is_alive():
                worker.terminate()

        assert report.failed == 0
        assert report.executed == len(population)
        assert _store_bytes(tmp_path / "dist") == _store_bytes(tmp_path / "serial")
        assert serial.num_chips == len(population)
