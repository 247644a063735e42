import base64
import socket
import struct
import threading

import numpy as np
import pytest

from mixnn import directory as directory_mod
from mixnn.crypto import Address, KeyRecord
from mixnn.directory import Directory, DirectoryConflict, handle_frame
from mixnn.harness import DirectoryClient, DirectoryServer


def rec(node_id, pk, port=9000):
    return KeyRecord(node_id, Address("10.0.0.1", port), pk)


class TestDirectory:
    def test_register_then_list(self, keypair):
        d = Directory()
        d.register(rec("a", keypair.pk))
        assert [r.node_id for r in d.list()] == ["a"]

    def test_same_pk_reregister_is_idempotent(self, keypair):
        d = Directory()
        d.register(rec("a", keypair.pk))
        d.register(rec("a", keypair.pk))
        assert len(d) == 1

    def test_conflict_on_different_pk(self, keypair, keypair2):
        d = Directory()
        d.register(rec("a", keypair.pk))
        with pytest.raises(DirectoryConflict):
            d.register(rec("a", keypair2.pk))

    def test_empty_listing(self):
        assert Directory().list() == []

    def test_listing_sorted_and_stable(self, keypair):
        d = Directory()
        for name in ("c", "a", "b"):
            d.register(rec(name, keypair.pk))
        first = [r.node_id for r in d.list()]
        assert first == ["a", "b", "c"]
        assert [r.node_id for r in d.list()] == first

    def test_monotone_growth(self, keypair):
        d = Directory()
        sizes = []
        for k in range(5):
            d.register(rec(f"n{k}", keypair.pk))
            sizes.append(len(d.list()))
        assert sizes == sorted(sizes)


class TestPersistence:
    def test_replay_from_store(self, tmp_path, keypair):
        store = str(tmp_path / "records.txt")
        d = Directory(store_path=store)
        d.register(rec("a", keypair.pk))
        d.register(rec("b", keypair.pk))
        reloaded = Directory(store_path=store)
        assert [r.node_id for r in reloaded.list()] == ["a", "b"]

    def test_store_never_contains_sk(self, tmp_path, keypair):
        store = str(tmp_path / "records.txt")
        d = Directory(store_path=store)
        d.register(rec("a", keypair.pk))
        blob = (tmp_path / "records.txt").read_bytes()
        assert keypair.sk not in blob


class TestFrames:
    def test_register_and_list_frames(self, keypair):
        d = Directory()
        r = rec("a", keypair.pk)
        assert handle_frame(d, f"REGISTER {r.to_line()}") == "OK"
        response = handle_frame(d, "LIST")
        records = directory_mod.parse_records_response(response)
        assert records[0].node_id == "a" and records[0].pk == keypair.pk

    def test_conflict_frame(self, keypair, keypair2):
        d = Directory()
        handle_frame(d, f"REGISTER {rec('a', keypair.pk).to_line()}")
        response = handle_frame(d, f"REGISTER {rec('a', keypair2.pk).to_line()}")
        assert response.startswith("ERR")

    def test_unknown_verb(self):
        assert handle_frame(Directory(), "DANCE").startswith("ERR")

    def test_list_with_arguments_rejected(self):
        assert handle_frame(Directory(), "LIST region=x") == "ERR LIST takes no arguments"

    @pytest.mark.parametrize("node_id, address", [
        ("evil\nx", "127.0.0.1:9001"),
        ("evil\tx", "127.0.0.1:9001"),
        ("a", "127.0.0.1\n:9001"),
        ("a", "127.0.0.1\t:9001"),
    ], ids=["newline-in-id", "tab-in-id", "newline-in-address", "tab-in-address"])
    def test_register_with_whitespace_inside_a_field_rejected(self, tmp_path, keypair,
                                                                node_id, address):
        # one such record would break every later LIST and the store's reload
        store = str(tmp_path / "records.txt")
        d = Directory(store_path=store)
        handle_frame(d, f"REGISTER {rec('good', keypair.pk).to_line()}")
        pk_b64 = base64.b64encode(keypair.pk).decode()
        assert handle_frame(d, f"REGISTER {node_id} {address} {pk_b64}").startswith("ERR")
        listed = directory_mod.parse_records_response(handle_frame(d, "LIST"))
        assert [r.node_id for r in listed] == ["good"]
        assert [r.node_id for r in Directory(store_path=store).list()] == ["good"]

    def test_store_line_with_trailing_space_loads(self, tmp_path, keypair):
        # stores written by earlier versions end each record line in a space
        store = tmp_path / "records.txt"
        store.write_text(rec("a", keypair.pk).to_line() + " \n", encoding="utf-8")
        assert [r.node_id for r in Directory(store_path=str(store)).list()] == ["a"]

    @pytest.mark.parametrize("key_len", [1, 294])  # 294: an RSA-2048 DER public key
    def test_register_rejects_key_not_32_bytes(self, key_len):
        d = Directory()
        pk_b64 = base64.b64encode(b"x" * key_len).decode()
        assert handle_frame(d, f"REGISTER n000 h.sim:9000 {pk_b64}").startswith("ERR")
        assert len(d) == 0


class TestWireService:
    def test_register_list_over_sockets(self, keypair):
        server = DirectoryServer(Directory())
        server.start()
        try:
            client = DirectoryClient(server.address)
            client.register(rec("w1", keypair.pk))
            client.register(rec("w0", keypair.pk))
            assert [r.node_id for r in client.list()] == ["w0", "w1"]
        finally:
            server.stop()

    def test_wire_conflict_raises(self, keypair, keypair2):
        server = DirectoryServer(Directory())
        server.start()
        try:
            client = DirectoryClient(server.address)
            client.register(rec("w1", keypair.pk))
            with pytest.raises(RuntimeError):
                client.register(rec("w1", keypair2.pk))
        finally:
            server.stop()

    def test_bad_frame_drops_only_its_connection(self, keypair):
        server = DirectoryServer(Directory())
        server.start()
        try:
            with socket.create_connection((server.address.host, server.address.port),
                                          timeout=10.0) as s:
                s.sendall(b"\x00\x00\x00\x01\xff")  # one-byte frame, not UTF-8
                assert s.recv(1) == b""  # closed without a response
            client = DirectoryClient(server.address)
            client.register(rec("w1", keypair.pk))
            assert [r.node_id for r in client.list()] == ["w1"]
        finally:
            server.stop()

    def test_idle_connection_does_not_delay_others(self):
        server = DirectoryServer(Directory())
        server.start()
        try:
            with socket.create_connection((server.address.host, server.address.port)):
                client = DirectoryClient(server.address)
                # in a thread, so a server stuck on the idle connection fails
                # the test after 1 s rather than after the 10 s read timeout
                listed = []
                thread = threading.Thread(target=lambda: listed.append(client.list()),
                                          daemon=True)
                thread.start()
                thread.join(timeout=1.0)
                assert listed == [[]]
        finally:
            server.stop()

    def test_oversized_frame_header_closes_connection(self):
        server = DirectoryServer(Directory())
        server.start()
        try:
            with socket.create_connection((server.address.host, server.address.port),
                                          timeout=2.0) as s:
                s.sendall(struct.pack(">I", (1 << 20) + 1))  # 1 MiB + 1, and no body
                assert s.recv(1) == b""  # closed at once, without a response
        finally:
            server.stop()

    def test_truncated_reply_raises_runtime_error(self):
        # a stub directory that announces a 10-byte reply, sends 3 and closes
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(1024)
                conn.sendall(struct.pack(">I", 10) + b"REC")

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            with pytest.raises(RuntimeError):
                DirectoryClient(Address("127.0.0.1", port)).list()
        finally:
            thread.join(timeout=10.0)
            listener.close()

    def test_no_sk_bytes_cross_the_wire(self, keypair):
        # capture every frame by wrapping handle_frame's input/output
        captured = []
        d = Directory()
        real = directory_mod.handle_frame

        def spy(directory, request):
            captured.append(request)
            response = real(directory, request)
            captured.append(response)
            return response

        directory_mod.handle_frame = spy
        try:
            server = DirectoryServer(d)
            server.start()
            try:
                client = DirectoryClient(server.address)
                client.register(rec("w1", keypair.pk))
                client.list()
            finally:
                server.stop()
        finally:
            directory_mod.handle_frame = real
        blob = "\n".join(captured).encode()
        assert captured and keypair.sk not in blob

    def test_seeded_selection_subset(self, keypair):
        d = Directory()
        for k in range(20):
            d.register(rec(f"n{k:02d}", keypair.pk))
        pool = d.list()
        rng = np.random.default_rng(4)
        chosen = [pool[i] for i in rng.choice(len(pool), 8, replace=False)]
        ids = {r.node_id for r in chosen}
        assert len(ids) == 8 and ids <= {r.node_id for r in pool}
