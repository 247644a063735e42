"""Registration authority: servers publish (node_id, address, pk), the
designer lists the whole pool.

The in-process Directory object is the whole service; the socket flavour in
the harness just speaks length-prefixed text frames in front of it:

    request:  "REGISTER <record-line>"  |  "LIST"
    response: "OK" | "ERR <message>" | "RECORDS\n<record-line>..."

A record line is `node_id address pk`: three fields, none holding
whitespace, so a REGISTER cannot smuggle a second line into a listing or the
store. Secret keys never appear in records, frames, or the store file.
"""

import os
import threading

from .crypto import KeyRecord


class DirectoryConflict(ValueError):
    """node_id already registered with a different public key."""


class Directory:
    def __init__(self, store_path: str | None = None):
        self._records: dict[str, KeyRecord] = {}
        self._lock = threading.Lock()
        self._store_path = store_path
        if store_path and os.path.exists(store_path):
            with open(store_path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if line:
                        self._insert(KeyRecord.from_line(line), persist=False)

    def _insert(self, rec: KeyRecord, persist: bool):
        existing = self._records.get(rec.node_id)
        if existing is not None and existing.pk != rec.pk:
            raise DirectoryConflict(
                f"node_id {rec.node_id!r} already registered with a different key"
            )
        self._records[rec.node_id] = rec
        if persist and self._store_path:
            with open(self._store_path, "a", encoding="utf-8") as f:
                f.write(rec.to_line() + "\n")

    def register(self, rec: KeyRecord) -> None:
        """Store a record. Re-registering the identical pk is idempotent;
        the same node_id with a different pk is a conflict."""
        with self._lock:
            self._insert(rec, persist=True)

    def list(self) -> list:
        """All records in node_id order."""
        with self._lock:
            return [self._records[k] for k in sorted(self._records)]

    def __len__(self):
        return len(self._records)


def handle_frame(directory: Directory, request: str) -> str:
    """One request frame in, one response frame out."""
    verb, _, rest = request.partition(" ")
    if verb == "REGISTER":
        try:
            directory.register(KeyRecord.from_line(rest))
        except ValueError as exc:  # DirectoryConflict too
            return f"ERR {exc}"
        return "OK"
    if verb == "LIST":
        if rest:
            return "ERR LIST takes no arguments"
        return "RECORDS\n" + "\n".join(r.to_line() for r in directory.list())
    return f"ERR unknown verb {verb!r}"


def parse_records_response(response: str) -> list:
    if response.startswith("ERR"):
        raise RuntimeError(response)
    if not response.startswith("RECORDS"):
        raise RuntimeError(f"malformed directory response: {response[:40]!r}")
    lines = response.split("\n")[1:]
    return [KeyRecord.from_line(line) for line in lines if line]
