"""Append-only JSONL result cache keyed by input fingerprints.

Each line stores one record: fingerprint, operation name, payload,
artifact version, timestamp.  A batch of lines is written with a single
write call so concurrent writers never interleave.

A process reads the file once and keeps its bytes.  Lines in a layout
other than the one `store` writes are parsed then; those that fail are
skipped with a warning and never fatal.  A lookup searches the bytes
for its fingerprint from the end and parses only the lines that begin
with it, newest first, so a torn line falls back to that fingerprint's
previous record.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import time

# A line `store` writes for a `fingerprint()` key begins
# `{"fingerprint":"<32 hex digits>"`; alphanumerics need no escaping, so
# the 32 bytes between the quotes are the exact key.
_PREFIX = b'{"fingerprint":"'
_LAYOUT = rb'\{"fingerprint":"[0-9A-Za-z]{32}"'
_STORE_LINE = re.compile(_LAYOUT)
_OTHER_BREAK = re.compile(rb"\n(?!" + _LAYOUT + rb")")  # breaks before any other line


def fingerprint(op: str, params: dict, version: str) -> str:
    blob = json.dumps(
        {"op": op, "params": params, "version": version},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _record(line: bytes):
    """(fingerprint, payload) of a cache line read as UTF-8 text without
    its surrounding whitespace; raises ValueError, KeyError or TypeError
    when the line is not a well-formed record."""
    rec = json.loads(line.decode("utf-8").strip())
    return rec["fingerprint"], rec["payload"]


def _line(data: bytes, start: int) -> bytes:
    end = data.find(b"\n", start)
    return data[start:] if end < 0 else data[start:end]


def _layout_starts(data: bytes, head: bytes, after: int):
    """Offsets past `after` of the lines that begin with `head`, newest
    first: one byte search from the end per line found."""
    needle, hi = b"\n" + head, len(data)
    while (at := data.rfind(needle, max(after, 0), hi)) >= 0:
        yield at + 1
        hi = at
    if after < 0 and data.startswith(head):
        yield 0


class ResultCache:
    def __init__(self, path: str):
        self.path = path
        self._data = None  # the file's bytes, line breaks made b"\n"
        # fingerprint -> (offset, line) of its newest well-formed line that
        # the byte search does not find: a line in another layout, or one
        # this process stored after reading the file (offset past the end)
        self._others = {}

    def _load(self):
        if self._data is not None:
            return
        self._data = b""
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        self._data = data
        starts = [m.end() for m in _OTHER_BREAK.finditer(data)]
        if not _STORE_LINE.match(data):
            starts.insert(0, 0)
        bad = 0
        for start in starts:
            line = _line(data, start)
            if not line.strip():
                continue
            try:
                self._others[_record(line)[0]] = (start, line)
            except (ValueError, KeyError, TypeError):  # an unhashable fingerprint too
                bad += 1
        if bad:
            print(f"# cache: skipped {bad} corrupt line(s) in {self.path}", file=sys.stderr)

    def lookup(self, fp: str):
        """The payload of the newest well-formed record for `fp`, or None."""
        self._load()
        after, other = self._others.get(fp, (-1, None))
        if isinstance(fp, str) and len(fp) == 32 and fp.isascii() and fp.isalnum():
            head = _PREFIX + fp.encode("ascii") + b'"'
            for start in _layout_starts(self._data, head, after):
                try:
                    found, payload = _record(_line(self._data, start))
                except (ValueError, KeyError, TypeError):
                    continue
                if found == fp:
                    return payload
        return None if other is None else _record(other)[1]

    def store(self, op: str, entries, version: str):
        """Append one record per (fingerprint, payload) pair, in order, with
        one open and one write call."""
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        recs = [
            {"fingerprint": fp, "op": op, "payload": payload, "version": version, "timestamp": stamp}
            for fp, payload in entries
        ]
        lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")).encode() for rec in recs]
        d = os.path.dirname(self.path)
        if d:
            os.makedirs(d, exist_ok=True)
        block = b"".join(line + b"\n" for line in lines)
        torn = self._data and not self._data.endswith(b"\n")
        with open(self.path, "ab") as fh:
            # end a torn last line first, or it swallows the first new record
            fh.write(b"\n" + block if torn else block)
        if torn:
            self._data += b"\n"
        if self._data is not None:
            for rec, line in zip(recs, lines):
                self._others[rec["fingerprint"]] = (len(self._data), line)
