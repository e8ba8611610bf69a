"""Append-only JSONL result cache keyed by input fingerprints.

Each line stores one record: fingerprint, operation name, payload,
artifact version, timestamp.  A batch of lines is written with a single
write call so concurrent writers never interleave.

A lookup of a fingerprint this process has not met makes one pass over
the file in blocks of `_BLOCK` bytes and answers it together with the
rest of its batch, keeping only those fingerprints' newest records, so
memory is bounded by the block size (and the longest line), not by the
file.  In each block a fingerprint's lines are found by a byte search
for the way `store` begins them, and only those are parsed, newest
first, so a torn line falls back to that fingerprint's previous record.
Lines in any other layout are parsed as they pass; those that fail are
skipped with one warning and never fatal.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import time

_BLOCK = 1 << 16  # bytes per read of a pass over the file

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


def _layout_starts(data: bytes, head: bytes):
    """Offsets of the lines of `data` that begin with `head`, newest first:
    one byte search from the end per line found."""
    needle, hi = b"\n" + head, len(data)
    while (at := data.rfind(needle, 0, hi)) >= 0:
        yield at + 1
        hi = at
    if data.startswith(head):
        yield 0


def _blocks(fh):
    """(offset, lines) for each run of whole lines read `_BLOCK` bytes at a
    time, line breaks made b"\n", the offset counted in those runs; a torn
    last line comes alone.  A "\r\n" split by a read adds a blank line."""
    offset, carry = 0, []
    while chunk := fh.read(_BLOCK):
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            carry.append(chunk)  # a partial line goes on to the next read
            continue
        carry.append(chunk[:cut])
        data = b"".join(carry)
        carry = [chunk[cut:]]
        yield offset, data
        offset += len(data)
    if data := b"".join(carry):
        yield offset, data


class ResultCache:
    def __init__(self, path: str):
        self.path = path
        self._known = {}  # fingerprint -> its newest line or None, as read or stored
        self._torn = None  # whether the file ends inside a line; None until read or written
        self._warned = False

    def _read(self, wanted: set):
        """Answer every fingerprint of `wanted` from one pass over the file."""
        heads = {
            fp: _PREFIX + fp.encode("ascii") + b'"'
            for fp in wanted
            if isinstance(fp, str) and len(fp) == 32 and fp.isascii() and fp.isalnum()
        }
        newest = {}  # fingerprint -> (offset, line) of its newest well-formed line
        bad, data = 0, b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                for base, data in _blocks(fh):
                    for fp, head in heads.items():
                        for start in _layout_starts(data, head):
                            line = _line(data, start)
                            try:
                                found = _record(line)[0]
                            except (ValueError, KeyError, TypeError):
                                continue
                            if found == fp:
                                newest[fp] = (base + start, line)
                                break
                    starts = [m.end() for m in _OTHER_BREAK.finditer(data)]
                    if not _STORE_LINE.match(data):
                        starts.insert(0, 0)
                    for start in starts:
                        line = _line(data, start)
                        if not line.strip():
                            continue
                        try:
                            found = _record(line)[0]
                            wants = found in wanted  # an unhashable fingerprint raises
                        except (ValueError, KeyError, TypeError):
                            bad += 1
                            continue
                        if wants and newest.get(found, (-1,))[0] < base + start:
                            newest[found] = (base + start, line)
        if bad and not self._warned:
            print(f"# cache: skipped {bad} corrupt line(s) in {self.path}", file=sys.stderr)
        self._warned = True
        self._torn = data[-1:] not in (b"", b"\n")
        for fp in wanted:
            self._known[fp] = newest.get(fp, (0, None))[1]

    def lookup(self, fp: str, batch=()):
        """The payload of the newest well-formed record for `fp`, or None.
        Unless this process has read or stored `fp` already, one pass over
        the file answers it and every other fingerprint of `batch`."""
        if fp not in self._known:
            self._read({fp, *batch}.difference(self._known))
        line = self._known[fp]
        return None if line is None else _record(line)[1]

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
        if self._torn is None and os.path.exists(self.path):
            with open(self.path, "rb") as fh:  # only the last byte
                fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
                self._torn = fh.read(1) not in (b"", b"\r", b"\n")
        with open(self.path, "ab") as fh:
            # end a torn last line first, or it swallows the first new record
            fh.write(b"\n" + block if self._torn else block)
        self._torn = False
        for rec, line in zip(recs, lines):
            self._known[rec["fingerprint"]] = line
