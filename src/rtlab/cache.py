"""Append-only JSONL result cache keyed by input fingerprints.

Each line stores one record: fingerprint, operation name, payload,
artifact version, timestamp.  A batch of lines is written with a single
write call so concurrent writers never interleave.

A lookup of a fingerprint this process has not met makes one pass over
the file and answers it together with the rest of its batch, keeping
only those fingerprints' newest records.  The pass reads `_BLOCK` bytes
and the rest of the line they end in, so memory is bounded by the block
size and the longest line, not by the file; a file whose only line
breaks are lone "\r" is one line to that read.  One regular expression
per pass finds, in file order, the lines that begin the way `store`
writes a wanted key and every line in any other layout; the last
well-formed record of a fingerprint wins, so a torn line falls back to
that fingerprint's previous record.  Other-layout lines that fail to
parse are skipped with one warning and never fatal.
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
_LAYOUT = rb'\{"fingerprint":"[0-9A-Za-z]{32}"'


def fingerprint(op: str, params: dict, version: str) -> str:
    blob = json.dumps(
        {"op": op, "params": params, "version": version},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _alternation(keys) -> bytes:
    """A regular expression for exactly the given alphanumeric keys, grouped
    by first byte as `a(?:bc|bd)|x(?:yz)`: at each position the engine
    tests one byte per group and tries the keys of one group only, where
    one flat alternation tries every key.  It matches what the flat one
    matches, and no key gives "(?!)", which matches nothing."""
    groups = {}
    for key in keys:
        groups.setdefault(key[:1], []).append(key[1:])
    return b"|".join(b"%s(?:%s)" % (c, b"|".join(rest)) for c, rest in groups.items()) or rb"(?!)"


def _record(line: bytes):
    """(fingerprint, payload) of a cache line read as UTF-8 text without
    its surrounding whitespace; raises ValueError, KeyError or TypeError
    when the line is not a well-formed record."""
    rec = json.loads(line.decode("utf-8").strip())
    return rec["fingerprint"], rec["payload"]


class ResultCache:
    def __init__(self, path: str):
        self.path = path
        self._known = {}  # fingerprint -> its newest line or None, as read or stored
        self._torn = None  # whether the file ends inside a line; None until read or written
        self._warned = False

    def _read(self, wanted: set):
        """Answer every fingerprint of `wanted` from one pass over the file."""
        keys = _alternation(
            fp.encode()
            for fp in wanted
            if isinstance(fp, str) and len(fp) == 32 and fp.isascii() and fp.isalnum()
        )
        # one match per line: group 1 is the line, group 2 the key of a
        # wanted line in the store layout and None for any other layout
        lines = re.compile(rb'\n((?:\{"fingerprint":"(%s)"|(?!%s))[^\n]*)' % (keys, _LAYOUT))
        newest = {}  # fingerprint -> its newest well-formed line
        bad, self._torn = 0, False
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                while block := fh.read(_BLOCK) + fh.readline():  # whole lines
                    if b"\r" in block:  # "\r\n" and a lone "\r" end lines too
                        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                    self._torn = not block.endswith(b"\n")
                    for m in lines.finditer(b"\n" + block):
                        try:
                            found = _record(m[1])[0]
                            wants = found in wanted  # an unhashable fingerprint raises
                        except (ValueError, KeyError, TypeError):
                            if m[2] is None and m[1].strip():
                                bad += 1  # a store-layout line is skipped silently
                            continue
                        if wants:
                            newest[found] = m[1]
        if bad and not self._warned:
            print(f"# cache: skipped {bad} corrupt line(s) in {self.path}", file=sys.stderr)
        self._warned = True
        for fp in wanted:
            self._known[fp] = newest.get(fp)

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
