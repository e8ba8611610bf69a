"""Append-only JSONL result cache keyed by input fingerprints.

Each line stores one record: fingerprint, operation name, payload,
artifact version, timestamp.  A batch of lines is written with a single
write call so concurrent writers never interleave.

A process reads the file once and indexes its lines by fingerprint,
parsing only lines in a layout other than the one `store` writes; those
that fail are skipped with a warning and never fatal.  A lookup parses
the lines of its fingerprint alone, newest first, so a torn line falls
back to that fingerprint's previous record.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

# A line `store` writes for a `fingerprint()` key begins
# `{"fingerprint":"<32 hex digits>"`; alphanumerics need no escaping, so
# the slice between the quotes is the exact key.
_PREFIX = b'{"fingerprint":"'
_KEY_END = len(_PREFIX) + 32


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


class ResultCache:
    def __init__(self, path: str):
        self.path = path
        self._index = None  # fingerprint -> raw lines, oldest first

    def _load(self):
        if self._index is not None:
            return
        self._index = index = {}
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        bad = 0
        for line in data.splitlines():
            key = line[len(_PREFIX):_KEY_END]
            if line.startswith(_PREFIX) and line[_KEY_END:_KEY_END + 1] == b'"' and key.isalnum():
                key = key.decode("ascii")
            elif not line.strip():
                continue
            else:
                try:
                    key = _record(line)[0]
                    hash(key)  # an unhashable fingerprint is corrupt too
                except (ValueError, KeyError, TypeError):
                    bad += 1
                    continue
            index.setdefault(key, []).append(line)
        if bad:
            print(f"# cache: skipped {bad} corrupt line(s) in {self.path}", file=sys.stderr)

    def lookup(self, fp: str):
        """The payload of the newest well-formed record for `fp`, or None."""
        self._load()
        for line in reversed(self._index.get(fp, ())):
            try:
                key, payload = _record(line)
            except (ValueError, KeyError, TypeError):
                continue
            if key == fp:
                return payload
        return None

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
        with open(self.path, "ab") as fh:
            fh.write(b"".join(line + b"\n" for line in lines))
        if self._index is not None:
            for rec, line in zip(recs, lines):
                self._index.setdefault(rec["fingerprint"], []).append(line)
