"""Rewrites of a raw table as ``write_raw_csv`` writes it into the forms
other writers use: local or naive timestamps, and quoted ids, timestamps or
values. The tests and ``tools/raw_forms.py`` share them; they read no
program module.
"""

from __future__ import annotations

import re
from datetime import datetime

# a timestamp of whole minutes, with or without ':00' seconds and an offset, before its comma or closing quote
RAW_STAMP = re.compile(r"\d{4}-\d\d-\d\d[Tt ]\d\d:\d\d(?::00(?:\.0+)?)?(?:Z|[+-]\d\d:?\d\d)?(?=\"?,)")


def restamp(text: str, sep: str, seconds: str, offset: str) -> str:
    """A table ``write_raw_csv`` wrote, each timestamp the same instant in
    local time at ``offset`` (naive UTC for ``""``), with ``sep`` between
    date and time and ``seconds`` (``":00"``, ``""``, ...) after its minute."""
    zone = datetime.fromisoformat("2000-01-01T00:00" + (offset.strip("Z") or "+00:00")).tzinfo

    def local(m: re.Match) -> str:
        return datetime.fromisoformat(m.group()).astimezone(zone).isoformat(sep)[:16] + seconds + offset

    return RAW_STAMP.sub(local, text)


def quote(text: str, ids: bool, stamps: bool, values: bool) -> str:
    """A raw table with every id (the header's first field too), timestamp
    or value quoted, as writers that quote text do."""
    if ids:
        text = re.sub(r'^([^,"\r\n]*),', r'"\1",', text, flags=re.M)
    if stamps:
        text = RAW_STAMP.sub(r'"\g<0>"', text)
    if values:
        text = re.sub(r',([^,"\r\n]*)(?=\r?\n)', r',"\1"', text)
    return text
