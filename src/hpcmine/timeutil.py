"""Timestamp helpers (UTC, second resolution)."""

from __future__ import annotations

from datetime import datetime, timezone
from functools import lru_cache

ISO_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
BASIC_FORMAT = "%Y%m%dT%H%M%SZ"


# Every event of a snapshot shares its timestamp, and a sorted case log
# repeats each one in runs, so a small cache answers most calls.
@lru_cache(maxsize=64)
def format_iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime(ISO_FORMAT)


def parse_iso(value: str) -> datetime:
    return datetime.strptime(value, ISO_FORMAT).replace(tzinfo=timezone.utc)


def format_basic(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime(BASIC_FORMAT)


def parse_basic(value: str) -> datetime:
    return datetime.strptime(value, BASIC_FORMAT).replace(tzinfo=timezone.utc)
