"""Table parsing, profile notation, catalog reports.

Two text formats for tables:

* plain -- first non-comment line is the order n, followed by n lines of n
  space-separated integers; '#' starts a comment anywhere on a line.
* gap_matrix -- a bracketed list of bracketed rows of comma-separated
  integers with arbitrary whitespace, e.g. ``[[1,3,2],[3,2,1],[2,1,3]]``,
  as printed by GAP for an integer matrix.

In both formats row i, column j of the text is i*j. ``serialize_table``,
which writes them, lives in ``quandle``, so that printing tables loads no
parser, and is re-exported here.

Below order 256 a table is decoded once into bytes of its entries and
handed to the table's screen as such (``Quandle._of_entries``): a plain
row is read through a lookup of the canonical spellings "0" .. "255", and
a gap matrix, once its entries are known to be ints, goes to bytes
whole. A token the lookup misses ("07", "+2", "256", "x"), a row of the
wrong width, an entry outside 0 .. 255 or a larger table takes the int
path instead, which reads each row with ``int()``; so every error keeps
its line, column and message, and an entry out of range is named by the
table's validation either way.

A catalog directory holds one table per file; the filename stem encodes
catalog names as ``Q_<n>_<m>.qdl``. Free-form stems are accepted for user
tables, which then stay out of the per-index survey table.
"""

from __future__ import annotations

import re
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from ._value import Value
from .orbits import is_connected
from .perm import CycleStructure
from .quandle import Profile, Quandle, serialize_table  # noqa: F401  (re-exported)


class TableParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class IllegalOmissionError(ValueError):
    def __init__(self, cs: CycleStructure):
        super().__init__(
            f"cannot omit the unique fixed point of {cs}: it has {cs.fixed_point_count}"
        )


class MissingCatalogNameError(ValueError):
    def __init__(self, entry_name: str):
        super().__init__(f"entry {entry_name!r} has no usable catalog name Q_<n>_<m>")


def parse_table(text: str, fmt: str = "auto") -> Quandle:
    """Parse a table in the given format ("plain", "gap_matrix" or "auto") and validate it."""
    if fmt == "auto":
        stripped = _strip_comments(text).lstrip()
        fmt = "gap_matrix" if stripped.startswith("[") else "plain"
    if fmt == "plain":
        return _parse_plain(text)
    if fmt == "gap_matrix":
        return _parse_gap_matrix(text)
    raise ValueError(f"unknown table format {fmt!r}")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


# The canonical decimal spelling of each byte value, for the entries of plain tables.
_ENTRY_BYTES = {str(v): v for v in range(256)}


def _parse_plain(text: str) -> Quandle:
    data_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if line.strip():
            data_lines.append((lineno, line))
    if not data_lines:
        raise TableParseError(1, 1, "no table data found")
    lineno, header = data_lines[0]
    tokens = header.split()
    if len(tokens) != 1 or not tokens[0].removeprefix("-").isdecimal():
        raise TableParseError(lineno, 1, f"expected the order on its own line, got {header.strip()!r}")
    n = int(tokens[0])
    if n < 0:
        raise TableParseError(lineno, 1, f"expected a positive order, got {n}")
    if len(data_lines) - 1 != n:
        raise TableParseError(lineno, 1, f"expected {n} table rows, found {len(data_lines) - 1}")
    body = data_lines[1:]
    if 0 < n < 256:
        # Every token a canonical spelling of a byte and every row n wide:
        # the rows go to the table as entry bytes. Anything else takes the
        # int() path below, which names the first bad token or row.
        try:
            decoded = [bytes(map(_ENTRY_BYTES.__getitem__, line.split())) for _, line in body]
        except KeyError:
            decoded = None
        if decoded is not None and set(map(len, decoded)) == {n}:
            return Quandle._of_entries(b"".join(decoded), n)
    rows = []
    for lineno, line in body:
        try:
            row = list(map(int, line.split()))
        except ValueError:
            # Locate the first bad token only now, for its column.
            for match in re.finditer(r"\S+", line):
                token = match.group(0)
                try:
                    int(token)
                except ValueError:
                    raise TableParseError(lineno, match.start() + 1, f"not an integer: {token!r}") from None
            raise
        if len(row) != n:
            raise TableParseError(lineno, 1, f"expected {n} entries, found {len(row)}")
        rows.append(row)
    return Quandle(rows)


def _parse_gap_matrix(text: str) -> Quandle:
    # Imported here, its only use: plain tables and the CLI's text output do not need it.
    import json

    try:
        data = json.loads(_strip_comments(text))
    except json.JSONDecodeError as e:
        raise TableParseError(e.lineno, e.colno, e.msg) from None
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise TableParseError(1, 1, "expected a list of rows")
    # JSON numbers without a fraction or exponent load as int; the entries
    # are walked one by one only to name the first that is not one.
    if not {int}.issuperset(map(type, chain.from_iterable(data))):
        for row in data:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise TableParseError(1, 1, f"non-integer entry: {v!r}")
    n = len(data)
    if 0 < n < 256 and set(map(len, data)) == {n}:
        # A square matrix of ints that all fit in a byte goes to the table as entry bytes.
        try:
            entries = bytes(chain.from_iterable(data))
        except ValueError:
            pass
        else:
            return Quandle._of_entries(entries, n)
    return Quandle(data)


_TERM_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_structure(text: str) -> CycleStructure:
    """Parse cycle-structure notation like "(1^2,4)"; "()" is the empty structure."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"cycle structure must be parenthesized: {text!r}")
    body = body[1:-1].replace(" ", "")
    if not body:
        return CycleStructure(())
    entries = []
    for term in body.split(","):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad cycle-structure term {term!r} in {text!r}")
        entries.append((int(m.group(1)), int(m.group(2) or 1)))
    return CycleStructure(tuple(entries))


def render_structure(cs: CycleStructure, omit_unique_fixed_point: bool = False) -> str:
    """Compact cycle-structure notation, optionally with the unique fixed point dropped.

    Omission is only legal when the structure has exactly one fixed point,
    matching the convention used for connected-quandle listings.
    """
    if not omit_unique_fixed_point:
        return str(cs)
    if cs.fixed_point_count != 1:
        raise IllegalOmissionError(cs)
    return str(CycleStructure(cs.entries[1:]))


class CatalogEntry(Value):
    """A named quandle with cached derived flags; the cache must match recomputation."""

    name: str
    quandle: Quandle
    connected: bool
    latin: bool
    distinct_lengths: bool
    unique_fixed_point: bool
    profile: Profile

    def __init__(self, name: str, quandle: Quandle, connected: bool, latin: bool,
                 distinct_lengths: bool, unique_fixed_point: bool, profile: Profile):
        self._init(name, quandle, connected, latin, distinct_lengths, unique_fixed_point, profile)

    @classmethod
    def from_quandle(cls, name: str, q: Quandle) -> "CatalogEntry":
        return cls(
            name=name,
            quandle=q,
            connected=is_connected(q),
            latin=q.is_latin,
            distinct_lengths=q.has_repeat_free_profile,
            unique_fixed_point=q.has_unique_fixed_points,
            profile=q.profile(),
        )


_CATALOG_NAME_RE = re.compile(r"^Q_?\{?(\d+)[,_](\d+)\}?$")


def catalog_index(name: str) -> Optional[tuple[int, int]]:
    """Extract (n, m) from a catalog name like "Q_6_2" or "Q_{6,2}", else None."""
    m = _CATALOG_NAME_RE.match(name.strip())
    if not m:
        return None
    return int(m.group(1)), int(m.group(2))


def load_catalog(directory: str | Path) -> tuple[CatalogEntry, ...]:
    """Read every *.qdl file in the directory, sorted by filename; OSError if it is no directory."""
    entries = []
    # Listing the directory raises the OSError that glob would swallow.
    for path in sorted(p for p in Path(directory).iterdir() if p.match("*.qdl")):
        q = parse_table(path.read_text(), "auto")
        entries.append(CatalogEntry.from_quandle(path.stem, q))
    return tuple(entries)


class StatsReport(Value):
    """Counts over a catalog, plus the non-latin unique-fixed-point oddballs."""

    total: int
    connected: int
    latin: int
    latin_distinct_lengths: int
    latin_with_repeats: int
    nonlatin_unique_fixed_point: int
    nonlatin_unique_fixed_point_entries: tuple[tuple[str, int, str], ...]

    def __init__(self, total: int, connected: int, latin: int, latin_distinct_lengths: int,
                 latin_with_repeats: int, nonlatin_unique_fixed_point: int,
                 nonlatin_unique_fixed_point_entries: tuple[tuple[str, int, str], ...]):
        self._init(total, connected, latin, latin_distinct_lengths, latin_with_repeats,
                   nonlatin_unique_fixed_point, nonlatin_unique_fixed_point_entries)


def catalog_stats(entries: Sequence[CatalogEntry]) -> StatsReport:
    latin = [e for e in entries if e.latin]
    oddballs = [
        e for e in entries
        if e.connected and not e.latin and e.unique_fixed_point
    ]
    return StatsReport(
        total=len(entries),
        connected=sum(1 for e in entries if e.connected),
        latin=len(latin),
        latin_distinct_lengths=sum(1 for e in latin if e.distinct_lengths),
        latin_with_repeats=sum(1 for e in latin if not e.distinct_lengths),
        nonlatin_unique_fixed_point=len(oddballs),
        nonlatin_unique_fixed_point_entries=tuple(
            (e.name, e.quandle.n, str(e.profile.structures[0]) if e.profile.is_uniform else str(e.profile))
            for e in oddballs
        ),
    )


class RepeatFreeRow(NamedTuple):
    """One survey row: order, catalog indices sharing the profile, profile string."""

    n: int
    m_indices: tuple[int, ...]
    profile: str


class RepeatProfilesRow(NamedTuple):
    """One survey row: order and the distinct repeat-containing latin profiles."""

    n: int
    profiles: tuple[str, ...]


def appendix_tables(
    entries: Sequence[CatalogEntry],
) -> tuple[tuple[RepeatFreeRow, ...], tuple[RepeatProfilesRow, ...]]:
    """Build the two catalog survey tables.

    The first lists connected entries whose profile has no repeated cycle
    length, grouped by (order, profile) with their catalog indices; the
    second lists, per order, the distinct profiles of latin entries whose
    profiles contain repeats. Profiles are rendered with the unique fixed
    point omitted. Entries with free-form names are left out of the first
    table; an empty name raises MissingCatalogNameError.
    """
    repeat_free: dict[tuple[int, str], list[int]] = {}
    with_repeats: dict[int, set[str]] = {}
    for e in entries:
        if e.connected and e.distinct_lengths:
            if not e.name:
                raise MissingCatalogNameError(e.name)
            index = catalog_index(e.name)
            if index is None:
                continue
            n, m = index
            profile = render_structure(e.profile.structures[0], omit_unique_fixed_point=True)
            repeat_free.setdefault((n, profile), []).append(m)
        if e.latin and not e.distinct_lengths:
            profile = render_structure(e.profile.structures[0], omit_unique_fixed_point=True)
            with_repeats.setdefault(e.quandle.n, set()).add(profile)
    rows5 = tuple(
        RepeatFreeRow(n, tuple(sorted(ms)), profile)
        for (n, profile), ms in sorted(repeat_free.items())
    )
    rows6 = tuple(
        RepeatProfilesRow(n, tuple(sorted(profiles)))
        for n, profiles in sorted(with_repeats.items())
    )
    return rows5, rows6


def render_stats(report: StatsReport) -> str:
    lines = [
        f"total entries:                      {report.total}",
        f"connected:                          {report.connected}",
        f"latin:                              {report.latin}",
        f"latin with repeat-free profile:     {report.latin_distinct_lengths}",
        f"latin with repeats in profile:      {report.latin_with_repeats}",
        f"non-latin with unique fixed points: {report.nonlatin_unique_fixed_point}",
    ]
    for name, order, profile in report.nonlatin_unique_fixed_point_entries:
        lines.append(f"  {name} order={order} profile={profile}")
    return "\n".join(lines)


def stats_record(report: StatsReport) -> dict:
    return {
        "total": report.total,
        "connected": report.connected,
        "latin": report.latin,
        "latin_distinct_lengths": report.latin_distinct_lengths,
        "latin_with_repeats": report.latin_with_repeats,
        "nonlatin_unique_fixed_point": report.nonlatin_unique_fixed_point,
        "nonlatin_unique_fixed_point_entries": [
            {"name": name, "order": order, "profile": profile}
            for name, order, profile in report.nonlatin_unique_fixed_point_entries
        ],
    }


def render_appendix(
    rows5: Iterable[RepeatFreeRow], rows6: Iterable[RepeatProfilesRow]
) -> str:
    lines = ["connected quandles with repeat-free profiles (fixed point omitted):"]
    lines.append(f"  {'n':>3}  {'m':<28}  profile")
    for row in rows5:
        ms = ",".join(map(str, row.m_indices))
        lines.append(f"  {row.n:>3}  {ms:<28}  {row.profile}")
    lines.append("")
    lines.append("latin-quandle profiles containing repeats (fixed point omitted):")
    for row in rows6:
        lines.append(f"  {row.n:>3}  {' '.join(row.profiles)}")
    return "\n".join(lines)


def appendix_records(
    rows5: Iterable[RepeatFreeRow], rows6: Iterable[RepeatProfilesRow]
) -> dict:
    return {
        "repeat_free": [
            {"n": r.n, "m": list(r.m_indices), "profile": r.profile} for r in rows5
        ],
        "with_repeats": [
            {"n": r.n, "profiles": list(r.profiles)} for r in rows6
        ],
    }
