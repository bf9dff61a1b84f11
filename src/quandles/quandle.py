"""Validated quandle tables, translations, latinity, profiles.

A quandle is a set with a binary operation * satisfying three axioms:

  (i)   x*x = x                       (idempotency)
  (ii)  every column is a bijection   (right-invertibility)
  (iii) (x*y)*z = (x*z)*(y*z)         (right self-distributivity)

Tables are n x n with 1-based entries; ``rows[i-1][j-1]`` is i*j, so column
j is the right translation by j. Validation is eager: a Quandle object
cannot exist with a broken axiom.

Axiom (iii) says R_k R_j = R_{j*k} R_k for every pair of columns j, k, so
validation composes columns instead of looping over n^3 triples.

For n <= 256 validation is a screen of whole rows and columns at C level:
one ``set`` of entry types, one ``bytes`` of the 0-based entries
(``_entry_bytes``), then, on those bytes (``_screened``), a ``translate``
that deletes the values in range, the diagonal as one slice, one
``translate`` per column that is the identity iff the column repeats no
value, and for each tested k all n compositions on both sides of (iii) at
once. Callers that hold the 1-based entries as bytes already, the table
parsers and the labeled tables of an enumeration, hand them to the screen
directly (``Quandle._of_entries``, below order 256): no entry is walked as
an int, and the rows are built from the bytes. Only k = 1, k = 2 and the k
outside the orbit of {1, 2} under R_1 and R_2 are tested: once R_s and R_x
are automorphisms so is R_{x*s} = R_s R_x R_s^-1, so (iii) holds on that
whole orbit (``_distributive``). On the bench's seed-1 catalog the orbit
is every point in 82 of the 99 tables, and the screen takes a quarter of
the time that testing every k took. The 0-based rows and columns it builds
are kept on the table (``_row_bytes``, ``_col_bytes``) for the checkers'
byte kernels and the predicates: a table has unique fixed points iff its
row bytes hold their own index n times in all (each column fixes its own
index), and a row is a bijection iff its ``translate`` test passes. A
table that fails the screen is walked again point by point, in the
documented order (shape and entries row by row, idempotency, columns,
distributivity), only to raise the first failure with its witness; so is
every table above order 256, composing 0-based lists n^2 times, and a
valid table whose entries are of an int subclass, which keeps no bytes.

The cycles of the right translations are walked on one column per orbit.
The orbits are grown from the rows, as row x is {x*s : s}, and every other
point y is linked to a point x reached before it, with y = x*s. Since
R_{x*s} = R_s R_x R_s^-1, R_y's cycle structure is R_x's, and
``column_structures`` builds the translation of each orbit's first column
only; a translation built later takes its structure from there. This
orbit lemma is the one step the checkers derive rather than
compute: they decide each per-column verdict on an orbit's first column,
and a linked column takes it.
"""

from __future__ import annotations

from itertools import chain
from operator import eq
from typing import Iterator, Optional, Sequence

from ._value import Value
from .perm import CycleStructure, DegreeMismatchError, Permutation


class TableError(ValueError):
    """Base class for quandle table validation failures."""


class EmptyTableError(TableError):
    def __init__(self):
        super().__init__("quandle tables must be nonempty")


# Largest table order accepted. Validation grows as n^3 once the columns no
# longer fit in bytes (n > 256): dihedral(300) takes about 2 s on a 2-vCPU
# machine with Python 3.11, against 1.4 s at 257 and 10 s at 512.
MAX_TABLE_ORDER = 300


class TableTooLargeError(TableError):
    def __init__(self, n: int):
        super().__init__(f"table order {n} exceeds {MAX_TABLE_ORDER} (MAX_TABLE_ORDER)")


class TableShapeError(TableError):
    def __init__(self, row: int, width: int, n: int):
        super().__init__(f"row {row} has {width} entries, expected {n}")
        self.row = row


class EntryOutOfRangeError(TableError):
    def __init__(self, i: int, j: int, value: object, n: int):
        super().__init__(f"entry at ({i},{j}) is {value!r}, expected an integer in 1..{n}")
        self.i, self.j, self.value = i, j, value


class NotIdempotentError(TableError):
    def __init__(self, i: int, value: int):
        super().__init__(f"idempotency fails: {i}*{i} = {value}")
        self.i = i


class ColumnNotPermutationError(TableError):
    def __init__(self, j: int, value: int):
        super().__init__(f"column {j} repeats the value {value}")
        self.j, self.value = j, value


class NotRightDistributiveError(TableError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"right distributivity fails at ({i},{j},{k}): ({i}*{j})*{k} != ({i}*{k})*({j}*{k})")
        self.i, self.j, self.k = i, j, k


class ElementOutOfRangeError(ValueError):
    def __init__(self, x: object, n: int):
        super().__init__(f"element {x!r} out of range 1..{n}")


# Byte b -> b; its tail pads an n-byte column to a 256-byte translate table.
_IDENTITY_BYTES = bytes(range(256))
# Byte b -> b - 1, and x -> x - 1 on ints: 1-based entries to 0-based ones.
_PREDECESSOR = _IDENTITY_BYTES[-1:] + _IDENTITY_BYTES[:-1]
_DECREMENT = (1).__rsub__


def _then_list(a: list[int], b: list[int]) -> list[int]:
    """The 0-based map x -> b[a[x]], like ``a.translate(b)`` on bytes."""
    return [b[v] for v in a]


def distributivity_failures(columns: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Every (j, k) with R_k R_j != R_{j*k} R_k, j-major; columns are 1-based.

    The pair (j, k) fails exactly when (i*j)*k != (i*k)*(j*k) for some i.
    """
    n = len(columns)
    if n <= 256:
        cols = [bytes([v - 1 for v in col]) for col in columns]
        pad = _IDENTITY_BYTES[n:]
        maps = [col + pad for col in cols]
        then = bytes.translate
    else:
        cols = maps = [[v - 1 for v in col] for col in columns]
        then = _then_list
    failures = []
    for j in range(n):
        colj = cols[j]
        for k in range(n):
            colk = cols[k]
            if then(colj, maps[k]) != then(colk, maps[colk[j]]):
                failures.append((j + 1, k + 1))
    return failures


def _first_difference(columns: Sequence[Sequence[int]], j: int, k: int) -> int:
    """The least i with (i*j)*k != (i*k)*(j*k), for a failing pair (j, k)."""
    colj, colk = columns[j - 1], columns[k - 1]
    colm = columns[colk[j - 1] - 1]
    return next(i for i in range(1, len(colk) + 1)
                if colk[colj[i - 1] - 1] != colm[colk[i - 1] - 1])


def _distributive(cols: Sequence[bytes]) -> bool:
    """True iff R_k R_j = R_{j*k} R_k for all j, k; ``cols`` are 0-based bytes permutations.

    For a tested k both sides are built for every j at once: the columns
    joined and translated by R_k, against R_k translated by each
    R_{j*k} in turn. That is n + 1 ``translate`` calls per k, all at C level.

    Only k = 0, k = 1 and the k outside their orbit O under R_0 and R_1
    are tested. Let A be the k for which the identity holds for all j,
    those whose R_k is an automorphism. For s, x in A,
    R_{x*s} = R_s R_x R_s^-1 is a product of automorphisms, so A is closed
    under each R_s, s in A, and holds all of O once it holds 0 and 1
    (Joyce, J. Pure Appl. Algebra 23, 1982). This needs every column to be a
    permutation: on a finite set the inverse of a bijective endomorphism is
    one too. Below order 3 every k is tested.
    """
    n = len(cols)
    maps = [col + _IDENTITY_BYTES[n:] for col in cols]
    tested = range(n)
    if n > 2:
        # The orbit of {0, 1} under R_0 and R_1, breadth first.
        col0, col1 = cols[0], cols[1]
        orbit, queue = {0, 1}, [0, 1]
        for x in queue:
            for y in (col0[x], col1[x]):
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        if len(queue) > 2:
            tested = [k for k in tested if k < 2 or k not in orbit]
    joined = b"".join(cols)
    for k in tested:
        colk = cols[k]
        if joined.translate(maps[k]) != b"".join(map(colk.translate, map(maps.__getitem__, colk))):
            return False
    return True


def _entry_bytes(rows: tuple[tuple, ...], n: int) -> Optional[bytes]:
    """The 0-based entries, row-major, as bytes if the table is square with plain int entries that fit; n <= 256.

    One ``set`` of row widths, one of entry types and one ``bytes`` of the
    entries. None says only that the scan failed (an entry of an int
    subclass fails it too); ``_validate_point_by_point`` names the failure.
    """
    if set(map(len, rows)) != {n} or set(map(type, chain.from_iterable(rows))) != {int}:
        return None
    entries = chain.from_iterable(rows)
    try:
        # Below 256 the 1-based entries fit in bytes; the translate makes them 0-based.
        return bytes(entries).translate(_PREDECESSOR) if n < 256 else bytes(map(_DECREMENT, entries))
    except ValueError:
        return None


def _screened(table: bytes, n: int) -> Optional[tuple[tuple[bytes, ...], tuple[bytes, ...]]]:
    """(rows, columns) as 0-based bytes if the row-major 0-based n x n ``table`` passes every axiom, else None.

    Entries in range by one deleting ``translate``, the diagonal as one
    slice, each column a permutation by one ``translate`` (col sends each
    point to the last index holding its value; that is the identity iff no
    value repeats), then ``_distributive``. None says only that some screen
    failed; ``_validate_point_by_point`` names the failure.
    """
    points = _IDENTITY_BYTES[:n]
    if table.translate(None, points) or table[::n + 1] != points:
        return None
    cols = tuple([table[j::n] for j in range(n)])
    maketrans = bytes.maketrans
    if any(col.translate(maketrans(col, points)) != points for col in cols) or not _distributive(cols):
        return None
    return tuple([table[i:i + n] for i in range(0, n * n, n)]), cols


def _validate_point_by_point(rows: tuple[tuple, ...], n: int) -> None:
    """Raise the first failure in the documented order, or return if there is none.

    Shape and entries row by row, then idempotency, then the columns, then
    distributivity at the least failing (i, j, k).
    """
    for i, row in enumerate(rows, 1):
        if len(row) != n:
            raise TableShapeError(i, len(row), n)
        for j, v in enumerate(row, 1):
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
                raise EntryOutOfRangeError(i, j, v, n)
    for i in range(1, n + 1):
        if rows[i - 1][i - 1] != i:
            raise NotIdempotentError(i, rows[i - 1][i - 1])
    cols = []
    for j in range(n):
        seen = [False] * (n + 1)
        for row in rows:
            v = row[j]
            if seen[v]:
                raise ColumnNotPermutationError(j + 1, v)
            seen[v] = True
        cols.append(tuple(row[j] for row in rows))
    failures = distributivity_failures(cols)
    if failures:
        raise NotRightDistributiveError(*min(
            (_first_difference(cols, j, k), j, k) for j, k in failures
        ))


class Quandle:
    """An immutable, fully validated quandle table."""

    __slots__ = ("n", "rows", "_cols", "_row_bytes", "_col_bytes", "_translations",
                 "_structures", "_profile", "_row_mask", "_unique_fp", "_repeat_free", "_left_refines",
                 "_orbits", "_links", "_invariants", "_iso_sig", "__weakref__")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(rows)
        n = len(rows)
        if n == 0:
            raise EmptyTableError()
        if n > MAX_TABLE_ORDER:
            raise TableTooLargeError(n)
        rows = tuple(map(tuple, rows))
        table = _entry_bytes(rows, n) if n <= 256 else None
        self._set(rows, n, None if table is None else _screened(table, n))

    @classmethod
    def _of_entries(cls, entries: bytes, n: int) -> "Quandle":
        """The table whose 1-based entries, row-major, are the n * n ``entries``; 1 <= n <= 255.

        For callers that hold the entries as bytes already, as the parsers
        and the labeled tables do: no shape or type scan, the same screen
        and the same errors as ``Quandle(rows)``.
        """
        q = cls.__new__(cls)
        rows = tuple([tuple(entries[i:i + n]) for i in range(0, n * n, n)])
        q._set(rows, n, _screened(entries.translate(_PREDECESSOR), n))
        return q

    def _set(self, rows: tuple[tuple[int, ...], ...], n: int,
             screened: Optional[tuple[tuple[bytes, ...], tuple[bytes, ...]]]) -> None:
        """Keep the table once the screen has passed, or raise what the point walk finds."""
        if screened is None:
            _validate_point_by_point(rows, n)
        self.rows = rows
        self.n = n
        self._cols = tuple(zip(*rows))
        # 0-based byte rows and columns for the checkers' kernels; None when
        # the screen did not run or did not pass, and the kernels walk points.
        self._row_bytes, self._col_bytes = screened or (None, None)
        # Right translations by column, built when first read.
        self._translations: list[Optional[Permutation]] = [None] * n
        self._structures: Optional[tuple[CycleStructure, ...]] = None
        self._profile: Optional[Profile] = None
        self._row_mask: Optional[int] = None
        self._unique_fp: Optional[bool] = None
        self._repeat_free: Optional[bool] = None
        self._left_refines: Optional[bool] = None
        self._orbits: Optional[tuple[frozenset[int], ...]] = None
        self._links: Optional[tuple[tuple[int, int, int], ...]] = None
        self._invariants: Optional[tuple[tuple, ...]] = None
        self._iso_sig = None

    def _check_element(self, x: int) -> None:
        if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= self.n:
            raise ElementOutOfRangeError(x, self.n)

    def op(self, i: int, j: int) -> int:
        """The product i*j."""
        self._check_element(i)
        self._check_element(j)
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        self._check_element(i)
        return self.rows[i - 1]

    def column(self, j: int) -> tuple[int, ...]:
        self._check_element(j)
        return self._cols[j - 1]

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return self._cols

    def right_translation(self, j: int) -> Permutation:
        """The permutation x -> x*j (column j)."""
        self._check_element(j)
        return self._right_translation(j)

    def _right_translation(self, j: int) -> Permutation:
        """``right_translation`` without the range check, for loops over 1..n.

        Validation has shown every column to be a bijection of 1..n, so the
        permutation is built without walking its images again. Once the
        column structures are known, it takes its own from them and walks
        no cycle for it.
        """
        p = self._translations[j - 1]
        if p is None:
            p = self._translations[j - 1] = Permutation._of_bijection(self._cols[j - 1])
            if self._structures is not None:
                p._structure = self._structures[j - 1]
        return p

    def _find_orbits(self) -> None:
        """Set the orbit partition and the links y = x*s that join conjugate columns.

        Row x is {x*s : s}, every point one right translation away from x,
        so each orbit is grown breadth first from its least point by set
        operations on rows; once every point is reached no row is read
        again. Each point y that a row x adds is linked as (y, x, s), 1-based,
        with y = x*s; x was reached before y, so its link comes first.
        """
        n = self.n
        rows = self.rows
        seen: set[int] = set()
        blocks = []
        links = []
        for start in range(1, n + 1):
            if start in seen:
                continue
            seen.add(start)
            block = [start]
            for x in block:
                if len(seen) == n:
                    break
                row = rows[x - 1]
                new = set(row).difference(seen)
                if new:
                    column = dict(zip(row, range(1, n + 1)))
                    links.extend([(y, x, column[y]) for y in new])
                    block.extend(new)
                    seen.update(new)
            blocks.append(frozenset(block))
        self._orbits = tuple(blocks)
        self._links = tuple(links)

    def left_translation(self, i: int) -> Optional[Permutation]:
        """The permutation x -> i*x (row i), or None when the row is not a bijection."""
        self._check_element(i)
        if self._bijective_rows() >> (i - 1) & 1:
            return Permutation(self.rows[i - 1])
        return None

    @property
    def is_latin(self) -> bool:
        """True iff every row is a bijection, i.e. the table is a latin square."""
        return self._bijective_rows() == (1 << self.n) - 1

    @property
    def has_repeat_free_profile(self) -> bool:
        """True iff every right translation has cycles of pairwise distinct lengths; computed once."""
        if self._repeat_free is None:
            self._repeat_free = all(cs.has_distinct_lengths for cs in self.column_structures())
        return self._repeat_free

    def _bijective_rows(self) -> int:
        """Bit i-1 is set iff row i is a bijection; computed once per table.

        An int, so a table of order up to 8 holds no object of its own for it.
        """
        if self._row_mask is None:
            n = self.n
            if self._row_bytes is None:
                bijective = [len(set(row)) == n for row in self.rows]
            else:
                # As for the columns in ``_screened``: the identity iff no value repeats.
                points, maketrans = _IDENTITY_BYTES[:n], bytes.maketrans
                bijective = [row.translate(maketrans(row, points)) == points for row in self._row_bytes]
            self._row_mask = sum(1 << i for i, b in enumerate(bijective) if b)
        return self._row_mask

    def _left_keeps_r1_labels(self) -> bool:
        """True iff L_1 keeps every point's R_1-cycle label; computed once per table.

        One ``translate`` of the byte row 1 by R_1's cycle labels, read
        through ``right_translation(1)``, and one compare. For a table kept
        as bytes only. ``checks.check_left_refinement`` takes it as the
        verdict of every bijective row.
        """
        if self._left_refines is None:
            labels = self.right_translation(1)._cycle_labels()
            self._left_refines = self._row_bytes[0].translate(labels) == labels[:self.n]
        return self._left_refines

    @property
    def has_unique_fixed_points(self) -> bool:
        """True iff every right translation fixes exactly one element (necessarily j).

        On a table kept as bytes, row x counts the columns that fix x; each
        column j fixes j, so the counts sum to n exactly when no column
        fixes anything else.
        """
        if self._unique_fp is None:
            n = self.n
            if self._row_bytes is None:
                points = range(1, n + 1)
                self._unique_fp = all(sum(map(eq, col, points)) == 1 for col in self._cols)
            else:
                self._unique_fp = sum(map(bytes.count, self._row_bytes, range(n))) == n
        return self._unique_fp

    def column_structures(self) -> tuple[CycleStructure, ...]:
        """Cycle structure of each right translation, in column order.

        Only the first column of each orbit has its cycles walked, and only
        its translation is built; the columns of one orbit are conjugate,
        and each linked column takes the structure of the column it is
        linked to. This is the one place structures follow the links.
        """
        if self._structures is None:
            if self._links is None:
                self._find_orbits()
            structures: list[Optional[CycleStructure]] = [None] * self.n
            for block in self._orbits:
                start = min(block)
                structures[start - 1] = self._right_translation(start).cycle_structure()
            for y, x, _ in self._links:
                structures[y - 1] = structures[x - 1]
            self._structures = tuple(structures)
        return self._structures

    def profile(self) -> "Profile":
        if self._profile is None:
            self._profile = Profile.of(self.column_structures())
        return self._profile

    def relabel(self, sigma: Permutation) -> "Quandle":
        """The isomorphic table with every element x renamed to sigma(x)."""
        if sigma.n != self.n:
            raise DegreeMismatchError(f"degree {sigma.n} != {self.n}")
        s = sigma.images
        inv = sigma.inverse().images
        rows = tuple(
            tuple(s[self.rows[inv[i] - 1][inv[j] - 1] - 1] for j in range(self.n))
            for i in range(self.n)
        )
        return Quandle(rows)

    def iso_signature(self):
        """Order-independent per-element invariants; equal for isomorphic quandles."""
        if self._iso_sig is None:
            self._iso_sig = tuple(sorted(self.element_invariants()))
        return self._iso_sig

    def element_invariants(self) -> tuple[tuple, ...]:
        """Per-element invariant preserved by isomorphism, indexed by element."""
        if self._invariants is not None:
            return self._invariants
        invs = []
        for x in range(1, self.n + 1):
            col_cs = self.column_structures()[x - 1].entries
            row = self.rows[x - 1]
            counts: dict[int, int] = {}
            fixes = 0
            for v in row:
                counts[v] = counts.get(v, 0) + 1
                if v == x:
                    fixes += 1
            invs.append((col_cs, tuple(sorted(counts.values())), fixes))
        self._invariants = tuple(invs)
        return self._invariants

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Quandle) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Quandle({[list(r) for r in self.rows]!r})"


def serialize_table(q: Quandle, fmt: str = "plain") -> str:
    """Render a table; round-trips bit-exactly through ``catalog.parse_table``."""
    if fmt == "plain":
        lines = [str(q.n)]
        lines.extend(" ".join(map(str, row)) for row in q.rows)
        return "\n".join(lines) + "\n"
    if fmt == "gap_matrix":
        return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in q.rows) + "]"
    raise ValueError(f"unknown table format {fmt!r}")


class Profile(Value):
    """The sorted list of cycle structures of all right translations.

    All n structures are stored even when they coincide; collapsing the
    connected case to a single structure happens only at rendering time.
    """

    structures: tuple[CycleStructure, ...]

    def __init__(self, structures: tuple[CycleStructure, ...]):
        self._init(structures)

    @classmethod
    def of(cls, structures: Sequence[CycleStructure]) -> "Profile":
        # The key orders as ``CycleStructure.__lt__`` does, one tuple per structure.
        return cls(tuple(sorted(structures, key=CycleStructure.lengths)))

    @property
    def is_uniform(self) -> bool:
        return all(cs == self.structures[0] for cs in self.structures)

    def __iter__(self) -> Iterator[CycleStructure]:
        return iter(self.structures)

    def __str__(self) -> str:
        if self.is_uniform:
            return str(self.structures[0])
        return "[" + ",".join(str(cs) for cs in self.structures) + "]"
