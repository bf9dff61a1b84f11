"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: brute
force over raw tables, repeated tuple composition for permutation orders,
hand-rolled closure for orbits, and a generate-and-test column search with
no constraint propagation. Slow and simple on purpose.
"""

import math
from itertools import permutations, product


def axioms_hold(rows) -> bool:
    """Direct triple-loop check of the three quandle axioms on raw rows."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        return False
    if any(not (1 <= v <= n) for r in rows for v in r):
        return False
    if any(rows[i][i] != i + 1 for i in range(n)):
        return False
    for j in range(n):
        if len({rows[i][j] for i in range(n)}) != n:
            return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j] - 1][k] != rows[rows[i][k] - 1][rows[j][k] - 1]:
                    return False
    return True


def naive_all_quandles(n):
    """Every valid table of order n by filtering all n^(n*n) raw tables. n <= 3 only."""
    found = set()
    for cells in product(range(1, n + 1), repeat=n * n):
        rows = tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n))
        if axioms_hold(rows):
            found.add(rows)
    return found


def column_search_quandles(n):
    """Every valid table of order n by generate-and-test over columns.

    Columns are tried left to right from all permutations fixing the
    column index; after each placement every distributivity triple whose
    three needed columns are present is rechecked. No propagation.
    """
    perms = list(permutations(range(1, n + 1)))
    candidates = [[p for p in perms if p[j] == j + 1] for j in range(n)]
    cols = []
    found = set()

    def triples_ok(c):
        for j in range(1, c + 1):
            for k in range(1, c + 1):
                m = cols[k - 1][j - 1]
                if m > c:
                    continue
                if j != c and k != c and m != c:
                    continue
                colj, colk, colm = cols[j - 1], cols[k - 1], cols[m - 1]
                for i in range(n):
                    if colk[colj[i] - 1] != colm[colk[i] - 1]:
                        return False
        return True

    def recurse():
        c = len(cols)
        if c == n:
            found.add(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))
            return
        for p in candidates[c]:
            cols.append(p)
            if triples_ok(c + 1):
                recurse()
            cols.pop()

    recurse()
    return found


def compose_images(p, q):
    """(p o q) as image tuples: x -> p[q[x]]."""
    return tuple(p[v - 1] for v in q)


def inverse_images(images):
    """The inverse as an image tuple: y -> the x with images[x] = y, found by search."""
    images = list(images)
    return tuple(images.index(y) + 1 for y in range(1, len(images) + 1))


def power_images(images, k):
    """The k-fold composition as an image tuple, composed one step at a time; k < 0 steps the inverse."""
    step = tuple(images) if k >= 0 else inverse_images(images)
    acc = tuple(range(1, len(step) + 1))
    for _ in range(abs(k)):
        acc = compose_images(step, acc)
    return acc


def generated_group(generators):
    """Every product of the image tuples, by closure under composition; generators must be non-empty."""
    group = {tuple(range(1, len(generators[0]) + 1))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = compose_images(g, h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def brute_force_order(images):
    """Least k >= 1 with the k-fold composition equal to the identity."""
    images = tuple(images)
    identity = tuple(range(1, len(images) + 1))
    acc = images
    k = 1
    while acc != identity:
        acc = compose_images(images, acc)
        k += 1
    return k


def orbit_closure(rows):
    """Orbit partition by plain fixpoint closure over forward column maps."""
    n = len(rows)
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in range(n):
        for i in range(n):
            a, b = find(i + 1), find(rows[i][j])
            if a != b:
                parent[b] = a
    blocks = {}
    for x in range(1, n + 1):
        blocks.setdefault(find(x), set()).add(x)
    return sorted(sorted(b) for b in blocks.values())


def naive_isomorphic(rows_a, rows_b):
    """Try all relabelings; returns a sigma (1-based image tuple) or None."""
    n = len(rows_a)
    if len(rows_b) != n:
        return None
    for sigma in permutations(range(1, n + 1)):
        if all(
            sigma[rows_a[x][y] - 1] == rows_b[sigma[x] - 1][sigma[y] - 1]
            for x in range(n)
            for y in range(n)
        ):
            return sigma
    return None


def automorphism_count(rows):
    """The number of relabelings sigma with sigma(x*y) = sigma(x)*sigma(y), by trying all n!."""
    n = len(rows)
    return sum(
        all(
            sigma[rows[x][y] - 1] == rows[sigma[x] - 1][sigma[y] - 1]
            for x in range(n)
            for y in range(n)
        )
        for sigma in permutations(range(1, n + 1))
    )


def cycle_length_division_failures(rows, translations):
    """Every (k, x, y) whose z = x*y has an f-cycle length not dividing lcm(l_x, l_y).

    f is translations[k-1], any image tuple on 1..n; plain triple loop, with
    each cycle length found by walking the cycle.
    """
    n = len(rows)
    failures = []
    for k, f in enumerate(translations, 1):
        length = [0] * (n + 1)
        for start in range(1, n + 1):
            steps, x = 1, f[start - 1]
            while x != start:
                steps, x = steps + 1, f[x - 1]
            length[start] = steps
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                z = rows[x - 1][y - 1]
                if math.lcm(length[x], length[y]) % length[z] != 0:
                    failures.append((k, x, y))
    return failures


def relabeled(rows, sigma):
    """The table with every element x renamed to sigma[x-1]."""
    n = len(rows)
    inv = [0] * n
    for x, v in enumerate(sigma, 1):
        inv[v - 1] = x
    return tuple(
        tuple(sigma[rows[inv[i] - 1][inv[j] - 1] - 1] for j in range(n)) for i in range(n)
    )


def column_major_least_labeling(rows):
    """The relabeling of the table whose columns, read in order, are lex-least."""
    n = len(rows)
    best = min(
        tuple(zip(*relabeled(rows, sigma))) for sigma in permutations(range(1, n + 1))
    )
    return tuple(zip(*best))


def meets_orderly_rule(rows):
    """True iff no relabeling in level j's group puts a smaller column at j, for every j.

    Level j's group (1-based here): with k leading identity columns and
    b = min(j-1, k), every permutation that maps 1..b onto itself, fixes
    b+1..j-1 and keeps columns 1..j-1. Such a sigma puts sigma R_x sigma^-1
    at column j, for x = sigma^-1(j); the rule asks that to be at least R_j.
    """
    n = len(rows)
    cols = [tuple(row[j] for row in rows) for j in range(n)]
    identity = tuple(range(1, n + 1))
    k = 0
    while k < n and cols[k] == identity:
        k += 1
    for sigma in permutations(range(1, n + 1)):
        inv = [0] * n
        for x, v in enumerate(sigma, 1):
            inv[v - 1] = x
        moved = [cols[inv[c] - 1] for c in range(n)]
        conjugates = [tuple(sigma[col[inv[y] - 1] - 1] for y in range(n)) for col in moved]
        for j in range(n):
            b = min(j, k)
            if (sorted(sigma[:b]) == list(identity[:b])
                    and sigma[b:j] == identity[b:j]
                    and conjugates[:j] == cols[:j]
                    and conjugates[j] < cols[j]):
                return False
    return True


def canonical_labeling(rows):
    """(row-major lex-least relabeling, the first sigma in lex order that gives it)."""
    n = len(rows)
    best = None
    for sigma in permutations(range(1, n + 1)):
        table = relabeled(rows, sigma)
        if best is None or table < best[0]:
            best = (table, sigma)
    return best


def first_table_error(rows, max_order=300):
    """(exception class name, message) of the first axiom failure of a raw table, or None.

    The order is the documented one: emptiness and the order cap, then
    shape and entries row by row, then idempotency, then each column in
    turn, then distributivity at the least (i, j, k) by a plain triple loop.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        return "EmptyTableError", "quandle tables must be nonempty"
    if n > max_order:
        return "TableTooLargeError", f"table order {n} exceeds {max_order} (MAX_TABLE_ORDER)"
    for i, row in enumerate(rows, 1):
        if len(row) != n:
            return "TableShapeError", f"row {i} has {len(row)} entries, expected {n}"
        for j, v in enumerate(row, 1):
            if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= n:
                return "EntryOutOfRangeError", f"entry at ({i},{j}) is {v!r}, expected an integer in 1..{n}"
    for i in range(1, n + 1):
        if rows[i - 1][i - 1] != i:
            return "NotIdempotentError", f"idempotency fails: {i}*{i} = {rows[i - 1][i - 1]}"
    for j in range(n):
        seen = set()
        for row in rows:
            if row[j] in seen:
                return "ColumnNotPermutationError", f"column {j + 1} repeats the value {row[j]}"
            seen.add(row[j])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if rows[rows[i - 1][j - 1] - 1][k - 1] != rows[rows[i - 1][k - 1] - 1][rows[j - 1][k - 1] - 1]:
                    return ("NotRightDistributiveError",
                            f"right distributivity fails at ({i},{j},{k}): ({i}*{j})*{k} != ({i}*{k})*({j}*{k})")
    return None


def cycles_of(images):
    """Cycles of a permutation given by 1-based images, each from its least point, by least point."""
    seen = set()
    cycles = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        x = images[start - 1]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = images[x - 1]
        cycles.append(tuple(cycle))
    return cycles


def left_refinement(rows, rights=None):
    """(hypothesis, conclusion, failures, left is a permutation) of left refinement at each i.

    The hypothesis at i: R_i has cycles of distinct lengths and every
    column of the table fixes exactly one point. The conclusion: row i is
    a permutation and each of its cycles lies inside one cycle of R_i. The
    failures are the cycles of L_i that do not, or (i, v) for the first
    value v that row i repeats. ``rights`` maps some i to images that
    replace those of R_i.
    """
    n = len(rows)
    rights = rights or {}
    unique_fixed = all(sum(rows[x][j] == x + 1 for x in range(n)) == 1 for j in range(n))
    results = []
    for i in range(1, n + 1):
        right = rights.get(i, [rows[x][i - 1] for x in range(n)])
        right_cycles = cycles_of(right)
        lengths = [len(c) for c in right_cycles]
        hypothesis = len(set(lengths)) == len(lengths) and unique_fixed
        row = list(rows[i - 1])
        if sorted(row) != list(range(1, n + 1)):
            first = next(v for k, v in enumerate(row) if v in row[:k])
            results.append((hypothesis, False, [(i, first)], False))
            continue
        failures = [c for c in cycles_of(row) if not any(set(c) <= set(rc) for rc in right_cycles)]
        results.append((hypothesis, not failures, failures, True))
    return results
