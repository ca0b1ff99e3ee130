"""Set-oriented relational algebra over raw row sets.

These are the primitive operations the set-construction framework of the
paper composes: selection, projection, equi-join, union, difference.
They operate on plain ``set``/``frozenset`` of value tuples so that every
engine in the library (reference evaluator, plan executor, fixpoint
engines) shares one data representation and the algebraic laws can be
property-tested directly.

All functions are pure: inputs are never mutated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .indexes import HashIndex, key_getter


def select(rows: Iterable[tuple], pred: Callable[[tuple], bool]) -> set[tuple]:
    """sigma_pred(rows)."""
    return {r for r in rows if pred(r)}


def project(rows: Iterable[tuple], positions: tuple[int, ...]) -> set[tuple]:
    """pi_positions(rows) — duplicate-eliminating, as sets require."""
    return {tuple(r[i] for i in positions) for r in rows}


def rename_noop(rows: set[tuple]) -> set[tuple]:
    """Renaming is schema-level only; values are untouched."""
    return set(rows)


def union(*row_sets: Iterable[tuple]) -> set[tuple]:
    out: set[tuple] = set()
    for rs in row_sets:
        out.update(rs)
    return out


def difference(left: Iterable[tuple], right: Iterable[tuple]) -> set[tuple]:
    return set(left) - set(right)


def intersection(left: Iterable[tuple], right: Iterable[tuple]) -> set[tuple]:
    return set(left) & set(right)


def cartesian(left: Iterable[tuple], right: Iterable[tuple]) -> set[tuple]:
    """Concatenating cross product."""
    right_rows = list(right)
    return {l + r for l in left for r in right_rows}


def equijoin(
    left: Iterable[tuple],
    right: Iterable[tuple],
    pairs: tuple[tuple[int, int], ...],
) -> set[tuple]:
    """Hash equi-join on position pairs ``(left_pos, right_pos)``.

    The result concatenates the full left and right tuples; callers
    project afterwards.  Builds the hash table on the right input.
    """
    if not pairs:
        return cartesian(left, right)
    # Build the hash table on the right side's join positions.
    rpos = tuple(rp for _, rp in pairs)
    lpos = tuple(lp for lp, _ in pairs)
    index = HashIndex(rpos, right)
    key_of = key_getter(lpos)
    out: set[tuple] = set()
    for lrow in left:
        for rrow in index.lookup(key_of(lrow)):
            out.add(lrow + rrow)
    return out


def semijoin(
    left: Iterable[tuple],
    right: Iterable[tuple],
    pairs: tuple[tuple[int, int], ...],
) -> set[tuple]:
    """Left rows with at least one join partner on the right."""
    rpos = tuple(rp for _, rp in pairs)
    lpos = tuple(lp for lp, _ in pairs)
    keys = {tuple(r[i] for i in rpos) for r in right}
    return {l for l in left if tuple(l[i] for i in lpos) in keys}


def antijoin(
    left: Iterable[tuple],
    right: Iterable[tuple],
    pairs: tuple[tuple[int, int], ...],
) -> set[tuple]:
    """Left rows with no join partner on the right (the NOT EXISTS shape)."""
    rpos = tuple(rp for _, rp in pairs)
    lpos = tuple(lp for lp, _ in pairs)
    keys = {tuple(r[i] for i in rpos) for r in right}
    return {l for l in left if tuple(l[i] for i in lpos) not in keys}
