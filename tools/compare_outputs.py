"""Numeric difference between two elastisat output directories.

    python tools/compare_outputs.py DIR_A DIR_B [--bound REL]

Every ``*.csv`` and ``*.json`` file found under both directories (at the
same relative path) is compared; ``manifest.json`` is skipped because it
holds wall times. For each CSV column and each numeric JSON field the
script prints the largest absolute difference, the largest pointwise
relative difference |a - b| / max(|a|, |b|), and the largest absolute
difference over the field's largest magnitude (``rel_to_max``). List
entries share their field: ``q[]`` is one field over all entries of q.

A relative equilibrium (a JSON object with ``q`` and ``L``) lies on an
orbit of rotations about L, and Newton may land anywhere on it, so its q
is also compared after rotating A's coefficient rows about L onto B's
(least-squares angle); that row is named ``q[] (aligned about L)`` and
the angle is printed.

Exit status 0 when both trees have the same files, shapes and
non-numeric values, 1 otherwise. With ``--bound REL`` the exit status is
also 1 when a field's max_abs exceeds REL x max(1, the field's largest
magnitude), or when an integer field (a JSON value that is an int on both
sides, such as a counter or a Newton iteration count) differs at all.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_leaves(obj, path=""):
    """(field, value) for every leaf; list entries share the field name path + '[]'."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for item in obj:
            yield from _json_leaves(item, path + "[]")
    else:
        yield path, obj


def _by_field(doc) -> dict:
    """Field name -> its leaf values in document order."""
    out = {}
    for key, value in _json_leaves(doc):
        out.setdefault(key, []).append(value)
    return out


def _equilibria(obj, path=""):
    """(path, q, L) for every object that carries a relative equilibrium."""
    if isinstance(obj, dict):
        if isinstance(obj.get("q"), list) and isinstance(obj.get("L"), list):
            yield path, np.asarray(obj["q"], dtype=float), np.asarray(obj["L"], dtype=float)
        for key in sorted(obj):
            yield from _equilibria(obj[key], f"{path}.{key}" if path else key)


def _aligned_q(q_a, q_b, L):
    """A's coefficient rows rotated about L by the angle that best matches B's, and the angle."""
    n = L / np.linalg.norm(L)
    A, B = q_a.reshape(-1, 3), q_b.reshape(-1, 3)
    sin = float(np.sum(np.cross(A, B) @ n))
    cos = float(np.sum(A * B) - np.sum((A @ n) * (B @ n)))
    theta = math.atan2(sin, cos)
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    R = np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)
    return (A @ R.T).reshape(-1), theta


class _Field:
    """Running maxima of the differences of one field."""

    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.max_mag = 0.0
        self.integer = True  # every value so far an int on both sides

    def add(self, a, b):
        self.integer = self.integer and isinstance(a, int) and isinstance(b, int)
        a, b = float(a), float(b)
        diff = abs(a - b)
        mag = max(abs(a), abs(b))
        self.max_abs = max(self.max_abs, diff)
        if diff > 0.0:
            self.max_rel = max(self.max_rel, diff / mag)
        self.max_mag = max(self.max_mag, mag)

    @property
    def rel_to_max(self) -> float:
        return self.max_abs / self.max_mag if self.max_mag > 0.0 else 0.0

    def over_bound(self, bound: float) -> str | None:
        """Why this field breaks --bound, or None."""
        if self.integer and self.max_abs > 0.0:
            return f"integer values differ by up to {self.max_abs:g}"
        limit = bound * max(1.0, self.max_mag)
        if self.max_abs > limit:
            return f"max_abs {self.max_abs:.3e} > {bound:g} x max(1, {self.max_mag:.3e})"
        return None


def _report(name: str, fields: dict, problems: list, notes: list):
    print(f"== {name}")
    for line in notes:
        print(f"  # {line}")
    if fields:
        width = max(len(k) for k in fields)
        print(f"  {'field':<{width}}  {'max_abs':>10}  {'max_rel':>10}  {'rel_to_max':>10}")
        for key, f in fields.items():
            print(f"  {key:<{width}}  {f.max_abs:10.3e}  {f.max_rel:10.3e}  {f.rel_to_max:10.3e}")
    for line in problems:
        print(f"  ! {line}")


def _add(fields, problems, key, a, b):
    if _is_number(a) and _is_number(b):
        fields.setdefault(key, _Field()).add(a, b)
    elif a != b:
        problems.append(f"{key}: {a!r} != {b!r}")


def compare_csv(path_a: Path, path_b: Path):
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    fields, problems = {}, []
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return fields, ["headers differ"], []
    if len(rows_a) != len(rows_b):
        problems.append(f"{len(rows_a) - 1} rows != {len(rows_b) - 1} rows")
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for key, a, b in zip(rows_a[0], row_a, row_b):
            _add(fields, problems, key, _parse_cell(a), _parse_cell(b))
    return fields, problems, []


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def compare_json(path_a: Path, path_b: Path):
    doc_a, doc_b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    values_a, values_b = _by_field(doc_a), _by_field(doc_b)
    fields, problems, notes = {}, [], []
    for key in sorted(values_a.keys() ^ values_b.keys()):
        problems.append(f"{key}: only in {'A' if key in values_a else 'B'}")
    for key in (k for k in values_a if k in values_b):
        if len(values_a[key]) != len(values_b[key]):
            problems.append(f"{key}: {len(values_a[key])} entries != {len(values_b[key])}")
            continue
        for a, b in zip(values_a[key], values_b[key]):
            _add(fields, problems, key, a, b)
    for (path, q_a, L), (_, q_b, _) in zip(_equilibria(doc_a), _equilibria(doc_b)):
        if not np.any(L) or q_a.shape != q_b.shape:
            continue  # no rotation axis, or already reported as a shape problem
        aligned, theta = _aligned_q(q_a, q_b, L)
        key = f"{path}.q[] (aligned about L)" if path else "q[] (aligned about L)"
        for a, b in zip(aligned, q_b):
            _add(fields, problems, key, float(a), float(b))
        notes.append(f"{path or 'equilibrium'}: aligned by {theta:.3e} rad about L")
    return fields, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--bound", type=float, metavar="REL",
                        help="fail when a field moves by more than REL x max(1, field max)")
    args = parser.parse_args(argv)
    dir_a, dir_b = args.dir_a, args.dir_b

    def outputs(root):
        return {
            p.relative_to(root) for p in root.rglob("*")
            if p.suffix in (".csv", ".json") and p.name != "manifest.json"
        }

    files_a, files_b = outputs(dir_a), outputs(dir_b)
    clean = files_a == files_b
    for rel in sorted(files_a ^ files_b):
        print(f"! only in {'A' if rel in files_a else 'B'}: {rel}")
    for rel in sorted(files_a & files_b):
        compare = compare_csv if rel.suffix == ".csv" else compare_json
        fields, problems, notes = compare(dir_a / rel, dir_b / rel)
        if args.bound is not None:
            problems += [f"{key}: {why}" for key, f in fields.items()
                         if (why := f.over_bound(args.bound))]
        _report(str(rel), fields, problems, notes)
        clean = clean and not problems
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
