#!/usr/bin/env python3
"""Diff two directories of bench artifacts (BENCH_*.json) field by field.

    python3 bench/compare_bench.py BASE_DIR NEW_DIR \
        [--tol PATTERN=REL ...] [--skip FILE ...]

Every BENCH_*.json in either directory is compared with its namesake in
the other. Each JSON document is flattened to leaf paths such as
`benchmarks[3].fault_factors.cu`. Numbers differ when
|a - b| > REL * max(|a|, |b|); REL comes from the first --tol whose
fnmatch PATTERN matches the path, and defaults to 0 (exact). Strings,
booleans and nulls must be equal. A field or an artifact present on one
side only is a difference. --skip leaves an artifact out entirely (for
example BENCH_parallel.json, which records wall time).

Exit status: 0 when nothing differs, 1 on any difference, 2 on bad usage.
"""

import argparse
import fnmatch
import glob
import json
import os
import sys


def flatten(value, path, out):
    """Maps each leaf of a JSON value to its path in `out`. Empty objects
    and arrays are leaves too, so `[]` and a missing key still differ."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            flatten(child, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and value:
        for i, child in enumerate(value):
            flatten(child, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def tolerance(path, tols):
    for pattern, rel in tols:
        if fnmatch.fnmatchcase(path, pattern):
            return rel
    return 0.0


def same(a, b, rel):
    if is_number(a) and is_number(b):
        return abs(a - b) <= rel * max(abs(a), abs(b))
    return type(a) is type(b) and a == b


def compare_file(name, base_path, new_path, tols):
    """Returns (fields compared, list of difference lines) for one artifact."""
    with open(base_path, encoding="utf-8") as f:
        base = flatten(json.load(f), "", {})
    with open(new_path, encoding="utf-8") as f:
        new = flatten(json.load(f), "", {})
    diffs = []
    for path in sorted(base.keys() | new.keys()):
        if path not in new:
            diffs.append(f"{name}: {path}: only in base ({base[path]!r})")
        elif path not in base:
            diffs.append(f"{name}: {path}: only in new ({new[path]!r})")
        elif not same(base[path], new[path], tolerance(path, tols)):
            diffs.append(f"{name}: {path}: {base[path]!r} != {new[path]!r}")
    return len(base.keys() | new.keys()), diffs


def parse_tol(text):
    pattern, sep, rel = text.rpartition("=")
    if not sep or not pattern:
        raise argparse.ArgumentTypeError(f"expected PATTERN=REL, got '{text}'")
    try:
        value = float(rel)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance '{rel}' is not a number")
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance '{rel}' is negative")
    return pattern, value


def main():
    parser = argparse.ArgumentParser(
        description="Diff two directories of BENCH_*.json artifacts.")
    parser.add_argument("base", help="directory with the reference artifacts")
    parser.add_argument("new", help="directory with the artifacts to check")
    parser.add_argument("--tol", type=parse_tol, action="append", default=[],
                        metavar="PATTERN=REL",
                        help="relative tolerance for numeric fields whose "
                        "path matches the fnmatch PATTERN (default 0)")
    parser.add_argument("--skip", action="append", default=[], metavar="FILE",
                        help="artifact file name to leave out")
    args = parser.parse_args()
    for d in (args.base, args.new):
        if not os.path.isdir(d):
            parser.error(f"{d} is not a directory")

    def artifacts(d):
        names = (os.path.basename(p)
                 for p in glob.glob(os.path.join(d, "BENCH_*.json")))
        return {n for n in names if n not in args.skip}

    base_files, new_files = artifacts(args.base), artifacts(args.new)
    diffs = []
    for name in sorted(base_files - new_files):
        diffs.append(f"{name}: missing from {args.new}")
    for name in sorted(new_files - base_files):
        diffs.append(f"{name}: missing from {args.base}")
    fields = 0
    for name in sorted(base_files & new_files):
        n, file_diffs = compare_file(name, os.path.join(args.base, name),
                                     os.path.join(args.new, name), args.tol)
        fields += n
        diffs.extend(file_diffs)
    for line in diffs:
        print(line)
    print(f"{len(base_files & new_files)} artifact(s), {fields} field(s) "
          f"compared, {len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
