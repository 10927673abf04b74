#!/usr/bin/env python3
"""Require JSON subtrees to equal a baseline leaf for leaf.

usage: leaves_equal.py <json-path> <baseline.json> <candidate.json>...

<json-path> is a dotted key path into each file (e.g. `results.cells`).
The subtree at that path is flattened to (leaf path, value) pairs, and
every candidate must have the same leaf paths as the baseline, each with
exactly the baseline's value. bench_diff tolerates 5% per leaf; this
check is for deterministic outputs, where any moved bit is a change.
Exits 1 and lists the differing leaves on the first candidate that
differs.
"""
import json
import sys


def leaves(v, path=''):
    if isinstance(v, dict):
        for k, x in v.items():
            yield from leaves(x, f'{path}.{k}')
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield from leaves(x, f'{path}[{i}]')
    else:
        yield path, v


def subtree(file, keys):
    with open(file) as f:
        v = json.load(f)
    for k in keys:
        v = v[k]
    return dict(leaves(v))


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        sys.exit(2)
    path, baseline, candidates = argv[1], argv[2], argv[3:]
    keys = path.split('.')
    base = subtree(baseline, keys)
    for candidate in candidates:
        now = subtree(candidate, keys)
        missing = sorted(base.keys() ^ now.keys())
        diff = [(k, base[k], now[k]) for k in base if k in now and base[k] != now[k]]
        if missing or diff:
            print(f'{candidate}: {path} differs from {baseline}', file=sys.stderr)
            for k in missing:
                print(f'  leaf only in one file: {k}', file=sys.stderr)
            for k, b, n in diff:
                print(f'  {k}: baseline {b!r}, candidate {n!r}', file=sys.stderr)
            sys.exit(1)
        print(f'{candidate}: {len(base)} leaves under {path} equal the baseline')


if __name__ == '__main__':
    main(sys.argv)
