"""Regenerate the differential corpus digests.

    PYTHONPATH=src python tests/make_corpus.py           # list the entries that changed
    PYTHONPATH=src python tests/make_corpus.py --write   # record the new digests
    PYTHONPATH=src python tests/make_corpus.py --show NAME   # print one entry's rows

A change that moves a digest names each changed entry, and why, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="record the new digests")
    ap.add_argument("--show", metavar="NAME", help="print the rows of one entry point")
    args = ap.parse_args()
    rows = corpus.all_rows()
    if args.show:
        print("\n".join(rows[args.show]))
        return 0
    new = {name: corpus.digest(r) for name, r in rows.items()}
    old = corpus.load_digests() if os.path.exists(corpus.DIGESTS_PATH) else {}
    for name in sorted(new.keys() | old.keys()):
        if new.get(name) != old.get(name):
            print(f"changed: {name}")
    if args.write:
        with open(corpus.DIGESTS_PATH, "w", encoding="utf-8") as fh:
            json.dump(new, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
