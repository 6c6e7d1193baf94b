"""Compare the numbers of two `--deterministic` output trees.

    python tests/tree_compare.py OLD_TREE NEW_TREE [--keys]

Every file present in either tree is compared.  A JSON file is read as
a document and its leaves are matched by their path: a numeric leaf is
compared as a number, any other leaf (a criterion verdict, a label) must
be equal, and leaves at paths in one document only are counted as new
or gone.  Any other file is read as text and split into numbers and the
text between them; the text must match exactly and the numbers are
compared in order.  For each file the table gives how many numbers it
holds, how many moved, and the largest relative move |new - old| /
|old| (inf where old is 0 and new is not).  With --keys, each JSON file
also gets one row per leaf key name (max_ratio, rel_change,
sup_u_exponent, ...), over every leaf of that name wherever it sits in
the document.

The module is not a test file: pytest does not collect it, and
tests/test_tree_compare.py covers it.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?(?:nan|inf|NaN|Infinity)")


def _split(text: str):
    """(the text with every number replaced by '#', the numbers)."""
    nums = [float(m.replace("Infinity", "inf"))
            for m in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), nums


def relative_move(old: float, new: float) -> float:
    """|new - old| / |old|: 0 for equal values (NaN equal to NaN), inf
    where old is 0 or not finite and new differs."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or not math.isfinite(old) or not math.isfinite(new):
        return math.inf
    return abs(new - old) / abs(old)


class Tally:
    """Numbers seen, numbers moved and the largest relative move."""

    def __init__(self):
        self.numbers = 0
        self.moved = 0
        self.max_rel = 0.0

    def add(self, old: float, new: float) -> None:
        self.numbers += 1
        rel = relative_move(old, new)
        if rel > 0.0:
            self.moved += 1
            self.max_rel = max(self.max_rel, rel)


def _paths(doc, path=()):
    """(path, leaf) of every leaf of a JSON document, in order."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, path + (i,))
    else:
        yield path, doc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_json(old: str, new: str):
    """(tally, status, {key name: tally}) of two JSON documents, status
    'same text', 'text differs' (a non-numeric leaf changed, or a leaf
    changed type) or 'N new, M gone' (leaf paths in one document
    only)."""
    a, b = dict(_paths(json.loads(old))), dict(_paths(json.loads(new)))
    tally, by_key, changed = Tally(), {}, False
    for path, x in a.items():
        if path not in b:
            continue
        y = b[path]
        if _is_number(x) and _is_number(y):
            tally.add(float(x), float(y))
            name = next((p for p in reversed(path) if isinstance(p, str)),
                        "")
            by_key.setdefault(name, Tally()).add(float(x), float(y))
        elif x != y or _is_number(x) != _is_number(y):
            changed = True
    gone, added = len(a.keys() - b.keys()), len(b.keys() - a.keys())
    if changed:
        status = "text differs"
    elif gone or added:
        status = f"{added} new, {gone} gone"
    else:
        status = "same text"
    return tally, status, by_key


def compare_text(old: str, new: str):
    """(tally, status) of two texts, status 'same text' or 'text
    differs'; numbers are compared only where the rest is equal."""
    old_text, old_nums = _split(old)
    new_text, new_nums = _split(new)
    tally = Tally()
    if old_text != new_text or len(old_nums) != len(new_nums):
        return tally, "text differs"
    for a, b in zip(old_nums, new_nums):
        tally.add(a, b)
    return tally, "same text"


def compare_trees(old: Path, new: Path, keys: bool = False) -> list:
    """One row per file of either tree, sorted by relative path: (name,
    status, tally), status as compare_json and compare_text give it, or
    'old only' or 'new only'; with keys, JSON files are followed by rows
    named 'file:key'."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    rows = []
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            rows.append((name, "old only" if a.is_file() else "new only",
                         Tally()))
            continue
        old_text, new_text = a.read_text(), b.read_text()
        if name.endswith(".json"):
            tally, status, by_key = compare_json(old_text, new_text)
        else:
            (tally, status), by_key = compare_text(old_text, new_text), {}
        rows.append((name, status, tally))
        if keys:
            rows += [(f"{name}:{k}", status, t)
                     for k, t in sorted(by_key.items())]
    return rows


def format_rows(rows) -> str:
    """A markdown table of compare_trees rows."""
    out = ["| file | text | numbers | moved | max relative move |",
           "|---|---|---|---|---|"]
    for name, status, t in rows:
        out.append(f"| {name} | {status} | {t.numbers} | {t.moved} | "
                   f"{t.max_rel:.2g} |")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--keys", action="store_true",
                    help="also tally each JSON leaf key name")
    args = ap.parse_args(argv)
    rows = compare_trees(args.old, args.new, args.keys)
    print(format_rows(rows))
    return 0 if all(s == "same text" for _, s, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
