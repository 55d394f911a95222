"""The byte format of every file pointspec writes.

JSON is dumped with one-space indent and sorted keys plus a trailing
newline; CSV floats are written as %.17g, which round-trips every double.
Together with deterministic inputs this makes outputs byte-reproducible.
"""

from __future__ import annotations

import csv
import json
import math

from .sources import region_to_json

# one point of points.json as json.dump(indent=1) lays it out, and its sort key, the
# str() of each entry: str() quotes "p/q" with ', which sorts like " against every
# other character of a key (digits, '-', '.', '/', 'e', ',', ' ', ']', NUL)
_POINT_TEXT = {"exact": "  [\n   [\n    %s,\n    %s\n   ],\n   %d\n  ]",
               1: "  [\n   %s,\n   %d\n  ]", 2: "  [\n   %s,\n   %s,\n   %d\n  ]"}
_POINT_KEY = {"exact": "[%s, %s]\0%d", 1: "%s\0%d", 2: "%s\0%s\0%d"}


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows):
    """One line per row: floats as %.17g, every other value with str."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for row in rows:
            out.writerow(["%.17g" % v if isinstance(v, float) else str(v) for v in row])


def write_points(path, patch, field=None):
    """points.json of a patch as json.dump(indent=1, sort_keys=True) writes it,
    rendered from the patch's arrays: [x, colour], [x, y, colour], or
    [[a, b], colour] for the exact (a + b*tau) with a and b each an int or a
    "p/q" string; sorted by the str() of each entry, written 1000 at a time."""
    head = {"dim": patch.dim, "m": patch.m, "coords": "exact" if patch.exact else "float",
            "points": [], "region": region_to_json(patch.region)}
    if patch.exact and field is not None:
        head["field"] = {"tau": field.name}
    texts = []
    for i in range(patch.m):
        q = patch.exact_positions(i)
        cols = ([map(float.__repr__, c) for c in patch.positions(i).reshape(-1, patch.dim).T.tolist()]
                if q is None else [[_ratio_text(n, q.den) for n in c.tolist()] for c in (q.a, q.b)])
        texts += [t + (i,) for t in zip(*cols)]
    shape = "exact" if patch.exact else patch.dim
    texts.sort(key=lambda t: _POINT_KEY[shape] % t)
    before, after = json.dumps(head, indent=1, sort_keys=True).split('"points": []')
    with open(path, "w") as fh:
        fh.write(before + '"points": [')
        for start in range(0, len(texts), 1000):
            fh.write((",\n" if start else "\n")
                     + ",\n".join(_POINT_TEXT[shape] % t for t in texts[start:start + 1000]))
        fh.write(("\n ]" if texts else "]") + after + "\n")


def _ratio_text(num: int, den: int) -> str:
    """The JSON text of num / den: an int, or a "p/q" string in lowest terms."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else '"%d/%d"' % (num // g, den // g)
