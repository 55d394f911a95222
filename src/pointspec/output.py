"""The byte format of every file pointspec writes.

JSON is dumped with one-space indent and sorted keys plus a trailing
newline; CSV floats are written as %.17g, which round-trips every double.
Together with deterministic inputs this makes outputs byte-reproducible.
"""

from __future__ import annotations

import csv
import json


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
