#!/usr/bin/env python3
"""Write perfbench/references.json: output digests of every benchmark CLI task.

    python3 perfbench/make_refs.py

Run from a checkout root, on a commit whose outputs are known good.  A
task whose config holds a "$name" placeholder gets one digest per input
variant, any other task one digest.  Each task runs with --threads 1; a
task the benchmark runs with more threads is also run that way here, and
the script stops if the bytes differ, since --threads must not change
results.  Every written output is also checked by the benchmark's
oracles before its digest is kept.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def seeded(doc):
    return "$" in json.dumps(doc)


def digest_of(pointspec, entry, values, workdir, threads):
    task = bench.build_tasks({"verify": [], "cli": [entry]}, values, workdir)[0]
    task["threads"] = threads
    _, _, reason, _ = bench.run_task(pointspec, task)
    if reason is not None:
        raise SystemExit("%s failed: %s" % (entry["name"], reason))
    return bench.dir_digest(task["out"])[0], task["out"]


def main():
    spec = bench.load_spec()
    pointspec = bench.import_pointspec()
    n_variants = len(next(iter(spec["variants"].values())))
    workdir = bench.ROOT / ".perfbench" / "refs"
    refs = {}
    try:
        for wname, wl in spec["workloads"].items():
            outs = {}
            for entry in wl["cli"]:
                variants = range(n_variants) if seeded(entry["config"]) else [0]
                digests = []
                for v in variants:
                    values = bench.variant_values(spec, v)[1]
                    d1, out = digest_of(pointspec, entry, values, workdir / wname, 1)
                    threads = entry.get("threads", 1)
                    if threads > 1:
                        dn, out = digest_of(pointspec, entry, values, workdir / wname, threads)
                        if dn != d1:
                            raise SystemExit("%s: --threads %d changed the output bytes"
                                             % (entry["name"], threads))
                    digests.append(d1)
                    outs[entry["name"]] = out
                refs[entry["name"]] = digests if len(digests) > 1 else digests[0]
                print("%-20s %s" % (entry["name"], digests[0][:16]), flush=True)
            for name, oracle in bench.ORACLES.items():
                if name in outs:
                    problem = oracle(outs)
                    if problem:
                        raise SystemExit("%s: %s" % (name, problem))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(bench.HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
