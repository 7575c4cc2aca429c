"""Write bench/reference.json: the outputs of every unseeded benchmark case.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the program's results; a change
meant only to speed the program up must pass against the stored reference.
"""

from __future__ import annotations

import json

import cases as case_lists
from run import REFERENCE, import_nocplace


def reference_records(nc, size: str) -> dict[str, dict]:
    records = {}
    for workload in case_lists.WORKLOADS:
        for case in case_lists.build(nc, workload, seed=0, size=size).cases:
            if not case.reference:
                continue
            try:
                records[case.id] = case.record(case.run())
            except nc.UnstableError:
                records[case.id] = {"unstable": True}
    return records


def main() -> None:
    nc = import_nocplace()
    ref = {size: reference_records(nc, size) for size in ("tiny", "full")}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, ref.values()))} records to {REFERENCE.name}")


if __name__ == "__main__":
    main()
