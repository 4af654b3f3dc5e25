"""Regenerate classes_p11.txt, the list of non-generic moduli classes over
F_11 that the models_p11 workload samples from.

Runs one census at p = 11, checks its counts against expected_counts(11),
then times class_model once on every class outside the generic stratum.
The timing is kept only as a sort key: the workload samples each stratum
systematically along that order, so different seeds pick different
classes but the same mix of cheap and expensive ones.

    python3 perfbench/make_classes.py          # about 20 minutes on 2 cores
"""

import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from octicmoduli import census_fast  # noqa: E402
from octicmoduli.census import class_model, expected_counts  # noqa: E402
from octicmoduli.errors import ModuliError  # noqa: E402
from octicmoduli.fields import PrimeField  # noqa: E402

OUT = os.path.join(HERE, "classes_p11.txt")


def main():
    with tempfile.TemporaryDirectory() as cache:
        os.environ["OCTICMODULI_CACHE"] = cache
        lines = class_lines()
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def class_lines():
    field = PrimeField(11)
    rows = census_fast.moduli_rows(field, filter_singular=True)
    labels = census_fast.classify_rows(field, rows)
    names = census_fast.strata_labels()
    counts = {name: int((labels == k).sum()) for k, name in enumerate(names)}
    if counts != expected_counts(11):
        raise SystemExit("census counts differ from expected_counts(11)")
    lines = ["# label; j2..j10; extension degree or error; class_model ms"]
    for k, name in enumerate(names[:-1]):
        for row in rows[labels == k]:
            jt = [field(int(v)) for v in row]
            t0 = time.perf_counter()
            try:
                outcome = str(class_model(field, jt)[1])
            except ModuliError as exc:
                outcome = type(exc).__name__
            ms = (time.perf_counter() - t0) * 1e3
            lines.append("%s; %s; %s; %.1f" % (
                name, ",".join(str(int(v)) for v in row), outcome, ms))
            print(lines[-1], flush=True)
    return lines


if __name__ == "__main__":
    main()
