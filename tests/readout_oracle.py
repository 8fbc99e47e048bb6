"""The two-pass readout of a pattern table, kept as a test oracle.

``exact`` and ``simulate`` once read a report out twice: the CSV by
``distribution_to_csv`` and the JSON ``mass`` object by ``dist_payload``,
each sorting the table through ``Perm.__lt__`` and formatting every pattern
and mass itself.  The CLI now sorts once by pattern word and writes both
from one list; tests compare its CSV text and JSON line with these byte for
byte.
"""

from __future__ import annotations

import csv
import io
import json

from orderflow.analysis import PatternReport
from orderflow.exactnum import exact_str
from orderflow.perms import PatternDistribution


def distribution_to_csv(mu: PatternDistribution) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["perm", "mass"])
    for sigma in sorted(mu.mass):
        m = mu.mass[sigma]
        w.writerow([str(sigma), exact_str(m) if mu.exact else repr(float(m))])
    return buf.getvalue()


def dist_payload(report: PatternReport, as_float: bool) -> dict:
    dist = report.distribution
    if as_float or not dist.exact:
        masses = {str(s): float(m) for s, m in sorted(dist.mass.items())}
    else:
        masses = {str(s): exact_str(m) for s, m in sorted(dist.mass.items())}
    out = {"n": report.n, "mass": masses, "discards": report.discards}
    out["samples"] = "exact" if report.exact else report.samples
    return out


def readout(report: PatternReport, command: str, as_float: bool) -> tuple[str, str]:
    """The CSV text and the stdout JSON line the command printed for ``report``."""
    line = json.dumps({"command": command, **dist_payload(report, as_float)}, sort_keys=True)
    return distribution_to_csv(report.distribution), line
