"""Certify the built-in identity suite and write every entry's certificate.

Runs ``verify_identity_suite(default_suite())`` once, writes one JSON record
per entry (the entries of ``SuiteReport.to_json`` without their seconds:
the verdicts and the certificate, every term as [coefficient, left,
generator, right]), and prints the suite seconds, the median entry's
milliseconds and the five slowest entries.

    PYTHONPATH=src python scripts/suite_certificates.py [OUT.json]

Without OUT.json the records are not written.  The first printed line is
``identity suite: <seconds> s``, the second ``median entry: <ms> ms``, the
median of the per-entry seconds.
"""

import json
import statistics
import sys
import time

from balk1.starpoly import default_suite, verify_identity_suite


def certificate_records(report) -> list:
    """The report's JSON entries without the timings: per entry the name, the
    verdicts, the term count and the certificate (target, ideal, bound,
    generators and every term as [coefficient, left, generator, right])."""
    records = json.loads(report.to_json())["entries"]
    for record in records:
        del record["seconds"]
    return records


def main() -> None:
    entries = default_suite()
    started = time.perf_counter()
    report = verify_identity_suite(entries)
    seconds = time.perf_counter() - started
    print(f"identity suite: {seconds:.2f} s ({len(report.results)} entries, "
          f"ok={report.ok})")
    median = statistics.median(r.seconds for r in report.results)
    print(f"median entry: {1000 * median:.3f} ms")
    for r in sorted(report.results, key=lambda r: -r.seconds)[:5]:
        print(f"  {r.seconds:7.3f} s  {r.name}  ({r.n_terms} terms)")
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(certificate_records(report), fh, indent=1,
                      ensure_ascii=False)
            fh.write("\n")


if __name__ == "__main__":
    main()
