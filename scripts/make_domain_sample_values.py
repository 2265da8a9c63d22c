#!/usr/bin/env python3
"""Regenerate tests/domain_sample_values.py, the frozen oracle of the seeded domain sample.

For each of the 216 points of `_domain_sample()` in tests/test_moment_engine.py it
writes the point's inputs and gamma and d gamma / d estimand from the Hurwitz-zeta
closed form of tests/hurwitz_reference.py (mpmath at 45 digits, no package code but
the parameter records), rounded to double precision. The test that reads them checks
that the frozen inputs are still the sample's, so a changed sample fails until this
script is run again.

Usage:
    python scripts/make_domain_sample_values.py
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

import hurwitz_reference  # noqa: E402
from test_moment_engine import _domain_sample, _sample_inputs  # noqa: E402

HEADER = '''"""Frozen oracle values of the seeded domain sample of tests/test_moment_engine.py.

Generated by scripts/make_domain_sample_values.py from the Hurwitz-zeta closed form of
tests/hurwitz_reference.py (mpmath at 45 digits), rounded to double precision.
Regenerate with

    python scripts/make_domain_sample_values.py
"""

# (estimand, T, t, r, theta, s, omega_c, gamma, d gamma / d estimand), in sample order
DOMAIN_SAMPLE_VALUES = [
'''


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    rows = []
    for estimand, point, sq, sp in _domain_sample():
        values = hurwitz_reference.exponents(estimand, point, sq, sp)
        rows.append("    (" + ", ".join(map(repr, (*_sample_inputs(estimand, point, sq, sp),
                                                   *values))) + "),\n")
    out = TESTS / "domain_sample_values.py"
    out.write_text(HEADER + "".join(rows) + "]\n", encoding="utf-8")
    print(f"wrote {len(rows)} points to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
