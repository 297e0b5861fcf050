"""Symbolic engine: exact *-polynomials, relation ideals and certificates."""

from .algebra import GaussianRational, Monomial, StarPoly, format_poly
from .membership import (CertTerm, MembershipCertificate, RelationIdeal,
                         certificate_is_valid, ideal_member, replay_certificate)
from .parsing import parse
from .suites import (SuiteEntry, SuiteReport, default_suite,
                     ideal_by_name, parse_suite, rel1_ideal, rel2_ideal,
                     canonical_unitary_poly, verify_identity_suite)

__all__ = [
    "GaussianRational", "Monomial", "StarPoly", "format_poly", "parse",
    "RelationIdeal", "MembershipCertificate", "CertTerm", "ideal_member",
    "replay_certificate", "certificate_is_valid",
    "SuiteEntry", "SuiteReport", "default_suite", "verify_identity_suite",
    "rel1_ideal", "rel2_ideal", "canonical_unitary_poly", "ideal_by_name",
    "parse_suite",
]
