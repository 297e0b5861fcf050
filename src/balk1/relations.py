"""The balanced-pair relations as one table of named factor products.

The numeric residual kernel (``balanced.relation_residuals``) and the exact
relation ideals (``starpoly.suites``) both build their relations from this
table, so the module imports nothing.
"""

# The twelve relation residuals: the four defining relations, then the eight
# derived annihilations.  Each residual is the first product minus the second
# (if any); factor "1" is the identity, q_x = 1 - x*x and p_x = 1 - xx* are
# the domain and range defects, d = a - b and d* = a* - b*.
RELATIONS = (
    ("a*a-b*b", ("1", "qb"), ("1", "qa")),
    ("aa*-bb*", ("1", "pb"), ("1", "pa")),
    ("a(1-a*a)-b(1-b*b)", ("a", "qa"), ("b", "qb")),
    ("(1-aa*)a-(1-bb*)b", ("pa", "a"), ("pb", "b")),
    ("(a-b)(1-a*a)", ("d", "qa"), None),
    ("(a-b)(1-b*b)", ("d", "qb"), None),
    ("(a*-b*)(1-aa*)", ("d*", "pa"), None),
    ("(a*-b*)(1-bb*)", ("d*", "pb"), None),
    ("(1-aa*)(a-b)", ("pa", "d"), None),
    ("(1-bb*)(a-b)", ("pb", "d"), None),
    ("(1-a*a)(a*-b*)", ("qa", "d*"), None),
    ("(1-b*b)(a*-b*)", ("qb", "d*"), None),
)
REL1_NAMES = tuple(name for name, _, _ in RELATIONS[:4])
REL2_NAMES = tuple(name for name, _, _ in RELATIONS[4:])
