"""The balanced-pair relations as one table of named factor products.

This table is the only statement of the relations.  The numeric residual
kernel (``balanced.relation_residuals``), the six corner estimates of the
split pipeline (``opmodel.verify_block_estimates``), the exact relation
ideals and the doubled 2x2 suite entries (``starpoly.suites``) all evaluate
its rows, so the module imports nothing.

Some rows are twins, listed in ``TWINS``:

* row 3 is row 2, since a(1 - a*a) = a - aa*a = (1 - aa*)a;
* rows 8-11 are the adjoints of rows 6, 7, 4 and 5.

A twin has its sibling's operator norm on every compression to a set of
coordinates (the compression of X* is the adjoint of that of X), so the
numeric kernel evaluates each pair once.  ``rel1`` has three distinct
generators, and the 65 entries of the built-in suite hold only 50 distinct
targets: every ``double-*:defect-left:*`` entry repeats a
``defect-right:*`` target, and ``double-swap``'s
``staradj:21``, ``adjstar:21`` and ``defect-right:21`` repeat their ``:12``
entries.  The suite keeps every entry under its name, because suite files
and reports are keyed by them.
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
REL1 = RELATIONS[:4]  # the defining relations
REL1_NAMES = tuple(name for name, _, _ in REL1)
REL2_NAMES = tuple(name for name, _, _ in RELATIONS[4:])

# Each twin row's name, mapped to the name of the earlier row whose residual
# equals it (row 3) or its adjoint (rows 8-11) on any matrices.
TWINS = {RELATIONS[twin][0]: RELATIONS[row][0]
         for twin, row in ((3, 2), (8, 6), (9, 7), (10, 4), (11, 5))}
