#!/usr/bin/env python3
# Which operators keep points points: condition reports, classification of
# infinitesimal generators, and first-order matrices.

import numpy as np

from cl33 import (
    E,
    Multivector,
    affine_matrix,
    classify_infinitesimal,
    composed_family_report,
    cotranslation_matrix,
    embed_covector,
    embed_vector,
    outer_product,
    paravector_conditions,
    probe_points,
    translation_versor,
)
from cl33.blades import GRADES

W = outer_product
rng = np.random.default_rng(0)

# A sandwich operator Psi preserves the point subspace only if four
# grade-balance conditions hold and the image stays free of covector and
# grade-4/5 components.  For a translation versor every residual vanishes.
psi = translation_versor([1.0, 2.0, 3.0]).U
rep = paravector_conditions(psi, [0.3, -0.5, 0.8])
print("translation versor max residual:", rep.max_residual())

# Insert a covector bivector and the covector residual lights up.
bad = 1.0 + 0.01 * W(embed_covector([1, 0, 0]), embed_covector([0, 1, 0]))
rep = paravector_conditions(bad, [0.3, -0.5, 0.8])
print("covector bivector residual:    ", rep.covector_residual.max_abs())

# Classification of infinitesimal generators 1 + eps psi_k over a probe set:
# scalars, vectors, and rank-one mixed bivectors pass; everything else fails.
print("\nverdicts by generator:")
cases = [
    ("scalar", 0, Multivector.scalar(1.0)),
    ("vector", 1, embed_vector(rng.normal(size=3))),
    ("covector", 1, embed_covector(rng.normal(size=3))),
    ("mixed bivector a^b*", 2, W(embed_vector(rng.normal(size=3)),
                                 embed_covector(rng.normal(size=3)))),
    ("vector bivector e1^e2", 2, W(E[0], E[1])),
    ("grade 3", 3, Multivector(np.where(GRADES == 3, rng.normal(size=64), 0.0))),
    ("grade 5", 5, Multivector(np.where(GRADES == 5, rng.normal(size=64), 0.0))),
]
for name, k, gen in cases:
    res = classify_infinitesimal(k, gen)
    extra = " (acts as identity)" if res.acts_as_identity else ""
    print(f"  {name:24s} -> {res.verdict}{extra}  residual {res.max_residual:.1e}")

# The composed families of accepted generators stay exact at every order:
# every residual sits at rounding level (its exact value depends on the
# order of the floating-point sums, so only the verdict is printed).
report = composed_family_report()
print(f"\ncomposed families: {len(report)} cases, "
      f"{sum(r.passed for r in report)} at rounding level (residual <= 1e-12 x scale)")

# First-order matrices of the two application forms.  The sandwich form is
# affine (translation column); the star-sandwich form is its transpose-like
# partner (translation row).
v, a, b, eps = [1, 0, 0], [0, 1, 0], [0, 0, 1], 1e-2
print("\naffine matrix:\n", affine_matrix(v, a, b, eps))
print("star-sandwich matrix:\n", cotranslation_matrix(v, a, b, eps))

# The probe set behind the classification: zero, the axes, eight seeded
# random points.
print("\nprobe points:", len(probe_points()))
