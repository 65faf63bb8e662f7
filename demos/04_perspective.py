#!/usr/bin/env python3
# Perspective projection as translate / cotranslate / translate-back, and
# pseudo-perspective as a single cotranslation.

import numpy as np

from cl33 import (
    Paravector,
    compose,
    normalize_point,
    perspective_project,
    projective_matrix_probe,
    pseudo_perspective,
    translation_versor,
)
from cl33.versors import PerspectiveMap

# Project P = (2,4,2) from an eye at the origin onto the plane z = 1.  The
# result is a weighted point on the plane; its weight is the z-distance.
eye = Paravector(1.0, [0.0, 0.0, 0.0])
out = perspective_project(eye, [0, 0, 1], 1.0, Paravector(1.0, [2.0, 4.0, 2.0]))
print("raw weighted image: ", out)
print("normalized image:   ", normalize_point(out))

# Points behind the eye come back conjugated (negative weight, vector
# negated) so that their represented location is still on the plane.
behind = perspective_project(eye, [0, 0, 1], 1.0, Paravector(1.0, [0.4, -0.6, -2.0]))
print("\nbehind the eye:     ", behind)
print("its location:       ", behind.location())

# An off-origin eye: the projection still lands on the plane x.n = c.
eye = Paravector(1.0, [0.0, 0.0, 2.0])
n, c = np.array([0.0, 0.0, 1.0]), 1.0
img = normalize_point(perspective_project(eye, n, c, Paravector(1.0, [0.5, 0.5, 0.0])))
print("\noff-origin eye image:", img, " (n.x =", img.vector @ n, ")")

# As a pipeline stage the projection is a plain linear map on (w, p), so it
# has a 4x4 matrix; the eye spans its kernel.
stage = PerspectiveMap(eye, n, c)
m = projective_matrix_probe(stage)
print("\nprojection matrix:\n", np.array_str(m, precision=3, suppress_small=True))
print("matrix rank:", np.linalg.matrix_rank(m, tol=1e-9))
print("eye maps to:", m @ np.array([1.0, 0.0, 0.0, 2.0]))

# Pseudo-perspective: one cotranslation along the unit view direction turns
# the eye at -n into the point at infinity along -n and a frustum into a box.
n = np.array([0.0, 0.0, 1.0])
print("\neye (0,0,-1) maps to:", pseudo_perspective(n, Paravector(1.0, [0, 0, -1])))
for z in (0.5, 1.0, 2.0, 4.0):
    q = normalize_point(pseudo_perspective(n, Paravector(1.0, [1.0, 1.0, z])))
    print(f"frustum point (1,1,{z}) -> {np.round(q.vector, 4)}")

# Composition: affine stages fuse into one versor; the projection stage
# stays separate, mirroring the two-versor structure of a graphics pipeline.
model = compose([translation_versor([0.1, 0.0, 0.0]),
                 translation_versor([0.0, 0.2, 0.0]),
                 stage])
print("\ncomposed pipeline stages:", len(model.stages))
