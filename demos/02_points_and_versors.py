#!/usr/bin/env python3
# Weighted points as paravectors, and the six basic transformations applied
# through versor sandwiches.

import numpy as np

from cl33 import (
    Paravector,
    apply_cotranslation,
    apply_sandwich,
    hyperbolic_versor,
    normalize_point,
    reflection_versor,
    rotation_versor,
    scale_versor,
    sector_image,
    shear_versor,
    translation_versor,
)

# A point with weight w at position p is the paravector w + p.  Affine
# points have weight one; weight zero marks a direction (point at infinity).
p = Paravector(1.0, [1.0, 2.0, 3.0])
print("point:", p)
print("weighted copy normalizes back:", normalize_point(Paravector(2.0, [2, 4, 6])))

# Reflection across the plane with unit normal n (sandwich sign -1).
refl = reflection_versor([0, 0, 1])
print("\nreflect (1,2,3) in z=0 plane:", apply_sandwich(refl, p))

# Rotation in the plane of an orthonormal pair; the versor turns v toward u.
rot = rotation_versor([1, 0, 0], [0, 1, 0], np.pi / 2)
print("rotate e1 by pi/2 in the (e1,e2) plane:",
      apply_sandwich(rot, Paravector(1.0, [1, 0, 0])))

# Hyperbolic rotation mixes the two in-plane coordinates with cosh/sinh.
hyp = hyperbolic_versor([1, 0, 0], [0, 1, 0], 0.5)
print("hyperbolic by 0.5 of e1:", apply_sandwich(hyp, Paravector(1.0, [1, 0, 0])))

# Shear adds t times the v-coordinate along u.
sh = shear_versor([1, 0, 0], [0, 1, 0], 2.0)
print("shear t=2 of (0,1,0):", apply_sandwich(sh, Paravector(1.0, [0, 1, 0])))

# Non-uniform scale stretches the u-component by e^t.
sc = scale_versor([1, 0, 0], np.log(2.0))
print("scale e^t=2 along e1 of (1,1,0):", apply_sandwich(sc, Paravector(1.0, [1, 1, 0])))

# Translation: the only basic transform whose generator is a vector.
tr = translation_versor([1.0, -1.0, 0.5])
print("translate (0,0,0):", apply_sandwich(tr, Paravector(1.0, [0, 0, 0])))

# Cotranslation is the star-conjugated partner of translation: it adds the
# pairing g(p, v) to the weight and keeps the position fixed.
print("cotranslate (1,2,3) by (1,0,0):", apply_cotranslation([1, 0, 0], p))

# Reflection and rotation act independently on the two generator sectors;
# everything else leaks across.  The report quantifies the leakage: the
# largest off-sector coefficient of the images of 1 and the sector's three
# generators.
for versor in (refl, rot, hyp, sh, sc, tr):
    rep = sector_image(versor)
    print(f"{versor.kind:12s} plus sector {rep.plus_image:9s} "
          f"(off-sector {rep.plus_off_sector:.1e})")
