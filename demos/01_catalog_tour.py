"""Tour of the function catalog: values, subdifferentials, minimal-norm elements.

Each entry exposes its exact Clarke subdifferential as a finite generator
list: a single gradient where the function is differentiable, the extreme
limiting gradients at kinks.  The minimal-norm element of the hull is the
canonical descent selection used by both dynamics engines.
"""

import numpy as np

from nsdyn import list_catalog, minimal_norm_element

probe_points = {
    "quad": [0.6, -0.8],
    "abs_sum": [0.0, 0.4],
    "cross": [1.0, 0.1],
    "wiggle": [0.0],
    "vee_bowl": [0.0, 0.3],
    "neg_norm": [0.0, 0.0],
}

print(f"{'id':<9} {'dim':>3} {'semialg':>7} {'convex':>6}   f(x)        generators -> min-norm element")
for fn in list_catalog():
    x = np.array(probe_points[fn.name])
    gens = fn.generators(x, active_tol=0.0)
    v = minimal_norm_element(gens)
    print(f"{fn.name:<9} {fn.dim:>3} {str(fn.semialgebraic):>7} {str(fn.convex):>6}   "
          f"f({np.array2string(x, precision=2)}) = {fn.value(x):+.4f}   "
          f"{gens.shape[0]} gen -> {np.array2string(v, precision=4)}")

print()
print("The cross function is differentiable everywhere (both partials carry a")
print("vanishing axis factor), yet its gradient is not locally Lipschitz near")
print("the axes; every axis point is a critical non-strict local minimum:")
for x in ([1.0, 0.0], [1.0, 0.01], [1.0, 0.1]):
    g = list_catalog()[2].generators(np.array(x))[0]
    print(f"  grad f({x}) = {np.array2string(g, precision=6)}")
