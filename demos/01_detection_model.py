"""A tour of the detection model's moving parts.

A bug's eventual size is the number of inputs that would ever cross it.
Big bugs sit on busy paths and get caught early; tiny bugs hide.  This
script pokes at each kernel with concrete numbers before any sampling
enters the picture.
"""

import numpy as np

from bugsize import cell_probabilities, detection_prob

print("=== normalized cell probabilities for a 2x3 campaign ===")
test_cases = np.array([[40, 10, 0], [25, 5, 15]])
cells = cell_probabilities(test_cases)
print(np.array_str(cells, precision=4))
print(f"  grid sums to {cells.sum():.12f}; the zero-effort cell gets 0")

print()
print("=== size-driven detection kernel, 1 - exp(-size**nu / t_max) ===")
t_max = test_cases.max()
print(f"  t_max = {t_max}")
for nu in (1.0, 1.25, 1.5):
    row = [f"{detection_prob(s, nu, t_max):.4f}" for s in (1, 5, 20, 50, 100)]
    print(f"  nu={nu:<5} size 1/5/20/50/100 -> {row}")
print("  larger bugs are found almost surely; size-1 bugs usually survive")

print()
print("=== one candidate's outcomes: missed, or found in exactly one cell ===")
size = 30
alpha = detection_prob(size, 1.5, t_max)
print(f"  P(never detected | size={size}) = 1 - alpha = {1 - alpha:.4f}")
print(f"  P(found in cell j,k | size={size}) = alpha * cells[j, k]")
print(f"  (1 - alpha) + alpha * sum(cells) = {(1 - alpha) + alpha * cells.sum():.12f}")
print("  the cell factor does not depend on size, so only alpha (through")
print("  t_max) and the detected count reach the posterior")
