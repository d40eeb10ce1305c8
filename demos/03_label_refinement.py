"""How the two refinement routes reshape a pseudo-label.

AALS (per part): blend the one-hot label with the uniform vector, with
the part's cross agreement as the confidence weight. A trusted part keeps
a sharp target; a dubious one trains toward uniform, which carries no
gradient once the prediction is uniform too.

PGLR (global): blend the one-hot label with an ensemble of the part
predictions, weighted by a softmax over the parts' agreement scores.

Both builders take a batch, one target row per sample, as the trainer
calls them.
"""

import numpy as np

from pplr import aals_targets, pglr_targets
from pplr.objectives import softmax

K = 5
LABEL = 1


def pglr_row(part_preds, agreements, beta):
    """The PGLR target of one sample: ``pglr_targets`` on a 1-row batch."""
    preds = np.stack(part_preds)[:, None, :]
    return pglr_targets(np.array([LABEL]), K, preds, np.array([agreements]), beta)[0]


print("AALS target for label 1 of 5, as agreement drops:")
alphas = np.array([1.0, 0.75, 0.5, 0.25, 0.0])
for alpha, probs in zip(alphas, aals_targets(np.full(alphas.size, LABEL), K, alphas)):
    print(f"  agreement={alpha:4.2f} -> {np.round(probs, 3)}")

print("\nensemble weights from agreement scores (softmax):")
for scores in ([0.5, 0.5, 0.5], [0.9, 0.5, 0.1], [0.9, 0.9, 0.02]):
    print(f"  agreements={scores} -> {np.round(softmax(np.array(scores)), 3)}")

# Three parts vote on the global target. Part 0 confidently agrees with
# the pseudo-label, part 1 hesitates, part 2 is occluded noise.
part_preds = [
    np.array([0.05, 0.80, 0.05, 0.05, 0.05]),
    np.array([0.30, 0.40, 0.10, 0.10, 0.10]),
    np.array([0.20, 0.20, 0.20, 0.20, 0.20]),
]
agreements = [0.8, 0.5, 0.05]

print("\nPGLR target for label 1, mixing the one-hot with the part vote:")
for beta in (1.0, 0.5, 0.0):
    target = pglr_row(part_preds, agreements, beta)
    print(f"  beta={beta:3.1f} -> {np.round(target, 3)}")

print("\nwith beta >= 0.5 the argmax never leaves the pseudo-label;")
print("the ensemble reshapes the rest of the mass toward plausible classes.")

# When every part collapses to uniform (all agreements low, predictions
# uninformative) the ensemble term degenerates to uniform as well.
uniform_preds = [np.full(K, 1 / K)] * 3
collapsed = pglr_row(uniform_preds, [0.02, 0.03, 0.01], 0.5)
print("\nall-uniform parts collapse the ensemble:", np.round(collapsed, 3))
