"""Cross agreement: per-sample Jaccard similarity between the top-k
neighbor sets of two feature spaces.

A score of 1 means the two spaces rank exactly the same k samples closest;
a score near the chance level (roughly k/N for random lists) flags a space
whose local similarity structure carries no shared information, e.g. an
occluded part.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import CrossAgreement, RankedLists


def cross_agreement(a: RankedLists, b: RankedLists) -> np.ndarray:
    """Per-sample |A_i & B_i| / |A_i | B_i| for two ranked-list sets.

    Order within a list is irrelevant; both lists must share k and N.
    Both sets have exactly k members, so the union size is 2k minus the
    intersection size. A list never repeats an entry, so after sorting a
    row's two lists together each shared entry is one adjacent equal pair.
    """
    if a.k != b.k:
        raise ValueError(f"ranked lists disagree on k: {a.k} vs {b.k}")
    if a.n_samples != b.n_samples:
        raise ValueError(
            f"ranked lists disagree on N: {a.n_samples} vs {b.n_samples}"
        )
    merged = np.sort(np.concatenate([a.lists, b.lists], axis=1), axis=1)
    inter = np.count_nonzero(merged[:, 1:] == merged[:, :-1], axis=1)
    return inter / (2 * a.k - inter)


def agreement_matrix(
    global_lists: RankedLists, part_lists: Sequence[RankedLists]
) -> CrossAgreement:
    """Column n holds the agreement of the global space with part n.

    Any pair of spaces can be compared by calling :func:`cross_agreement`
    directly; this convenience wrapper covers the standard
    global-versus-each-part layout.
    """
    if not part_lists:
        raise ValueError("at least one part ranked-list set is required")
    columns = [cross_agreement(global_lists, part) for part in part_lists]
    return CrossAgreement(scores=np.stack(columns, axis=1))
