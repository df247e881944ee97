"""Independent oracles for the class-value kernels: the partial derivatives of
the class monomials and the orbit formula of the tangent Gram matrix."""

import math
from functools import lru_cache

import numpy as np

from so3embed.so3 import TANGENT_BASIS
from so3embed.tensors import _class_index, class_counts


@lru_cache(maxsize=None)
def monomial_derivatives(alpha: int) -> np.ndarray:
    """Cached read-only ``D``, shape ``(3, C(alpha+1, 2), C(alpha+2, 2))``, with
    ``d/dw_d class_monomials(w, alpha) = D[d].T @ class_monomials(w, alpha - 1)``."""
    table = np.zeros((3, math.comb(alpha + 1, 2), math.comb(alpha + 2, 2)))
    for c, n in enumerate(class_counts(alpha)):
        for d in range(3):
            if n[d]:
                table[d, _class_index(n[0] - (d == 0), n[1] - (d == 1), alpha - 1), c] = n[d]
    table.setflags(write=False)
    return table


def orbit_gram(spec) -> np.ndarray:
    """The tangent Gram matrix ``(3, 3)`` of ``spec`` from its orbit vectors (Arnold,
    Jupp and Schaeben, J. Multivariate Anal. 165, 2018): per component of rank ``a``,
    ``G_kl = sum_{v,w} W_vw [a (A_k v . A_l w) (v . w)^(a-1) + a (a-1) (A_k v . w)
    (v . A_l w) (v . w)^(a-2)]`` with ``W = beta^2 wt wt^T`` and ``A_l`` the tangent
    basis, each power of a ``(k, k)`` table taken by numpy."""
    gram = np.zeros((3, 3))
    for (vecs, wts), a, b in zip(spec.orbits, spec.alpha, spec.beta):
        w = b * b * np.outer(wts, wts)
        dots = vecs @ vecs.T
        moved = np.einsum("lij,vj->lvi", TANGENT_BASIS, vecs)  # A_l v
        for k in range(3):
            for m in range(3):
                term = a * (moved[k] @ moved[m].T) * dots ** (a - 1)
                if a > 1:
                    term += a * (a - 1) * (moved[k] @ vecs.T) * (vecs @ moved[m].T) * dots ** (a - 2)
                gram[k, m] += np.sum(w * term)
    return gram
